package controller

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/flowtable"
	"repro/internal/openflow"
	"repro/internal/topo"
)

// countDP wraps tableDP with a FLOW_MOD counter so tests can meter the
// control traffic a repair actually puts on the wire.
type countDP struct {
	*tableDP
	mods atomic.Int64
}

func (d *countDP) ApplyFlowMod(fm openflow.FlowMod) error {
	d.mods.Add(1)
	return d.tableDP.ApplyFlowMod(fm)
}

// TestECMPRepairIsDelta pins the repair cost model: after a single
// agg-core cable failure in a k=4 fat tree, the debounced repair pass
// must emit FLOW_MODs only for the destinations whose next-hop port set
// changed — a handful of rules — never the switches × hosts full
// rewrite the initial proactive install costs.
func TestECMPRepairIsDelta(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every pipe and every fired timer counts on one ledger, so the
	// ledger reads zero exactly when no FLOW_MOD, PORT_STATUS or repair
	// pass is left in flight.
	var ledger emu.Ledger
	ctl := New(g, &manualClock{fire: true, ledger: &ledger}, &ECMPApp{}, t.Logf)
	defer ctl.Stop()

	dps := make(map[core.NodeID]*countDP)
	agents := make(map[core.NodeID]*openflow.Agent)
	for _, sw := range g.Switches() {
		swEnd, ctlEnd := ledger.Pipe()
		dp := &countDP{tableDP: &tableDP{table: flowtable.New()}}
		var ports []openflow.PhyPort
		for _, p := range sw.Ports {
			ports = append(ports, openflow.PhyPort{PortNo: uint16(p.ID), HWAddr: p.MAC})
		}
		agent := openflow.NewAgent(DPIDOf(sw.ID), ports, swEnd, dp, nil)
		agent.Start()
		t.Cleanup(agent.Stop)
		if err := ctl.Connect(sw.ID, DPIDOf(sw.ID), ctlEnd); err != nil {
			t.Fatal(err)
		}
		dps[sw.ID] = dp
		agents[sw.ID] = agent
	}
	hosts := len(g.Hosts())
	for id, dp := range dps {
		dp := dp
		waitFor(t, "proactive rules on "+g.Node(id).Name, func() bool {
			return dp.tableLen() == hosts
		})
	}
	totalMods := func() int64 {
		var n int64
		for _, dp := range dps {
			n += dp.mods.Load()
		}
		return n
	}
	// settle waits for the ledger to read zero, so counts taken
	// afterwards cover the whole repair pass.
	settle := func() {
		waitFor(t, "nothing in flight", func() bool { return ledger.InFlight() == 0 })
	}
	settle()
	initial := totalMods()
	fullRewrite := int64(len(g.Switches()) * hosts)
	if initial != fullRewrite {
		t.Fatalf("initial install sent %d FLOW_MODs, want %d (one per switch×host)", initial, fullRewrite)
	}

	// Fail one agg-core cable: topology first, then carrier notifications
	// from both adjacent switches (the debounce must coalesce them).
	agg, _ := g.NodeByName("agg-0-0")
	c0, _ := g.NodeByName("core-0-0")
	ab := g.CableBetween(agg.ID, c0.ID)
	ab.SetDown(true)
	g.Link(ab.Reverse).SetDown(true)
	if !agents[agg.ID].SetPortDown(uint16(ab.FromPort), true) {
		t.Fatal("agg agent does not know the failed port")
	}
	deadCorePort := g.Link(ab.Reverse).FromPort
	if !agents[c0.ID].SetPortDown(uint16(deadCorePort), true) {
		t.Fatal("core agent does not know the failed port")
	}
	// core-0-0's direct path into pod 0 is gone, so its rules for that
	// pod's hosts must be repaired away from the dead port (onto valley
	// paths through the other pods' aggs).
	coreDP := dps[c0.ID]
	victim, _ := g.NodeByName("host-0-0-0")
	usesDeadPort := func() bool {
		ft := core.FiveTuple{Src: victim.IP, Dst: victim.IP}
		coreDP.mu.Lock()
		defer coreDP.mu.Unlock()
		e, found := coreDP.table.Lookup(1, ft)
		if !found {
			return false
		}
		for _, act := range e.Actions {
			if act.Type == flowtable.ActionOutput && act.Port == deadCorePort {
				return true
			}
			for _, p := range act.Group {
				if p == deadCorePort {
					return true
				}
			}
		}
		return false
	}
	waitFor(t, "core steered off the dead port", func() bool { return !usesDeadPort() })
	settle()
	repairMods := totalMods() - initial
	if repairMods == 0 {
		t.Fatal("repair pass sent no FLOW_MODs")
	}
	// The affected set: agg-0-0 re-hashes remote pods onto one core (12
	// adds), core-0-0 re-routes pod 0 over valley paths (4 adds), and
	// the one same-index agg in each remote pod loses a first hop toward
	// pod 0 (3×4 adds) — ~28 mods, far below the 320-rule full rewrite.
	// Allow slack for a second debounce window splitting the two
	// PORT_STATUS events.
	if repairMods*4 > fullRewrite {
		t.Fatalf("repair sent %d FLOW_MODs — not a delta repair (full rewrite is %d)", repairMods, fullRewrite)
	}

	// Recovery is a delta too, and steers the pod back onto the direct
	// path.
	afterRepair := totalMods()
	ab.SetDown(false)
	g.Link(ab.Reverse).SetDown(false)
	agents[agg.ID].SetPortDown(uint16(ab.FromPort), false)
	agents[c0.ID].SetPortDown(uint16(deadCorePort), false)
	waitFor(t, "direct path restored", usesDeadPort)
	settle()
	recoveryMods := totalMods() - afterRepair
	if recoveryMods == 0 || recoveryMods*4 > fullRewrite {
		t.Fatalf("recovery sent %d FLOW_MODs, want a small delta (full rewrite is %d)", recoveryMods, fullRewrite)
	}
}
