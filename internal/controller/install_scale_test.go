package controller

import (
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/flowtable"
	"repro/internal/openflow"
	"repro/internal/topo"
)

// TestECMPInstallDeliversEveryFlowMod is the fattree:16 proactive install
// without the simulator: 320 agents over emu pipes, each due one rule per
// host. The controller now emits a switch's 1024 FLOW_MODs back to back,
// faster than the channel's writer drains them; the bounded send queue
// this guards against dropped every FLOW_MOD past its 512 slots while
// FlowModsSent counted them as sent.
func TestECMPInstallDeliversEveryFlowMod(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(g, &manualClock{fire: true}, &ECMPApp{}, t.Logf)
	defer ctl.Stop()

	switches, hosts := g.Switches(), int64(len(g.Hosts()))
	agents := make([]*openflow.Agent, len(switches))
	dps := make([]*countDP, len(switches))
	for i, sw := range switches {
		swEnd, ctlEnd := emu.Pipe()
		var ports []openflow.PhyPort
		for _, p := range sw.Ports {
			ports = append(ports, openflow.PhyPort{PortNo: uint16(p.ID), HWAddr: p.MAC})
		}
		dps[i] = &countDP{tableDP: &tableDP{table: flowtable.New()}}
		agents[i] = openflow.NewAgent(DPIDOf(sw.ID), ports, swEnd, dps[i], nil)
		agents[i].Start()
		t.Cleanup(agents[i].Stop)
		if err := ctl.Connect(sw.ID, DPIDOf(sw.ID), ctlEnd); err != nil {
			t.Fatal(err)
		}
	}

	want := int64(len(switches)) * hosts
	received := func() (n int64) {
		for _, a := range agents {
			n += int64(a.Stats.FlowModsRecv.Load())
		}
		return n
	}
	// The controller finishing is the event to wait for; whatever was
	// sent then has at most the pipes and the agents' read loops ahead
	// of it. A lossy queue leaves received() short for good.
	// (Well under a second of work; the limit is for a loaded -race run.)
	deadline := time.Now().Add(time.Minute)
	for ctl.Stats.FlowModsSent.Load() != want || received() != want {
		if time.Now().After(deadline) {
			t.Fatalf("controller sent %d, agents received %d of %d FLOW_MODs", ctl.Stats.FlowModsSent.Load(), received(), want)
		}
		time.Sleep(time.Millisecond)
	}
	for i, sw := range switches {
		if got := int64(agents[i].Stats.FlowModsRecv.Load()); got != hosts {
			t.Errorf("%s received %d FLOW_MODs, want %d", sw.Name, got, hosts)
		}
		if applied, rules := dps[i].mods.Load(), dps[i].tableLen(); applied != hosts || int64(rules) != hosts {
			t.Errorf("%s applied %d FLOW_MODs and holds %d rules, want %d of each", sw.Name, applied, rules, hosts)
		}
	}
	if sent := ctl.Stats.FlowModsSent.Load(); sent != want {
		t.Errorf("controller counts %d FLOW_MODs sent, want %d", sent, want)
	}
}
