package main

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/flowtable"
	"repro/internal/fluid"
	"repro/internal/netmodel"
	"repro/internal/openflow"
	"repro/internal/topo"
	"repro/internal/wire"
)

// sdnProbes are the layers sdn-install leans on: path computation, the
// OpenFlow codec, the linear flow table, PACKET_IN framing, the controller
// with its agents but without the simulator, and the re-path pass.
var sdnProbes = []probe{
	{"topo.fattree", probeFatTree},
	{"openflow.flowmod", probeFlowModCodec},
	{"flowtable", probeFlowTable},
	{"wire.flow_frame", probeFlowFrame},
	{"controller.install", probeControllerInstall},
	{"netmodel.flush_reroutes", probeFlushReroutes},
}

func probeFatTree(p *probeCtx) error {
	var g *topo.Graph
	var err error
	build := p.perCall(func() { g, err = topo.FatTree(topo.FatTreeOpts{K: p.sz.sdnK}) })
	if err != nil {
		return err
	}
	p.set("topo.fattree_build_ms", ms(build))

	pairs := hostPairs(g, p.seed, p.scaled(2000))
	start := time.Now()
	for _, pr := range pairs {
		sink = g.AllShortestPaths(pr[0].ID, pr[1].ID)
	}
	p.set("topo.all_shortest_paths_us", us(time.Since(start)/time.Duration(len(pairs))))
	return nil
}

// ecmpFlowMod is the FLOW_MOD ecmp5 installs per destination host: a /32
// match and a select group over the k/2 uplinks.
func ecmpFlowMod(dst netip.Addr, k int) openflow.FlowMod {
	group := make([]core.PortID, k/2)
	for i := range group {
		group[i] = core.PortID(k/2 + 1 + i)
	}
	return openflow.FlowMod{
		Match:    openflow.MatchFromTable(flowtable.Match{DstBits: 32, Dst: dst}),
		Command:  openflow.FCAdd,
		Priority: 100,
		Actions:  []openflow.Action{{Group: group}},
	}
}

func probeFlowModCodec(p *probeCtx) error {
	fm := ecmpFlowMod(netip.MustParseAddr("10.0.0.2"), p.sz.sdnK)
	var buf []byte
	p.set("openflow.flowmod_encode_ns", ns(p.perCall(func() { buf = openflow.EncodeFlowMod(7, fm) })))
	var err error
	p.set("openflow.flowmod_decode_ns", ns(p.perCall(func() { sink, err = openflow.DecodeFlowMod(buf) })))
	return err
}

// tableEntries is an edge switch's share of rules in the probed flow table.
const tableEntries = 500

func probeFlowTable(p *probeCtx) error {
	entry := func(i int) flowtable.Entry {
		return flowtable.Entry{
			Priority: 100,
			Match:    flowtable.Match{DstBits: 32, Dst: core.IPv4FromUint32(0x0A000000 + uint32(i))},
			Actions:  []flowtable.Action{{Type: flowtable.ActionOutput, Port: core.PortID(1 + i%4)}},
		}
	}
	var t *flowtable.Table
	fill := p.perCall(func() {
		t = flowtable.New()
		for i := 0; i < tableEntries; i++ {
			t.Add(entry(i), 0)
		}
	})
	p.set("flowtable.add_ns", ns(fill/tableEntries))

	src := netip.MustParseAddr("10.9.9.9")
	i := 0
	lookup := func(base uint32) func() {
		return func() {
			i++
			ft := core.FiveTuple{Src: src, Dst: core.IPv4FromUint32(base + uint32(i%tableEntries)), Proto: core.ProtoUDP, SrcPort: 1, DstPort: 2}
			sink, _ = t.Lookup(1, ft)
		}
	}
	p.set("flowtable.lookup_hit_ns", ns(p.perCall(lookup(0x0A000000))))
	p.set("flowtable.lookup_miss_ns", ns(p.perCall(lookup(0x0B000000))))
	return nil
}

func probeFlowFrame(p *probeCtx) error {
	ft := core.FiveTuple{Src: netip.MustParseAddr("10.0.0.2"), Dst: netip.MustParseAddr("10.3.1.2"),
		Proto: core.ProtoUDP, SrcPort: 10000, DstPort: 20000}
	src, dst := core.MACFromUint64(1), core.MACFromUint64(2)
	var frame []byte
	var err error
	p.set("wire.flow_frame_build_ns", ns(p.perCall(func() { frame, err = wire.BuildFlowFrame(src, dst, ft, nil) })))
	if err != nil {
		return err
	}
	p.set("wire.flow_frame_parse_ns", ns(p.perCall(func() { sink, err = wire.ParseFlowFrame(frame) })))
	return err
}

// countingDataPlane stands in for the simulated switch behind an OpenFlow
// agent: it counts the FLOW_MODs that reach it and nothing else.
type countingDataPlane struct {
	applied *atomic.Int64
	want    int64
	done    chan struct{} // closed by the call that applies the want-th FLOW_MOD
}

func (d countingDataPlane) ApplyFlowMod(openflow.FlowMod) error {
	if d.applied.Add(1) == d.want {
		close(d.done)
	}
	return nil
}
func (countingDataPlane) PortStats() []openflow.PortStatsEntry { return nil }
func (countingDataPlane) FlowStats() []openflow.FlowStatsEntry { return nil }
func (countingDataPlane) PacketOut(openflow.PacketOut)         {}

// wallClock gives the controller a clock without a simulation engine.
type wallClock struct{ start time.Time }

func (c wallClock) Now() core.Time { return core.FromDuration(time.Since(c.start)) }
func (c wallClock) After(d core.Time, fn func()) {
	time.AfterFunc(d.Duration(), fn)
}

// probeControllerInstall is sdn-install's control plane alone: the
// controller running ecmp5, connected over emu pipes to one OpenFlow agent
// per switch, until every switch holds a rule for every host. No sim, no
// netmodel, no fluid.
func probeControllerInstall(p *probeCtx) error {
	g, err := topo.FatTree(topo.FatTreeOpts{K: p.sz.sdnK})
	if err != nil {
		return err
	}
	switches := g.Switches()
	dp := countingDataPlane{
		applied: new(atomic.Int64), want: int64(len(switches) * len(g.Hosts())), done: make(chan struct{}),
	}
	start := time.Now()
	ctl := controller.New(g, wallClock{start}, &controller.ECMPApp{}, nil)
	defer ctl.Stop()
	for _, sw := range switches {
		var ports []openflow.PhyPort
		for _, port := range sw.Ports {
			ports = append(ports, openflow.PhyPort{PortNo: uint16(port.ID), HWAddr: port.MAC, Name: fmt.Sprintf("%s-p%d", sw.Name, port.ID)})
		}
		swEnd, ctlEnd := emu.Pipe()
		agent := openflow.NewAgent(controller.DPIDOf(sw.ID), ports, swEnd, dp, nil)
		agent.Start()
		defer agent.Stop()
		if err := ctl.Connect(sw.ID, controller.DPIDOf(sw.ID), ctlEnd); err != nil {
			return err
		}
	}
	select {
	case <-dp.done:
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("%d of %d FLOW_MODs applied after 2m", dp.applied.Load(), dp.want)
	}
	took := time.Since(start)
	p.set("controller.install_s", took.Seconds())
	p.set("controller.flow_mods_per_s", float64(dp.want)/took.Seconds())
	return nil
}

// probeFlushReroutes applies a converged ecmp5 rule set to a fresh data
// plane carrying one pending flow per host, then times the coalesced
// re-path pass that brings them all up.
func probeFlushReroutes(p *probeCtx) error {
	d, err := medianOf(3, func() (time.Duration, error) {
		g, err := topo.FatTree(topo.FatTreeOpts{K: p.sz.sdnK})
		if err != nil {
			return 0, err
		}
		n := netmodel.New(g)
		n.AutoReroute = false
		for i, pr := range hostPairs(g, p.seed, len(g.Hosts())) {
			n.StartFlow(&fluid.Flow{ID: fluid.FlowID(i + 1), Tuple: tupleOf(pr[0], pr[1], i),
				Src: pr[0].ID, Dst: pr[1].ID, Demand: core.Gbps}, 0)
		}
		shortestNextHops(g, func(node, host *topo.Node, ports []core.PortID) {
			action := flowtable.Action{Type: flowtable.ActionSelectGroup, Group: ports}
			if len(ports) == 1 {
				action = flowtable.Action{Type: flowtable.ActionOutput, Port: ports[0]}
			}
			mod := netmodel.FlowMod{Kind: netmodel.FlowModAdd, Entry: flowtable.Entry{
				Priority: 100, Match: flowtable.Match{DstBits: 32, Dst: host.IP}, Actions: []flowtable.Action{action}}}
			if e := n.ApplyFlowMod(node.ID, mod, 0); e != nil {
				err = e
			}
		})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		n.FlushReroutes(core.Millisecond)
		took := time.Since(start)
		if rx := n.Flows.AggregateRx(); rx <= 0 {
			return 0, fmt.Errorf("no flow came up after the flush")
		}
		return took, nil
	})
	p.set("netmodel.flush_reroutes_ms", ms(d))
	return err
}
