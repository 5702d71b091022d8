package controller

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/flowtable"
	"repro/internal/openflow"
	"repro/internal/topo"
	"repro/internal/wire"
)

// manualClock runs timers immediately on a goroutine after a tiny delay,
// standing in for the CM's virtual clock in unit tests. With a ledger,
// a fired callback holds a token until it returns, as the CM's clock
// does, so the ledger reads zero only once the woken app is done.
type manualClock struct {
	mu     sync.Mutex
	now    core.Time
	timers []func()
	fire   bool
	ledger *emu.Ledger
}

func (c *manualClock) Now() core.Time { return c.now }
func (c *manualClock) After(d core.Time, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fire {
		c.run(fn)
		return
	}
	c.timers = append(c.timers, fn)
}

// fireAll runs queued timers and lets future ones run immediately.
func (c *manualClock) fireAll() {
	c.mu.Lock()
	timers := c.timers
	c.timers = nil
	c.mu.Unlock()
	for _, fn := range timers {
		c.run(fn)
	}
}

func (c *manualClock) run(fn func()) {
	if c.ledger == nil {
		go fn()
		return
	}
	c.ledger.Hold()
	go func() {
		defer c.ledger.Release()
		fn()
	}()
}

// tableDP applies flow mods directly into a flowtable and answers stats
// from a netmodel-free stub.
type tableDP struct {
	mu    sync.Mutex
	table *flowtable.Table
	flows []openflow.FlowStatsEntry
}

func (d *tableDP) ApplyFlowMod(fm openflow.FlowMod) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var actions []flowtable.Action
	for _, a := range fm.Actions {
		switch {
		case len(a.Group) > 0:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionSelectGroup, Group: a.Group})
		case a.ToCtrl:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionController})
		default:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionOutput, Port: core.PortID(a.Output)})
		}
	}
	if fm.Command == openflow.FCDeleteStrict {
		d.table.DeleteStrict(fm.Match.ToTable(), fm.Priority)
	} else {
		d.table.Add(flowtable.Entry{Priority: fm.Priority, Match: fm.Match.ToTable(), Actions: actions}, 0)
	}
	return nil
}

func (d *tableDP) FlowStats() []openflow.FlowStatsEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]openflow.FlowStatsEntry(nil), d.flows...)
}

func (d *tableDP) tableLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.table.Len()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// wireSwitch connects one agent to ctl for the given topology node.
func wireSwitch(t *testing.T, ctl *Controller, g *topo.Graph, node *topo.Node) *tableDP {
	t.Helper()
	swEnd, ctlEnd := emu.Pipe()
	dp := &tableDP{table: flowtable.New()}
	var ports []openflow.PhyPort
	for _, p := range node.Ports {
		ports = append(ports, openflow.PhyPort{PortNo: uint16(p.ID), HWAddr: p.MAC})
	}
	agent := openflow.NewAgent(DPIDOf(node.ID), ports, swEnd, dp, nil)
	agent.Start()
	t.Cleanup(agent.Stop)
	if err := ctl.Connect(node.ID, DPIDOf(node.ID), ctlEnd); err != nil {
		t.Fatal(err)
	}
	return dp
}

func TestECMPAppInstallsProactiveRules(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	clk := &manualClock{fire: false}
	ctl := New(g, clk, &ECMPApp{}, t.Logf)
	defer ctl.Stop()

	dps := make(map[string]*tableDP)
	for _, sw := range g.Switches() {
		dps[sw.Name] = wireSwitch(t, ctl, g, sw)
	}
	// Every switch eventually holds one rule per host (2 hosts in k=2).
	for name, dp := range dps {
		dp := dp
		waitFor(t, "rules on "+name, func() bool { return dp.tableLen() == len(g.Hosts()) })
	}
	if ctl.ReadyCount() != len(g.Switches()) {
		t.Fatalf("ready = %d", ctl.ReadyCount())
	}
	// Edge switch must have a select group toward remote hosts when
	// multiple shortest paths exist (k=2 edge has 1 core... with k=2,
	// half=1 so single paths; just assert actions exist).
	edge, _ := g.NodeByName("edge-0-0")
	dp := dps[edge.Name]
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if dp.table.Len() == 0 {
		t.Fatal("edge table empty")
	}
}

func TestReactiveAppPinsPath(t *testing.T) {
	g, err := topo.Star(3, topo.Switch, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	clk := &manualClock{}
	ctl := New(g, clk, &ReactiveApp{}, t.Logf)
	defer ctl.Stop()
	sw, _ := g.NodeByName("s0")
	dp := wireSwitch(t, ctl, g, sw)

	h0, _ := g.NodeByName("h0")
	h1, _ := g.NodeByName("h1")
	ft := core.FiveTuple{Src: h0.IP, Dst: h1.IP, Proto: core.ProtoUDP, SrcPort: 7, DstPort: 8}
	frame, err := wire.BuildFlowFrame(h0.MAC, h1.MAC, ft, nil)
	if err != nil {
		t.Fatal(err)
	}
	handle, ok := ctl.Switch(DPIDOf(sw.ID))
	if !ok {
		t.Fatal("switch missing")
	}
	waitFor(t, "handshake", func() bool { return ctl.ReadyCount() == 1 })
	// Deliver a PACKET_IN through the app directly (transport-level
	// delivery is covered by the agent tests).
	ctl.mu.Lock()
	ctl.app.PacketIn(handle, openflow.PacketIn{InPort: 1, Data: frame})
	ctl.mu.Unlock()
	waitFor(t, "exact rule installed", func() bool { return dp.tableLen() == 1 })
	dp.mu.Lock()
	e, found := dp.table.Lookup(1, ft)
	dp.mu.Unlock()
	if !found || e.Actions[0].Type != flowtable.ActionOutput {
		t.Fatalf("installed entry = %+v found=%v", e, found)
	}
}

// TestReactiveAndHederaPinTheSamePaths: both apps set a punted flow up
// through pinPuntedFlow, so the same punts leave the same exact-match
// rules, in the same order, on every switch.
func TestReactiveAndHederaPinTheSamePaths(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	tables := func(app App) map[string]string {
		ctl := New(g, &manualClock{}, app, t.Logf)
		defer ctl.Stop()
		dps := map[string]*tableDP{}
		for _, sw := range g.Switches() {
			dps[sw.Name] = wireSwitch(t, ctl, g, sw)
		}
		waitFor(t, "all ready", func() bool { return ctl.ReadyCount() == len(dps) })
		want := 0
		for i, src := range hosts {
			dst := hosts[(i+5)%len(hosts)] // same pod and other pods both occur
			ft := core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: core.ProtoUDP, SrcPort: uint16(10000 + i), DstPort: 20000}
			frame, err := wire.BuildFlowFrame(src.MAC, dst.MAC, ft, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctl.mu.Lock()
			edge, _ := ctl.Switch(DPIDOf(src.Ports[0].Peer))
			ctl.app.PacketIn(edge, openflow.PacketIn{InPort: 1, Data: frame})
			ctl.mu.Unlock()
			// One rule per link of the path that leaves a switch: all
			// but the host's own.
			want += len(g.AllShortestPaths(src.ID, dst.ID)[0]) - 1
		}
		waitFor(t, "every hop's rule installed", func() bool {
			n := 0
			for _, dp := range dps {
				n += dp.tableLen()
			}
			return n == want
		})
		out := map[string]string{}
		for name, dp := range dps {
			dp.mu.Lock()
			out[name] = dp.table.String()
			dp.mu.Unlock()
		}
		return out
	}
	reactive, hedera := tables(&ReactiveApp{}), tables(&HederaApp{})
	for name, want := range reactive {
		if got := hedera[name]; got != want {
			t.Errorf("%s: hedera installed\n%swhere reactive installed\n%s", name, got, want)
		}
	}
}

func TestHederaAppPollsAndSchedules(t *testing.T) {
	// The edge switches report a byte count for one pinned flow; a
	// completed poll round must have run the scheduler, which re-places
	// the flow.
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	clk := &manualClock{}
	app := &HederaApp{PollInterval: core.Second}
	ctl := New(g, clk, app, t.Logf)
	defer ctl.Stop()

	dps := map[core.NodeID]*tableDP{}
	for _, sw := range g.Switches() {
		dps[sw.ID] = wireSwitch(t, ctl, g, sw)
	}
	waitFor(t, "all ready", func() bool { return ctl.ReadyCount() == len(g.Switches()) })

	// Pin one inter-pod flow via a packet-in.
	src, _ := g.NodeByName("host-0-0-0")
	dst, _ := g.NodeByName("host-2-0-0")
	ft := core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: core.ProtoUDP, SrcPort: 1, DstPort: 2}
	frame, _ := wire.BuildFlowFrame(src.MAC, dst.MAC, ft, nil)
	edge, _ := g.NodeByName("edge-0-0")
	handle, _ := ctl.Switch(DPIDOf(edge.ID))
	ctl.mu.Lock()
	ctl.app.PacketIn(handle, openflow.PacketIn{InPort: 1, Data: frame})
	pinned := app.installed[ft]
	ctl.mu.Unlock()
	// The hash places this tuple on the last of its four shortest paths;
	// Global First Fit, on an empty fabric, takes the first that fits.
	paths := g.AllShortestPaths(src.ID, dst.ID)
	if len(paths) != 4 || !slices.Equal(pinned, paths[3]) {
		t.Fatalf("pinned %v, want the hash path %v of %d", pinned, paths[3], len(paths))
	}

	// Feed growing byte counts through the edge's flow stats and fire
	// the poll timer.
	for id, dp := range dps {
		if n := g.Node(id); n.Layer == topo.LayerEdge {
			dp.mu.Lock()
			dp.flows = []openflow.FlowStatsEntry{{
				Match: openflow.TupleToExactMatch(ft), Priority: 200, ByteCount: 1_000_000,
			}}
			dp.mu.Unlock()
		}
	}
	clk.mu.Lock()
	clk.fire = true // subsequent After() fire immediately
	clk.mu.Unlock()
	clk.fireAll()
	waitFor(t, "poll rounds", func() bool { return app.Rounds() >= 1 })
	ctl.mu.Lock()
	placed := app.installed[ft]
	ctl.mu.Unlock()
	if !slices.Equal(placed, paths[0]) {
		t.Fatalf("after a round the flow is on %v, want Global First Fit's %v", placed, paths[0])
	}
}

func TestControllerDuplicateDPID(t *testing.T) {
	g, _ := topo.Star(2, topo.Switch, core.Gbps, 0)
	ctl := New(g, &manualClock{}, &ReactiveApp{}, nil)
	defer ctl.Stop()
	a1, _ := emu.Pipe()
	if err := ctl.Connect(0, 1, a1); err != nil {
		t.Fatal(err)
	}
	a2, _ := emu.Pipe()
	if err := ctl.Connect(0, 1, a2); err == nil {
		t.Fatal("duplicate dpid accepted")
	}
	ctl.Stop()
	a3, _ := emu.Pipe()
	if err := ctl.Connect(0, 2, a3); err == nil {
		t.Fatal("connect after stop accepted")
	}
}

func TestNextHopPortsDeterministic(t *testing.T) {
	g, _ := topo.FatTree(topo.FatTreeOpts{K: 4})
	edge, _ := g.NodeByName("edge-0-0")
	remote, _ := g.NodeByName("host-3-1-1")
	a := g.NextHopPorts(edge.ID)[remote.ID]
	b := g.NextHopPorts(edge.ID)[remote.ID]
	if len(a) != 2 {
		t.Fatalf("uplink ports = %v, want the 2 agg-facing ports", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic port order")
		}
	}
	// Local host: single port.
	local, _ := g.NodeByName("host-0-0-0")
	if p := g.NextHopPorts(edge.ID)[local.ID]; len(p) != 1 {
		t.Fatalf("local ports = %v", p)
	}
}

func TestAppNames(t *testing.T) {
	if (&ECMPApp{}).Name() != "ecmp5" || (&HederaApp{}).Name() != "hedera" || (&ReactiveApp{}).Name() != "reactive" {
		t.Fatal("app names wrong")
	}
}

func TestPortStatusDrivesECMPRepair(t *testing.T) {
	// Failure injection seam: a PORT_STATUS from the switch adjacent to a
	// dead link must make the ECMP app recompute that switch's table —
	// destinations that lost every live path get their rule deleted, and
	// the link-up PORT_STATUS restores it.
	g, err := topo.FatTree(topo.FatTreeOpts{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// fire:true — the debounced PORT_STATUS repair schedules through the
	// clock and must run.
	ctl := New(g, &manualClock{fire: true}, &ECMPApp{}, t.Logf)
	defer ctl.Stop()

	agg, _ := g.NodeByName("agg-0-0")
	c0, _ := g.NodeByName("core-0-0")
	swEnd, ctlEnd := emu.Pipe()
	dp := &tableDP{table: flowtable.New()}
	var ports []openflow.PhyPort
	for _, p := range agg.Ports {
		ports = append(ports, openflow.PhyPort{PortNo: uint16(p.ID), HWAddr: p.MAC})
	}
	agent := openflow.NewAgent(DPIDOf(agg.ID), ports, swEnd, dp, nil)
	agent.Start()
	t.Cleanup(agent.Stop)
	if err := ctl.Connect(agg.ID, DPIDOf(agg.ID), ctlEnd); err != nil {
		t.Fatal(err)
	}
	// k=2: agg-0-0 reaches host-0-0-0 via its edge and host-1-0-0 via the
	// core — two proactive rules.
	waitFor(t, "proactive install", func() bool { return dp.tableLen() == 2 })

	// Fail the agg-core cable: topology first (as netmodel.SetCableState
	// would), then the carrier notification.
	ab := g.CableBetween(agg.ID, c0.ID)
	ab.SetDown(true)
	g.Link(ab.Reverse).SetDown(true)
	if !agent.SetPortDown(uint16(ab.FromPort), true) {
		t.Fatal("agent does not know the failed port")
	}
	waitFor(t, "dead destination rule deleted", func() bool { return dp.tableLen() == 1 })
	if ctl.Stats.PortStatusesRecv.Load() == 0 {
		t.Fatal("PORT_STATUS not counted")
	}

	// Repair: link back up, rule reinstalled.
	ab.SetDown(false)
	g.Link(ab.Reverse).SetDown(false)
	agent.SetPortDown(uint16(ab.FromPort), false)
	waitFor(t, "rule reinstalled after link up", func() bool { return dp.tableLen() == 2 })
}

// overlapApp counts its callbacks that are running at once; each sleeps
// a millisecond, so callbacks that can overlap do.
type overlapApp struct {
	ctx           *Context
	running, peak atomic.Int32
	calls         atomic.Int32
}

func (a *overlapApp) Name() string      { return "overlap" }
func (a *overlapApp) Init(ctx *Context) { a.ctx = ctx }
func (a *overlapApp) step() {
	n := a.running.Add(1)
	for p := a.peak.Load(); n > p; p = a.peak.Load() {
		if a.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	a.running.Add(-1)
	a.calls.Add(1)
}
func (a *overlapApp) SwitchReady(*SwitchHandle) {
	a.step()
	a.ctx.Clock.After(core.Millisecond, a.step)
}
func (a *overlapApp) PacketIn(*SwitchHandle, openflow.PacketIn)     { a.step() }
func (a *overlapApp) PortStatus(*SwitchHandle, openflow.PortStatus) { a.step() }

// TestAppCallbacksNeverOverlap: with all 20 switches of a k=4 fat tree
// wired at once, each handing the controller a PACKET_IN and a
// PORT_STATUS right after its handshake and arming a timer from
// SwitchReady, no two of the app's callbacks run at the same time.
func TestAppCallbacksNeverOverlap(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	app := &overlapApp{}
	ctl := New(g, &manualClock{fire: true}, app, t.Logf)
	defer ctl.Stop()
	for _, sw := range g.Switches() {
		var ports []openflow.PhyPort
		for _, p := range sw.Ports {
			ports = append(ports, openflow.PhyPort{PortNo: uint16(p.ID), HWAddr: p.MAC})
		}
		swEnd, ctlEnd := emu.Pipe()
		agent := openflow.NewAgent(DPIDOf(sw.ID), ports, swEnd, &tableDP{table: flowtable.New()}, nil)
		// Both are held until the agent's FEATURES_REPLY.
		agent.SendPacketIn(ports[0].PortNo, []byte("frame"))
		agent.SetPortDown(ports[0].PortNo, true)
		agent.Start()
		t.Cleanup(agent.Stop)
		if err := ctl.Connect(sw.ID, DPIDOf(sw.ID), ctlEnd); err != nil {
			t.Fatal(err)
		}
	}
	want := int32(4 * len(g.Switches())) // ready, timer, packet-in, port-status
	waitFor(t, "every callback", func() bool { return app.calls.Load() == want })
	if peak := app.peak.Load(); peak != 1 {
		t.Fatalf("%d app callbacks ran at once, want 1", peak)
	}
}
