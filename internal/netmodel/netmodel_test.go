package netmodel

import (
	"net/netip"
	"testing"

	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/flowtable"
	"repro/internal/fluid"
	"repro/internal/topo"
)

// starNet builds a 4-host star with an OpenFlow switch center.
func starNet(t *testing.T) (*Network, *topo.Graph) {
	t.Helper()
	g, err := topo.Star(4, topo.Switch, 1*core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(g), g
}

// routerNet builds the two-router Figure 1 topology.
func routerNet(t *testing.T) (*Network, *topo.Graph) {
	t.Helper()
	g, err := topo.TwoRouters(1*core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(g), g
}

func hostTuple(g *topo.Graph, src, dst string) (core.FiveTuple, core.NodeID, core.NodeID) {
	s, _ := g.NodeByName(src)
	d, _ := g.NodeByName(dst)
	return core.FiveTuple{Src: s.IP, Dst: d.IP, Proto: core.ProtoUDP, SrcPort: 5000, DstPort: 5001}, s.ID, d.ID
}

func TestSwitchMissPuntsPacketIn(t *testing.T) {
	n, g := starNet(t)
	var punts []PacketIn
	n.OnPacketIn = func(p PacketIn) { punts = append(punts, p) }

	ft, src, dst := hostTuple(g, "h0", "h1")
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)

	if f.State != fluid.Pending {
		t.Fatalf("flow state = %v, want pending", f.State)
	}
	if len(punts) != 1 {
		t.Fatalf("punts = %d, want 1", len(punts))
	}
	sw, _ := g.NodeByName("s0")
	if punts[0].Node != sw.ID || punts[0].Tuple != ft {
		t.Fatalf("punt = %+v", punts[0])
	}

	// Re-routing without new state must not duplicate the punt.
	n.ReRouteAll(core.Second)
	if len(punts) != 1 {
		t.Fatalf("duplicate punt: %d", len(punts))
	}
}

func TestFlowModActivatesPendingFlow(t *testing.T) {
	n, g := starNet(t)
	n.OnPacketIn = func(PacketIn) {}
	ft, src, dst := hostTuple(g, "h0", "h1")
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)

	sw, _ := g.NodeByName("s0")
	h1, _ := g.NodeByName("h1")
	// Find the switch port facing h1.
	var egress core.PortID
	for _, p := range sw.Ports {
		if p.Peer == h1.ID {
			egress = p.ID
		}
	}
	err := n.ApplyFlowMod(sw.ID, FlowMod{Kind: FlowModAdd, Entry: flowtable.Entry{
		Priority: 10,
		Match:    flowtable.ExactFlowMatch(ft),
		Actions:  []flowtable.Action{{Type: flowtable.ActionOutput, Port: egress}},
	}}, core.Second)
	if err != nil {
		t.Fatal(err)
	}
	got := flowOf(t, n, 1)
	if got.State != fluid.Active {
		t.Fatalf("state = %v after rule install", got.State)
	}
	if got.Rate != core.Gbps {
		t.Fatalf("rate = %v", got.Rate)
	}
	if path := n.Flows.AppendPath(nil, 1); len(path) != 2 {
		t.Fatalf("path = %v", path)
	}
}

func TestRouterForwardingWithFIB(t *testing.T) {
	n, g := routerNet(t)
	ft, src, dst := hostTuple(g, "h1", "h2")
	r1, _ := g.NodeByName("r1")
	r2, _ := g.NodeByName("r2")
	h2, _ := g.NodeByName("h2")

	// r1: route 10.0.2.0/24 via its r2-facing port.
	var r1ToR2, r2ToH2 core.PortID
	for _, p := range r1.Ports {
		if p.Peer == r2.ID {
			r1ToR2 = p.ID
		}
	}
	for _, p := range r2.Ports {
		if p.Peer == h2.ID {
			r2ToH2 = p.ID
		}
	}
	must(t, n.InstallRoute(r1.ID, fib.Route{
		Prefix:   netip.MustParsePrefix("10.0.2.0/24"),
		NextHops: []fib.NextHop{{Port: r1ToR2, Via: netip.MustParseAddr("172.16.0.1")}},
	}, 0))
	must(t, n.InstallRoute(r2.ID, fib.Route{
		Prefix:   netip.MustParsePrefix("10.0.2.0/24"),
		NextHops: []fib.NextHop{{Port: r2ToH2, Via: h2.IP}},
	}, 0))

	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: 300 * core.Mbps}
	n.StartFlow(f, 0)
	if got := flowOf(t, n, 1); got.State != fluid.Active || got.Rate != 300*core.Mbps {
		t.Fatalf("flow = state %v rate %v", got.State, got.Rate)
	}
	if len(f.Path) != 3 {
		t.Fatalf("path length = %d, want 3 (h1->r1->r2->h2)", len(f.Path))
	}
}

func TestRouterMissDrops(t *testing.T) {
	n, g := routerNet(t)
	ft, src, dst := hostTuple(g, "h1", "h2")
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)
	if f.State != fluid.Pending {
		t.Fatalf("unrouted flow state = %v", f.State)
	}
	if n.Drops() == 0 {
		t.Fatal("drop not counted")
	}
}

func TestWithdrawRouteBlackholes(t *testing.T) {
	n, g := routerNet(t)
	ft, src, dst := hostTuple(g, "h1", "h2")
	r1, _ := g.NodeByName("r1")
	r2, _ := g.NodeByName("r2")
	h2, _ := g.NodeByName("h2")
	var r1ToR2, r2ToH2 core.PortID
	for _, p := range r1.Ports {
		if p.Peer == r2.ID {
			r1ToR2 = p.ID
		}
	}
	for _, p := range r2.Ports {
		if p.Peer == h2.ID {
			r2ToH2 = p.ID
		}
	}
	route := fib.Route{Prefix: netip.MustParsePrefix("10.0.2.0/24"),
		NextHops: []fib.NextHop{{Port: r1ToR2, Via: netip.MustParseAddr("172.16.0.1")}}}
	must(t, n.InstallRoute(r1.ID, route, 0))
	must(t, n.InstallRoute(r2.ID, fib.Route{Prefix: netip.MustParsePrefix("10.0.2.0/24"),
		NextHops: []fib.NextHop{{Port: r2ToH2, Via: h2.IP}}}, 0))

	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)
	if f.State != fluid.Active {
		t.Fatal("flow not active")
	}
	must(t, n.WithdrawRoute(r1.ID, route, core.Second))
	if got := flowOf(t, n, 1); got.State != fluid.Pending || got.Rate != 0 {
		t.Fatalf("after withdraw: state=%v rate=%v", got.State, got.Rate)
	}
}

func TestSelectGroupECMPSpreads(t *testing.T) {
	// A diamond: h0 - s0 - {s1,s2} - s3 - h1, with a select group on s0.
	g := topo.New()
	s0 := g.AddSwitch("s0")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	s3 := g.AddSwitch("s3")
	h0 := g.AddHost("h0")
	h0.IP = netip.MustParseAddr("10.0.0.1")
	h1 := g.AddHost("h1")
	h1.IP = netip.MustParseAddr("10.0.1.1")
	g.Connect(h0, s0, core.Gbps, 0)
	g.Connect(s0, s1, core.Gbps, 0)
	g.Connect(s0, s2, core.Gbps, 0)
	g.Connect(s1, s3, core.Gbps, 0)
	g.Connect(s2, s3, core.Gbps, 0)
	g.Connect(s3, h1, core.Gbps, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := New(g)

	// s0: group over its two uplinks; s1, s2, s3: forward toward h1.
	port := func(from, to *topo.Node) core.PortID {
		for _, p := range from.Ports {
			if p.Peer == to.ID {
				return p.ID
			}
		}
		t.Fatalf("no port %s->%s", from.Name, to.Name)
		return 0
	}
	n.Table(s0.ID).Add(flowtable.Entry{Priority: 1, Match: flowtable.MatchAll(),
		Actions: []flowtable.Action{{Type: flowtable.ActionSelectGroup, Group: []core.PortID{port(s0, s1), port(s0, s2)}}}}, 0)
	n.Table(s1.ID).Add(flowtable.Entry{Priority: 1, Match: flowtable.MatchAll(),
		Actions: []flowtable.Action{{Type: flowtable.ActionOutput, Port: port(s1, s3)}}}, 0)
	n.Table(s2.ID).Add(flowtable.Entry{Priority: 1, Match: flowtable.MatchAll(),
		Actions: []flowtable.Action{{Type: flowtable.ActionOutput, Port: port(s2, s3)}}}, 0)
	n.Table(s3.ID).Add(flowtable.Entry{Priority: 1, Match: flowtable.MatchAll(),
		Actions: []flowtable.Action{{Type: flowtable.ActionOutput, Port: port(s3, h1)}}}, 0)

	// Many flows with varying ports: both branches must see traffic.
	viaS1, viaS2 := 0, 0
	for i := 0; i < 64; i++ {
		ft := core.FiveTuple{Src: h0.IP, Dst: h1.IP, Proto: core.ProtoUDP,
			SrcPort: uint16(10000 + i), DstPort: 5001}
		f := &fluid.Flow{ID: fluid.FlowID(i + 1), Tuple: ft, Src: h0.ID, Dst: h1.ID, Demand: core.Mbps}
		n.StartFlow(f, 0)
		if f.State != fluid.Active {
			t.Fatalf("flow %d not active", i)
		}
		for _, lid := range f.Path {
			l := g.Link(lid)
			if l.From == s0.ID && l.To == s1.ID {
				viaS1++
			}
			if l.From == s0.ID && l.To == s2.ID {
				viaS2++
			}
		}
	}
	if viaS1 == 0 || viaS2 == 0 {
		t.Fatalf("select group did not spread: s1=%d s2=%d", viaS1, viaS2)
	}
	if viaS1+viaS2 != 64 {
		t.Fatalf("flows lost: %d", viaS1+viaS2)
	}
}

func TestForwardingLoopDetected(t *testing.T) {
	// Two switches pointing at each other.
	g := topo.New()
	s0 := g.AddSwitch("s0")
	s1 := g.AddSwitch("s1")
	h0 := g.AddHost("h0")
	h0.IP = netip.MustParseAddr("10.0.0.1")
	g.Connect(h0, s0, core.Gbps, 0)
	g.Connect(s0, s1, core.Gbps, 0)
	n := New(g)
	n.Table(s0.ID).Add(flowtable.Entry{Priority: 1, Match: flowtable.MatchAll(),
		Actions: []flowtable.Action{{Type: flowtable.ActionOutput, Port: 2}}}, 0)
	n.Table(s1.ID).Add(flowtable.Entry{Priority: 1, Match: flowtable.MatchAll(),
		Actions: []flowtable.Action{{Type: flowtable.ActionOutput, Port: 1}}}, 0)

	ft := core.FiveTuple{Src: h0.IP, Dst: netip.MustParseAddr("10.0.9.9"), Proto: core.ProtoUDP, SrcPort: 1, DstPort: 2}
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: h0.ID, Dst: core.NodeNone, Demand: core.Gbps}
	n.StartFlow(f, 0)
	if f.State != fluid.Pending {
		t.Fatalf("looping flow state = %v", f.State)
	}
	if n.Drops() == 0 {
		t.Fatal("loop not counted as drop")
	}
}

func TestFlowStats(t *testing.T) {
	n, g := starNet(t)
	sw, _ := g.NodeByName("s0")
	ft, src, dst := hostTuple(g, "h0", "h1")
	h1, _ := g.NodeByName("h1")
	var egress core.PortID
	for _, p := range sw.Ports {
		if p.Peer == h1.ID {
			egress = p.ID
		}
	}
	n.Table(sw.ID).Add(flowtable.Entry{Priority: 10, Match: flowtable.ExactFlowMatch(ft),
		Actions: []flowtable.Action{{Type: flowtable.ActionOutput, Port: egress}}}, 0)
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)

	stats := n.FlowStatsOf(sw.ID, core.Second)
	if len(stats) != 1 {
		t.Fatalf("flow stats = %+v", stats)
	}
	if stats[0].Bytes != 125_000_000 {
		t.Fatalf("entry bytes = %d, want 125MB", stats[0].Bytes)
	}
	if n.FlowStatsOf(core.NodeID(99), 0) != nil {
		t.Fatal("flow stats for missing node")
	}
}

// TestEntryWithoutActionsDrops: an entry with an empty action list drops
// what it matches; the flow stays pending and is not punted.
func TestEntryWithoutActionsDrops(t *testing.T) {
	n, g := starNet(t)
	punts := 0
	n.OnPacketIn = func(PacketIn) { punts++ }
	sw, _ := g.NodeByName("s0")
	n.Table(sw.ID).Add(flowtable.Entry{Priority: 1, Match: flowtable.MatchAll()}, 0)
	ft, src, dst := hostTuple(g, "h0", "h1")
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)
	if f.State != fluid.Pending || punts != 0 {
		t.Fatalf("state %v, %d punts; want pending, 0 punts", f.State, punts)
	}
}

// TestPuntsDedupPerNodeAndClearPerTuple: a tuple punts once per switch it
// misses at, another tuple's punts are its own, and routing a tuple forgets
// every switch that punted it while leaving the other tuple's record alone.
func TestPuntsDedupPerNodeAndClearPerTuple(t *testing.T) {
	g, err := topo.Linear(2, topo.Switch, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	var punts []PacketIn
	n.OnPacketIn = func(p PacketIn) { punts = append(punts, p) }
	s0, s1 := g.Switches()[0], g.Switches()[1]
	h0, h1 := g.Hosts()[0], g.Hosts()[1]
	fwd := core.FiveTuple{Src: h0.IP, Dst: h1.IP, Proto: core.ProtoUDP, SrcPort: 1, DstPort: 2}
	rev := core.FiveTuple{Src: h1.IP, Dst: h0.IP, Proto: core.ProtoUDP, SrcPort: 2, DstPort: 1}
	n.StartFlow(&fluid.Flow{ID: 1, Tuple: fwd, Src: h0.ID, Dst: h1.ID, Demand: core.Gbps}, 0)
	n.StartFlow(&fluid.Flow{ID: 2, Tuple: rev, Src: h1.ID, Dst: h0.ID, Demand: core.Gbps}, 0)
	if len(punts) != 2 || punts[0].Node != s0.ID || punts[1].Node != s1.ID {
		t.Fatalf("punts = %+v, want fwd at %v and rev at %v", punts, s0.ID, s1.ID)
	}
	// fwd gets past s0 and misses at s1: a second punt of the same tuple,
	// at another node; rev stays deduplicated.
	toward := func(sw *topo.Node, dst *topo.Node) {
		t.Helper()
		port := g.NextHopPorts(sw.ID)[dst.ID][0]
		mod := FlowMod{Kind: FlowModAdd, Entry: flowtable.Entry{Priority: 100,
			Match:   flowtable.Match{DstBits: 32, Dst: dst.IP},
			Actions: []flowtable.Action{{Type: flowtable.ActionOutput, Port: port}}}}
		if err := n.ApplyFlowMod(sw.ID, mod, 0); err != nil {
			t.Fatal(err)
		}
	}
	toward(s0, h1)
	if len(punts) != 3 || punts[2].Node != s1.ID || punts[2].Tuple != fwd {
		t.Fatalf("punts = %+v, want a third: fwd at %v", punts, s1.ID)
	}
	// fwd routes: both of its punt records go, rev's stays.
	toward(s1, h1)
	if f, _ := n.Flows.Flow(1); f.State != fluid.Active {
		t.Fatalf("fwd state = %v, want active", f.State)
	}
	if len(punts) != 3 {
		t.Fatalf("punts = %+v, want no new one", punts)
	}
	if _, ok := n.punted[fwd]; ok || len(n.punted[rev]) != 1 {
		t.Fatalf("punted = %v, want only rev's record", n.punted)
	}
}

func TestStopFlowClearsPunt(t *testing.T) {
	n, g := starNet(t)
	punts := 0
	n.OnPacketIn = func(PacketIn) { punts++ }
	ft, src, dst := hostTuple(g, "h0", "h1")
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)
	if punts != 1 {
		t.Fatal("no punt")
	}
	n.StopFlow(1, core.Second)
	// Same tuple, new flow: punts again because the old punt was cleared.
	f2 := &fluid.Flow{ID: 2, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f2, 2*core.Second)
	if punts != 2 {
		t.Fatalf("punts = %d, want 2", punts)
	}
}

func TestInstallRouteOnNonRouterErrors(t *testing.T) {
	n, g := starNet(t)
	sw, _ := g.NodeByName("s0")
	err := n.InstallRoute(sw.ID, fib.Route{}, 0)
	if err == nil {
		t.Fatal("InstallRoute on switch succeeded")
	}
	if err := n.WithdrawRoute(sw.ID, fib.Route{}, 0); err == nil {
		t.Fatal("WithdrawRoute on switch succeeded")
	}
	r, _ := topo.TwoRouters(core.Gbps, 0)
	nr := New(r)
	r1, _ := r.NodeByName("r1")
	if err := nr.ApplyFlowMod(r1.ID, FlowMod{}, 0); err == nil {
		t.Fatal("ApplyFlowMod on router succeeded")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// flowOf reads a flow's current state through the set's snapshot API
// (the spec struct passed to StartFlow does not track later changes).
func flowOf(t *testing.T, n *Network, id fluid.FlowID) fluid.Flow {
	t.Helper()
	f, ok := n.Flows.Flow(id)
	if !ok {
		t.Fatalf("flow %d missing", id)
	}
	return f
}

// TestPathInvariants checks, over randomized proactive rule sets, that
// every active flow's path is link-connected, starts at its source host,
// and terminates at its destination host.
func TestPathInvariants(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	// Destination-routing rules on all switches (the ECMP5 app's shape).
	for _, sw := range g.Switches() {
		for _, h := range g.Hosts() {
			paths := g.AllShortestPaths(sw.ID, h.ID)
			seen := map[core.PortID]bool{}
			var ports []core.PortID
			for _, p := range paths {
				if len(p) == 0 {
					continue
				}
				l := g.Link(p[0])
				if !seen[l.FromPort] {
					seen[l.FromPort] = true
					ports = append(ports, l.FromPort)
				}
			}
			if len(ports) == 0 {
				continue
			}
			var actions []flowtable.Action
			if len(ports) == 1 {
				actions = []flowtable.Action{{Type: flowtable.ActionOutput, Port: ports[0]}}
			} else {
				actions = []flowtable.Action{{Type: flowtable.ActionSelectGroup, Group: ports}}
			}
			n.Table(sw.ID).Add(flowtable.Entry{
				Priority: 10,
				Match:    flowtable.Match{DstBits: 32, Dst: h.IP},
				Actions:  actions,
			}, 0)
		}
	}
	hosts := g.Hosts()
	id := fluid.FlowID(1)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src.ID == dst.ID {
				continue
			}
			ft := core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: core.ProtoUDP,
				SrcPort: uint16(id % 50000), DstPort: 99}
			f := &fluid.Flow{ID: id, Tuple: ft, Src: src.ID, Dst: dst.ID, Demand: core.Mbps}
			id++
			n.StartFlow(f, 0)
			if f.State != fluid.Active {
				t.Fatalf("%s->%s not active", src.Name, dst.Name)
			}
			// Path invariants.
			if len(f.Path) == 0 {
				t.Fatalf("%s->%s empty path", src.Name, dst.Name)
			}
			first := g.Link(f.Path[0])
			if first.From != src.ID {
				t.Fatalf("path does not start at source")
			}
			last := g.Link(f.Path[len(f.Path)-1])
			if last.To != dst.ID {
				t.Fatalf("path does not end at destination")
			}
			for i := 1; i < len(f.Path); i++ {
				prev := g.Link(f.Path[i-1])
				cur := g.Link(f.Path[i])
				if prev.To != cur.From {
					t.Fatalf("path disconnected at hop %d", i)
				}
			}
			n.StopFlow(f.ID, 0)
		}
	}
}

// failCableBetween fails/restores the cable joining two named nodes.
func setCable(t *testing.T, n *Network, g *topo.Graph, a, b string, down bool, now core.Time) *topo.Link {
	t.Helper()
	na, _ := g.NodeByName(a)
	nb, _ := g.NodeByName(b)
	ab := g.CableBetween(na.ID, nb.ID)
	if ab == nil {
		t.Fatalf("no cable %s-%s", a, b)
	}
	n.SetCableState(ab.ID, down, now)
	return ab
}

func TestSetCableStateRouterPrunesAndReroutes(t *testing.T) {
	n, g := routerNet(t)
	ft, src, dst := hostTuple(g, "h1", "h2")
	r1, _ := g.NodeByName("r1")
	r2, _ := g.NodeByName("r2")
	h2, _ := g.NodeByName("h2")
	var r1ToR2, r2ToH2 core.PortID
	for _, p := range r1.Ports {
		if p.Peer == r2.ID {
			r1ToR2 = p.ID
		}
	}
	for _, p := range r2.Ports {
		if p.Peer == h2.ID {
			r2ToH2 = p.ID
		}
	}
	must(t, n.InstallRoute(r1.ID, fib.Route{
		Prefix:   netip.MustParsePrefix("10.0.2.0/24"),
		NextHops: []fib.NextHop{{Port: r1ToR2, Via: netip.MustParseAddr("172.16.0.1")}},
	}, 0))
	must(t, n.InstallRoute(r2.ID, fib.Route{
		Prefix:   netip.MustParsePrefix("10.0.2.0/24"),
		NextHops: []fib.NextHop{{Port: r2ToH2, Via: h2.IP}},
	}, 0))
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: 300 * core.Mbps}
	n.StartFlow(f, 0)
	if f.State != fluid.Active {
		t.Fatalf("flow state = %v", f.State)
	}

	// Fail r1-r2: r1's FIB loses the route (interface-down prune), the
	// flow blackholes, and both directions' capacity hits zero.
	ab := setCable(t, n, g, "r1", "r2", true, core.Second)
	if got := flowOf(t, n, 1); got.State != fluid.Pending || got.Rate != 0 {
		t.Fatalf("after failure: state=%v rate=%v", got.State, got.Rate)
	}
	if n.FIB(r1.ID).Len() != 0 {
		t.Fatalf("r1 FIB not pruned: %v", n.FIB(r1.ID))
	}
	if n.Flows.Capacity(ab.ID) != 0 || n.Flows.Capacity(ab.Reverse) != 0 {
		t.Fatal("dead cable capacity not clamped")
	}

	// Restore and reinstall (as BGP re-convergence would): traffic returns.
	setCable(t, n, g, "r1", "r2", false, 2*core.Second)
	must(t, n.InstallRoute(r1.ID, fib.Route{
		Prefix:   netip.MustParsePrefix("10.0.2.0/24"),
		NextHops: []fib.NextHop{{Port: r1ToR2, Via: netip.MustParseAddr("172.16.0.1")}},
	}, 2*core.Second))
	if got := flowOf(t, n, 1); got.State != fluid.Active || got.Rate != 300*core.Mbps {
		t.Fatalf("after repair: state=%v rate=%v", got.State, got.Rate)
	}
}

func TestSetCableStateSwitchInvalidatesEntries(t *testing.T) {
	n, g := starNet(t)
	punts := 0
	n.OnPacketIn = func(PacketIn) { punts++ }
	sw, _ := g.NodeByName("s0")
	h1, _ := g.NodeByName("h1")
	ft, src, dst := hostTuple(g, "h0", "h1")
	var toH1 core.PortID
	for _, p := range sw.Ports {
		if p.Peer == h1.ID {
			toH1 = p.ID
		}
	}
	must(t, n.ApplyFlowMod(sw.ID, FlowMod{Kind: FlowModAdd, Entry: flowtable.Entry{
		Priority: 200,
		Match:    flowtable.ExactFlowMatch(ft),
		Actions:  []flowtable.Action{{Type: flowtable.ActionOutput, Port: toH1}},
	}}, 0))
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: 200 * core.Mbps}
	n.StartFlow(f, 0)
	if f.State != fluid.Active {
		t.Fatalf("flow state = %v", f.State)
	}

	// Fail s0-h1: the exact entry outputting into the dead link is
	// invalidated and the flow re-punts for repair.
	setCable(t, n, g, "s0", "h1", true, core.Second)
	if n.Table(sw.ID).Len() != 0 {
		t.Fatal("dead entry not invalidated")
	}
	if punts != 1 {
		t.Fatalf("punts = %d, want 1 (repair request)", punts)
	}
	if got := flowOf(t, n, 1); got.State != fluid.Pending {
		t.Fatalf("flow state after failure = %v", got.State)
	}
}

func TestSetCableRateResolves(t *testing.T) {
	n, g := starNet(t)
	sw, _ := g.NodeByName("s0")
	ft, src, dst := hostTuple(g, "h0", "h1")
	must(t, n.ApplyFlowMod(sw.ID, FlowMod{Kind: FlowModAdd, Entry: flowtable.Entry{
		Priority: 100,
		Match:    flowtable.MatchAll(),
		Actions:  []flowtable.Action{{Type: flowtable.ActionOutput, Port: 2}}, // s0 port 2 = h1
	}}, 0))
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)
	if got := flowOf(t, n, 1); got.Rate != core.Gbps {
		t.Fatalf("initial rate %v", got.Rate)
	}
	h0, _ := g.NodeByName("h0")
	ab := g.CableBetween(h0.ID, sw.ID)
	// Degrade the access cable to 250 Mbps: allocation follows without
	// any reroute.
	n.SetCableRate(ab.ID, 250*core.Mbps, core.Second)
	if got := flowOf(t, n, 1); got.Rate != 250*core.Mbps {
		t.Fatalf("degraded rate %v, want 250Mbps", got.Rate)
	}
	if g.Link(ab.ID).Rate() != 250*core.Mbps || g.Link(ab.Reverse).Rate() != 250*core.Mbps {
		t.Fatal("topology rate not updated on both directions")
	}
	n.SetCableRate(ab.ID, core.Gbps, 2*core.Second)
	if got := flowOf(t, n, 1); got.Rate != core.Gbps {
		t.Fatalf("restored rate %v", got.Rate)
	}
}

func TestSetNodeStateKillsTransit(t *testing.T) {
	n, g := starNet(t)
	sw, _ := g.NodeByName("s0")
	ft, src, dst := hostTuple(g, "h0", "h1")
	must(t, n.ApplyFlowMod(sw.ID, FlowMod{Kind: FlowModAdd, Entry: flowtable.Entry{
		Priority: 100,
		Match:    flowtable.MatchAll(),
		Actions:  []flowtable.Action{{Type: flowtable.ActionOutput, Port: 2}},
	}}, 0))
	f := &fluid.Flow{ID: 1, Tuple: ft, Src: src, Dst: dst, Demand: core.Gbps}
	n.StartFlow(f, 0)
	if f.State != fluid.Active {
		t.Fatalf("flow state = %v", f.State)
	}
	if len(n.SetNodeState(sw.ID, true, core.Second)) == 0 {
		t.Fatal("SetNodeState reported no change")
	}
	if got := flowOf(t, n, 1); got.State != fluid.Pending || got.Rate != 0 {
		t.Fatalf("flow through dead switch: state=%v rate=%v", got.State, got.Rate)
	}
	// Idempotent.
	if len(n.SetNodeState(sw.ID, true, core.Second)) != 0 {
		t.Fatal("second SetNodeState(true) reported a change")
	}
	n.SetNodeState(sw.ID, false, 2*core.Second)
	// The outage pruned the entry outputting into the dead switch's port;
	// the controller would reinstall it.
	must(t, n.ApplyFlowMod(sw.ID, FlowMod{Kind: FlowModAdd, Entry: flowtable.Entry{
		Priority: 100,
		Match:    flowtable.MatchAll(),
		Actions:  []flowtable.Action{{Type: flowtable.ActionOutput, Port: 2}},
	}}, 2*core.Second))
	if got := flowOf(t, n, 1); got.State != fluid.Active || got.Rate != core.Gbps {
		t.Fatalf("flow after node repair: state=%v rate=%v", got.State, got.Rate)
	}
}
