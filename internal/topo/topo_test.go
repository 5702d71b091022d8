package topo

import (
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestFatTreeSizes(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		g, err := FatTree(FatTreeOpts{K: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := g.Size()
		want := FatTreeExpected(k)
		if got != want {
			t.Errorf("k=%d: size %+v, want %+v", k, got, want)
		}
	}
	// The paper's sizes: k=4 has 16 hosts ("for 4 with 16 hosts").
	g, _ := FatTree(FatTreeOpts{K: 4})
	if n := len(g.Hosts()); n != 16 {
		t.Errorf("k=4 fat-tree has %d hosts, want 16", n)
	}
}

func TestFatTreeRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5, -2, 256} {
		if _, err := FatTree(FatTreeOpts{K: k}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestFatTreeAddressing(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := g.NodeByName("host-2-1-0")
	if !ok {
		t.Fatal("host-2-1-0 missing")
	}
	if want := netip.MustParseAddr("10.2.1.2"); h.IP != want {
		t.Errorf("host-2-1-0 IP = %v, want %v", h.IP, want)
	}
	e, ok := g.NodeByName("edge-2-1")
	if !ok {
		t.Fatal("edge-2-1 missing")
	}
	if want := netip.MustParsePrefix("10.2.1.0/24"); e.Prefix != want {
		t.Errorf("edge-2-1 prefix = %v, want %v", e.Prefix, want)
	}
	// All host IPs unique.
	seen := map[netip.Addr]bool{}
	for _, h := range g.Hosts() {
		if seen[h.IP] {
			t.Fatalf("duplicate host IP %v", h.IP)
		}
		seen[h.IP] = true
	}
}

func TestFatTreeDegrees(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		want := 0
		switch n.Layer {
		case LayerHost:
			want = 1
		case LayerEdge, LayerAgg, LayerCore:
			want = 6
		}
		if len(n.Ports) != want {
			t.Errorf("%s (%s): degree %d, want %d", n.Name, n.Layer, len(n.Ports), want)
		}
	}
}

func TestFatTreeRouterVariant(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 4, Routers: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Switches()) != 0 {
		t.Error("router variant contains OpenFlow switches")
	}
	rs := g.Routers()
	if len(rs) != 20 {
		t.Fatalf("router count = %d, want 20", len(rs))
	}
	// Core routers share one ASN; all other ASNs unique.
	asns := map[uint32]int{}
	for _, r := range rs {
		asns[r.ASN]++
	}
	coreShared := 0
	for _, r := range rs {
		if r.Layer == LayerCore {
			coreShared = int(r.ASN)
			break
		}
	}
	if asns[uint32(coreShared)] != 4 {
		t.Errorf("core ASN shared by %d routers, want 4", asns[uint32(coreShared)])
	}
	for asn, count := range asns {
		if int(asn) != coreShared && count != 1 {
			t.Errorf("ASN %d reused %d times", asn, count)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("fresh graph invalid: %v", err)
	}
	g.Links[0].Reverse = g.Links[0].ID // break reverse pairing
	if err := g.Validate(); err == nil {
		t.Fatal("corrupted graph validated")
	}
}

func TestConnectPortWiring(t *testing.T) {
	g := New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	ab, ba := g.Connect(a, b, core.Gbps, core.Microsecond)
	if ab.Reverse != ba.ID || ba.Reverse != ab.ID {
		t.Fatal("reverse links not paired")
	}
	pa := g.Port(a.ID, ab.FromPort)
	if pa == nil || pa.Peer != b.ID {
		t.Fatal("port a not wired to b")
	}
	if pa.IP.Compare(g.Port(b.ID, ba.FromPort).IP) == 0 {
		t.Fatal("p2p addresses identical on both ends")
	}
	if !pa.Prefix.Contains(g.Port(b.ID, ba.FromPort).IP) {
		t.Fatal("p2p ends not in same /31")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New()
	g.AddHost("x")
	g.AddHost("x")
}

func TestAllShortestPathsFatTree(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := g.NodeByName("host-0-0-0")
	h2, _ := g.NodeByName("host-0-0-1")
	// Same edge switch: exactly one 2-hop path.
	paths := g.AllShortestPaths(h1.ID, h2.ID)
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Fatalf("same-edge paths = %d x %d hops, want 1 x 2", len(paths), len(paths[0]))
	}
	// Same pod, different edge: k/2 = 2 paths of 4 hops via the aggs.
	h3, _ := g.NodeByName("host-0-1-0")
	paths = g.AllShortestPaths(h1.ID, h3.ID)
	if len(paths) != 2 {
		t.Fatalf("intra-pod path count = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Fatalf("intra-pod path length = %d, want 4", len(p))
		}
	}
	// Different pod: (k/2)^2 = 4 paths of 6 hops via the cores.
	h4, _ := g.NodeByName("host-3-1-1")
	paths = g.AllShortestPaths(h1.ID, h4.ID)
	if len(paths) != 4 {
		t.Fatalf("inter-pod path count = %d, want 4", len(paths))
	}
	for _, p := range paths {
		if len(p) != 6 {
			t.Fatalf("inter-pod path length = %d, want 6", len(p))
		}
	}
}

func TestAllShortestPathsAvoidHostTransit(t *testing.T) {
	// In a star, host-to-host paths must go through the center, and no
	// path may pass through a third host.
	g, err := Star(4, Switch, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := g.NodeByName("h0")
	h1, _ := g.NodeByName("h1")
	paths := g.AllShortestPaths(h0.ID, h1.ID)
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Fatalf("star paths = %v", paths)
	}
}

func TestAllShortestPathsSelfAndDisconnected(t *testing.T) {
	g := New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	if p := g.AllShortestPaths(a.ID, a.ID); len(p) != 1 || len(p[0]) != 0 {
		t.Fatalf("self path = %v", p)
	}
	if p := g.AllShortestPaths(a.ID, b.ID); p != nil {
		t.Fatalf("disconnected path = %v", p)
	}
}

func TestLinearAndStarAndRing(t *testing.T) {
	if _, err := Linear(0, Switch, core.Gbps, 0); err == nil {
		t.Error("Linear(0) accepted")
	}
	g, err := Linear(5, Router, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Size(); s.Hosts != 5 || s.Routers != 5 || s.Cables != 9 {
		t.Errorf("linear size = %+v", s)
	}
	if _, err := Star(0, Switch, core.Gbps, 0); err == nil {
		t.Error("Star(0) accepted")
	}
	if _, err := WANRing(2, 0, core.Gbps, 0); err == nil {
		t.Error("WANRing(2) accepted")
	}
	g, err = WANRing(6, 2, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Size()
	if s.Routers != 6 || s.Hosts != 6 {
		t.Errorf("ring size = %+v", s)
	}
	// 6 host links + 6 ring links + chords.
	if s.Cables <= 12 {
		t.Errorf("ring with chords has %d cables, want > 12", s.Cables)
	}
}

func TestTwoRouters(t *testing.T) {
	g, err := TwoRouters(core.Gbps, core.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Size(); s.Routers != 2 || s.Hosts != 2 || s.Cables != 3 {
		t.Fatalf("two-router size = %+v", s)
	}
	r1, _ := g.NodeByName("r1")
	r2, _ := g.NodeByName("r2")
	if r1.ASN == r2.ASN {
		t.Error("r1 and r2 share an ASN; eBGP scenario needs distinct ASNs")
	}
}

func TestHostByIP(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range g.Hosts() {
		got, ok := g.HostByIP(h.IP)
		if !ok || got.ID != h.ID {
			t.Fatalf("HostByIP(%v) = %v,%v", h.IP, got, ok)
		}
	}
	if _, ok := g.HostByIP(netip.MustParseAddr("192.0.2.1")); ok {
		t.Error("HostByIP found a host for an unused address")
	}
}

func TestPortLookupBounds(t *testing.T) {
	g, _ := TwoRouters(core.Gbps, 0)
	if g.Port(core.NodeID(99), 1) != nil {
		t.Error("Port on missing node returned non-nil")
	}
	if g.Port(0, core.PortNone) != nil {
		t.Error("PortNone returned non-nil")
	}
	if g.Port(0, 99) != nil {
		t.Error("out-of-range port returned non-nil")
	}
	if g.Node(core.NodeID(1<<20)) != nil {
		t.Error("out-of-range node returned non-nil")
	}
	if g.Link(core.LinkID(1<<20)) != nil {
		t.Error("out-of-range link returned non-nil")
	}
}

func TestP2PSubnetsUnique(t *testing.T) {
	// Property: across a large generated graph, every port IP is unique.
	f := func(seed uint8) bool {
		k := 4
		if seed%2 == 0 {
			k = 6
		}
		g, err := FatTree(FatTreeOpts{K: k})
		if err != nil {
			return false
		}
		seen := map[netip.Addr]bool{}
		for _, n := range g.Nodes {
			for _, p := range n.Ports {
				if seen[p.IP] {
					return false
				}
				seen[p.IP] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Host.String() != "host" || Switch.String() != "switch" || Router.String() != "router" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() != "kind9" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestFatTreePathsStructural(t *testing.T) {
	const k = 4
	g, err := FatTree(FatTreeOpts{K: k})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewFatTreePaths(g, k)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	checkPath := func(src, dst *Node, path []core.LinkID) {
		t.Helper()
		if len(path) == 0 {
			t.Fatalf("%s->%s: empty path", src.Name, dst.Name)
		}
		prev := src.ID
		for _, lid := range path {
			l := g.Link(lid)
			if l == nil || l.From != prev {
				t.Fatalf("%s->%s: broken chain at %v", src.Name, dst.Name, lid)
			}
			prev = l.To
		}
		if prev != dst.ID {
			t.Fatalf("%s->%s: path ends at %v", src.Name, dst.Name, prev)
		}
	}
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			for h := uint64(0); h < 8; h++ {
				path, err := fp.Path(src.ID, dst.ID, h)
				if err != nil {
					t.Fatalf("%s->%s h=%d: %v", src.Name, dst.Name, h, err)
				}
				checkPath(src, dst, path)
				// Structural paths are shortest paths: 2 hops same-edge,
				// 4 intra-pod, 6 across the core.
				want := 6
				switch {
				case src.Ports[0].Peer == dst.Ports[0].Peer:
					want = 2
				case src.Pod == dst.Pod:
					want = 4
				}
				if len(path) != want {
					t.Fatalf("%s->%s: path length %d, want %d", src.Name, dst.Name, len(path), want)
				}
			}
		}
	}
	// Hash sweep covers every core for an inter-pod pair.
	src, dst := hosts[0], hosts[len(hosts)-1]
	cores := map[core.NodeID]bool{}
	for h := uint64(0); h < uint64(k*k); h++ {
		path, err := fp.Path(src.ID, dst.ID, h)
		if err != nil {
			t.Fatal(err)
		}
		mid := g.Link(path[2]).To // edge, agg, core
		if g.Node(mid).Layer != LayerCore {
			t.Fatalf("hop 3 of inter-pod path is %s", g.Node(mid).Layer)
		}
		cores[mid] = true
	}
	if want := k * k / 4; len(cores) != want {
		t.Fatalf("hash sweep reached %d cores, want %d", len(cores), want)
	}
	// Determinism: same hash, same path.
	p1, _ := fp.Path(src.ID, dst.ID, 12345)
	p2, _ := fp.Path(src.ID, dst.ID, 12345)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same hash produced different paths")
		}
	}
	// AppendPath reuses the buffer without allocating.
	buf := make([]core.LinkID, 0, 8)
	buf, err = fp.AppendPath(buf[:0], src.ID, dst.ID, 3)
	if err != nil || len(buf) != 6 {
		t.Fatalf("AppendPath = %v, %v", buf, err)
	}
	// Errors: self-path and non-host endpoints.
	if _, err := fp.Path(src.ID, src.ID, 0); err == nil {
		t.Fatal("self path accepted")
	}
	sw := g.Switches()[0]
	if _, err := fp.Path(sw.ID, dst.ID, 0); err == nil {
		t.Fatal("switch as source accepted")
	}
}

func TestFatTreePathsRejectsNonFatTree(t *testing.T) {
	g, _ := Linear(3, Switch, core.Gbps, 0)
	if _, err := NewFatTreePaths(g, 4); err == nil {
		t.Fatal("linear graph accepted as fat-tree")
	}
	g2, _ := FatTree(FatTreeOpts{K: 4})
	if _, err := NewFatTreePaths(g2, 3); err == nil {
		t.Fatal("odd k accepted")
	}
}

func TestLinkAliveAndCableBetween(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	agg, _ := g.NodeByName("agg-0-0")
	core0, _ := g.NodeByName("core-0-0")
	ab := g.CableBetween(agg.ID, core0.ID)
	if ab == nil {
		t.Fatal("agg-0-0 and core-0-0 not connected")
	}
	if ab.From != agg.ID || ab.To != core0.ID {
		t.Fatalf("CableBetween direction: got %v->%v", ab.From, ab.To)
	}
	if !g.LinkAlive(ab.ID) || !g.LinkAlive(ab.Reverse) {
		t.Fatal("fresh link not alive")
	}
	ab.SetDown(true)
	if g.LinkAlive(ab.ID) {
		t.Error("down link reported alive")
	}
	ab.SetDown(false)
	core0.SetDown(true)
	if g.LinkAlive(ab.ID) || g.LinkAlive(ab.Reverse) {
		t.Error("link to a down node reported alive")
	}
	core0.SetDown(false)
	if g.CableBetween(agg.ID, agg.ID) != nil {
		t.Error("self cable found")
	}
	host, _ := g.NodeByName("host-0-0-0")
	if g.CableBetween(agg.ID, host.ID) != nil {
		t.Error("agg-host cable found where none exists")
	}
}

func TestAllShortestPathsSkipDeadLinks(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := g.NodeByName("host-0-0-0")
	dst, _ := g.NodeByName("host-1-0-0")
	before := g.AllShortestPaths(src.ID, dst.ID)
	if len(before) != 4 {
		t.Fatalf("cross-pod paths = %d, want 4", len(before))
	}
	// Kill one agg->core cable on a path and expect the path count to
	// halve (agg-0-0 loses one of its two cores).
	agg, _ := g.NodeByName("agg-0-0")
	c, _ := g.NodeByName("core-0-0")
	ab := g.CableBetween(agg.ID, c.ID)
	ab.SetDown(true)
	g.Link(ab.Reverse).SetDown(true)
	after := g.AllShortestPaths(src.ID, dst.ID)
	if len(after) != 3 {
		t.Fatalf("paths after failure = %d, want 3", len(after))
	}
	for _, p := range after {
		for _, lid := range p {
			if lid == ab.ID || lid == ab.Reverse {
				t.Fatal("path crosses the dead link")
			}
		}
	}
	// A down node removes every path through it.
	agg.SetDown(true)
	g2 := g.AllShortestPaths(src.ID, dst.ID)
	if len(g2) != 2 {
		t.Fatalf("paths with agg-0-0 down = %d, want 2", len(g2))
	}
	// Isolate the source edge switch entirely: no paths remain.
	edge, _ := g.NodeByName("edge-0-0")
	edge.SetDown(true)
	if got := g.AllShortestPaths(src.ID, dst.ID); got != nil {
		t.Fatalf("paths with edge down = %v, want none", got)
	}
}
