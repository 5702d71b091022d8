package topo

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// nextHopPortsOracle is the per-pair derivation the controller's ECMP app
// and the baseline emulator used before NextHopPorts: enumerate every
// shortest path and collect the distinct first-hop ports.
func nextHopPortsOracle(g *Graph, from, to core.NodeID) []core.PortID {
	seen := map[core.PortID]bool{}
	var ports []core.PortID
	for _, p := range g.AllShortestPaths(from, to) {
		if len(p) == 0 {
			continue
		}
		l := g.Link(p[0])
		if l == nil || seen[l.FromPort] {
			continue
		}
		seen[l.FromPort] = true
		ports = append(ports, l.FromPort)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	return ports
}

// checkNextHopParity compares NextHopPorts with the oracle for every
// (forwarding node, host) pair of g in its current failure state.
func checkNextHopParity(t *testing.T, g *Graph, state string) {
	t.Helper()
	hosts := g.Hosts()
	for _, n := range g.Nodes {
		if n.Kind == Host {
			continue
		}
		next := g.NextHopPorts(n.ID)
		if len(next) != len(g.Nodes) {
			t.Fatalf("%s: NextHopPorts(%s) has %d rows, want one per node (%d)", state, n.Name, len(next), len(g.Nodes))
		}
		for _, h := range hosts {
			want := nextHopPortsOracle(g, n.ID, h.ID)
			if got := next[h.ID]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s -> %s: ports %v, want %v", state, n.Name, h.Name, got, want)
			}
		}
	}
}

func setCable(g *Graph, ab *Link, down bool) {
	ab.SetDown(down)
	g.Link(ab.Reverse).SetDown(down)
}

func TestNextHopPortsMatchesAllShortestPaths(t *testing.T) {
	fatTree := func(k int) func() (*Graph, error) {
		return func() (*Graph, error) { return FatTree(FatTreeOpts{K: k}) }
	}
	for _, tc := range []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"fattree:4", fatTree(4)},
		{"fattree:6", fatTree(6)},
		{"fattree:8", fatTree(8)},
		{"wan:abilene", func() (*Graph, error) { return WANNamed("abilene", WANOpts{}) }},
		{"wan:mesh", func() (*Graph, error) { return WANGraph(WANOpts{PoPs: 24, Seed: 7}) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			checkNextHopParity(t, g, "intact")

			// A tenth of the cables fail, seeded; then a forwarding
			// node on top of that; then everything comes back.
			rng := rand.New(rand.NewSource(3))
			var failed []*Link
			for i := 0; i < len(g.Links)/20+1; i++ {
				ab := g.Links[rng.Intn(len(g.Links))]
				setCable(g, ab, true)
				failed = append(failed, ab)
			}
			checkNextHopParity(t, g, "cables down")

			var victim *Node
			for victim == nil || victim.Kind == Host {
				victim = g.Nodes[rng.Intn(len(g.Nodes))]
			}
			victim.SetDown(true)
			checkNextHopParity(t, g, "cables and "+victim.Name+" down")
			for _, row := range g.NextHopPorts(victim.ID) {
				if row != nil {
					t.Fatalf("down node %s still reaches something: %v", victim.Name, row)
				}
			}

			victim.SetDown(false)
			for _, ab := range failed {
				setCable(g, ab, false)
			}
			checkNextHopParity(t, g, "repaired")
		})
	}
}

func TestNextHopPortsEdgeCases(t *testing.T) {
	// Hosts never transit: h0 and h1 hang off both switches, so a path
	// a-h0-b would be as short as none other — a reaches b's host h2
	// through nothing.
	g := New()
	a, b := g.AddSwitch("a"), g.AddSwitch("b")
	h0, h1, h2 := g.AddHost("h0"), g.AddHost("h1"), g.AddHost("h2")
	for _, h := range []*Node{h0, h1} {
		g.Connect(a, h, core.Gbps, 0)
		g.Connect(b, h, core.Gbps, 0)
	}
	g.Connect(b, h2, core.Gbps, 0)
	next := g.NextHopPorts(a.ID)
	if got := next[h0.ID]; !reflect.DeepEqual(got, []core.PortID{1}) {
		t.Fatalf("a -> h0 = %v, want port 1", got)
	}
	// Unreachable and self are nil, not empty.
	if next[h2.ID] != nil || next[b.ID] != nil {
		t.Fatalf("a reaches b (%v) or h2 (%v) through a host", next[b.ID], next[h2.ID])
	}
	if next[a.ID] != nil {
		t.Fatalf("a -> a = %v, want nil", next[a.ID])
	}
	// A host as the source does expand (as in AllShortestPaths), but its
	// neighbours' other hosts stay one switch away, never via a host.
	fromHost := g.NextHopPorts(h0.ID)
	if got := fromHost[h2.ID]; !reflect.DeepEqual(got, []core.PortID{2}) {
		t.Fatalf("h0 -> h2 = %v, want port 2 (via b)", got)
	}
	if got := fromHost[h1.ID]; !reflect.DeepEqual(got, []core.PortID{1, 2}) {
		t.Fatalf("h0 -> h1 = %v, want ports 1 and 2", got)
	}

	// Parallel cables are distinct next hops; a node with more than 64
	// ports needs more than one bitset word.
	g = New()
	hub, far := g.AddSwitch("hub"), g.AddSwitch("far")
	for i := 0; i < 70; i++ {
		g.Connect(hub, far, core.Gbps, 0)
	}
	dst := g.AddHost("dst")
	g.Connect(far, dst, core.Gbps, 0)
	ports := g.NextHopPorts(hub.ID)[dst.ID]
	if len(ports) != 70 || ports[0] != 1 || ports[69] != 70 || !sort.SliceIsSorted(ports, func(i, j int) bool { return ports[i] < ports[j] }) {
		t.Fatalf("hub -> dst = %v, want ports 1..70 ascending", ports)
	}
	checkNextHopParity(t, g, "parallel cables")

	// Rows share one backing array but are capped at their own length:
	// appending to one must not write into the next.
	rows := g.NextHopPorts(far.ID)
	_ = append(rows[hub.ID], 999)
	if fresh := g.NextHopPorts(far.ID); !reflect.DeepEqual(rows, fresh) {
		t.Fatalf("append to one row changed another: %v, want %v", rows, fresh)
	}
}
