package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// allShortestPathsOracle is the exhaustive search AllShortestPaths
// replaced: a BFS from src, then a walk over every path of increasing
// distance out of src, keeping those that reach dst.
func allShortestPathsOracle(g *Graph, src, dst core.NodeID) [][]core.LinkID {
	if src == dst {
		return [][]core.LinkID{{}}
	}
	const unseen = -1
	dist := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = unseen
	}
	dist[src] = 0
	queue := []core.NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur != src && g.Nodes[cur].Kind == Host {
			continue
		}
		for _, p := range g.Nodes[cur].Ports {
			if !g.LinkAlive(p.Link) {
				continue
			}
			if dist[p.Peer] == unseen {
				dist[p.Peer] = dist[cur] + 1
				queue = append(queue, p.Peer)
			}
		}
	}
	if dist[dst] == unseen {
		return nil
	}
	var paths [][]core.LinkID
	var walk func(cur core.NodeID, acc []core.LinkID)
	walk = func(cur core.NodeID, acc []core.LinkID) {
		if cur == dst {
			paths = append(paths, append([]core.LinkID(nil), acc...))
			return
		}
		if cur != src && g.Nodes[cur].Kind == Host {
			return
		}
		for _, p := range g.Nodes[cur].Ports {
			if dist[p.Peer] == dist[cur]+1 && g.LinkAlive(p.Link) {
				walk(p.Peer, append(acc, p.Link))
			}
		}
	}
	walk(src, nil)
	return paths
}

// checkPathParity compares AllShortestPaths with the oracle on every
// (src, dst) pair, path for path and in order.
func checkPathParity(t *testing.T, g *Graph, state string, pairs [][2]*Node) {
	t.Helper()
	for _, pr := range pairs {
		got := g.AllShortestPaths(pr[0].ID, pr[1].ID)
		if want := allShortestPathsOracle(g, pr[0].ID, pr[1].ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s -> %s: paths %v, want %v", state, pr[0].Name, pr[1].Name, got, want)
		}
	}
}

// allPairs is every ordered pair of distinct nodes drawn from from × to.
func allPairs(from, to []*Node) [][2]*Node {
	var out [][2]*Node
	for _, a := range from {
		for _, b := range to {
			if a != b {
				out = append(out, [2]*Node{a, b})
			}
		}
	}
	return out
}

// samplePairs is n seeded ordered pairs of distinct hosts.
func samplePairs(g *Graph, n int, rng *rand.Rand) [][2]*Node {
	hosts := g.Hosts()
	out := make([][2]*Node, 0, n)
	for len(out) < n {
		a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if a != b {
			out = append(out, [2]*Node{a, b})
		}
	}
	return out
}

func TestAllShortestPathsMatchesExhaustiveWalk(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*Graph, error)
		// pairs picks the pairs to compare; every host pair when nil.
		pairs func(*Graph, *rand.Rand) [][2]*Node
	}{
		{"fattree:4", func() (*Graph, error) { return FatTree(FatTreeOpts{K: 4}) }, nil},
		{"fattree:8", func() (*Graph, error) { return FatTree(FatTreeOpts{K: 8}) },
			func(g *Graph, rng *rand.Rand) [][2]*Node { return samplePairs(g, 300, rng) }},
		{"ring:12:3", func() (*Graph, error) { return WANRing(12, 3, core.Gbps, 0) },
			// Routers too: a router-to-router walk starts at a node that
			// forwards.
			func(g *Graph, _ *rand.Rand) [][2]*Node { return allPairs(g.Nodes, g.Nodes) }},
		{"wan:mesh", func() (*Graph, error) { return WANGraph(WANOpts{PoPs: 24, Seed: 7}) }, nil},
		// Hosts on two switches each: a host is a shortcut between them
		// that no path may take.
		{"dual-homed", dualHomed, func(g *Graph, _ *rand.Rand) [][2]*Node { return allPairs(g.Nodes, g.Nodes) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			pairs := allPairs(g.Hosts(), g.Hosts())
			if tc.pairs != nil {
				pairs = tc.pairs(g, rng)
			}
			checkPathParity(t, g, "intact", pairs)

			// A tenth of the cables fail, seeded; then one direction of
			// a further cable; then a forwarding node; then all repair.
			var failed []*Link
			for i := 0; i < len(g.Links)/20+1; i++ {
				ab := g.Links[rng.Intn(len(g.Links))]
				setCable(g, ab, true)
				failed = append(failed, ab)
			}
			checkPathParity(t, g, "cables down", pairs)

			oneWay := g.Links[rng.Intn(len(g.Links))]
			oneWay.SetDown(true)
			checkPathParity(t, g, fmt.Sprintf("link %v down one way", oneWay.ID), pairs)

			var victim *Node
			for victim == nil || victim.Kind == Host {
				victim = g.Nodes[rng.Intn(len(g.Nodes))]
			}
			victim.SetDown(true)
			checkPathParity(t, g, "cables and "+victim.Name+" down", pairs)

			victim.SetDown(false)
			oneWay.SetDown(false)
			for _, ab := range failed {
				setCable(g, ab, false)
			}
			checkPathParity(t, g, "repaired", pairs)
		})
	}
}

// dualHomed is a chain of four switches, each pair of neighbours joined
// through a host and, but for the middle pair, by a cable too; a
// single-homed host hangs off either end. Only a path through a host
// crosses the middle.
func dualHomed() (*Graph, error) {
	g := New()
	var sw []*Node
	for i := 0; i < 4; i++ {
		sw = append(sw, g.AddSwitch(fmt.Sprintf("s%d", i)))
	}
	for i := 0; i+1 < len(sw); i++ {
		if i != 1 {
			g.Connect(sw[i], sw[i+1], core.Gbps, 0)
		}
		h := g.AddHost(fmt.Sprintf("h%d", i))
		g.Connect(sw[i], h, core.Gbps, 0)
		g.Connect(sw[i+1], h, core.Gbps, 0)
	}
	g.Connect(sw[0], g.AddHost("first"), core.Gbps, 0)
	g.Connect(sw[3], g.AddHost("last"), core.Gbps, 0)
	return g, g.Validate()
}

// TestAllShortestPathsOneWayLinks: a path may use only the direction of
// a cable that is up. With every fat-tree edge's uplinks down one way,
// in turn, each pair agrees with the oracle.
func TestAllShortestPathsOneWayLinks(t *testing.T) {
	g, err := FatTree(FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	pairs := allPairs(g.Hosts(), g.Hosts())
	for _, l := range g.Links {
		if g.Nodes[l.From].Kind == Host || g.Nodes[l.To].Kind == Host {
			continue
		}
		l.SetDown(true)
		checkPathParity(t, g, fmt.Sprintf("link %v down one way", l.ID), pairs)
		l.SetDown(false)
	}
}

// BenchmarkAllShortestPaths is Hedera's path query: every host pair of
// fattree:8 in turn, one pair per iteration.
func BenchmarkAllShortestPaths(b *testing.B) {
	g, err := FatTree(FatTreeOpts{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	pairs := allPairs(g.Hosts(), g.Hosts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		if g.AllShortestPaths(pr[0].ID, pr[1].ID) == nil {
			b.Fatal("no path")
		}
	}
}
