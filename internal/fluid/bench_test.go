package fluid

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// randPath draws plen distinct links out of nLinks.
func randPath(rng *rand.Rand, nLinks, plen int) []core.LinkID {
	path := make([]core.LinkID, 0, plen)
	seen := map[int]bool{}
	for len(path) < plen {
		l := rng.Intn(nLinks)
		if !seen[l] {
			seen[l] = true
			path = append(path, core.LinkID(l))
		}
	}
	return path
}

// BenchmarkSolve measures a full rate recomputation — the cost the naive
// baseline pays on every flow or route change — across flow counts
// covering the demo's sizes (k=4: 16 flows, k=8: 128 flows) and beyond,
// for both solver implementations.
func BenchmarkSolve(b *testing.B) {
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"incremental", false}, {"naive", true}} {
		for _, nFlows := range []int{16, 128, 512} {
			b.Run(fmt.Sprintf("%s/flows=%d", mode.name, nFlows), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				nLinks := nFlows / 2
				if nLinks < 8 {
					nLinks = 8
				}
				s := NewSet(func(core.LinkID) core.Rate { return core.Gbps })
				s.SetNaive(mode.naive)
				for i := 0; i < nFlows; i++ {
					s.Add(&Flow{
						ID: FlowID(i + 1), Demand: core.Gbps,
						Path: randPath(rng, nLinks, rng.Intn(5)+2), State: Active, Dst: core.NodeID(i % 64),
					}, 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.MarkDirty()
					s.Solve(0)
				}
			})
		}
	}
}

// BenchmarkChurn measures the event-driven hot path: one flow leaves and
// a rerouted replacement joins, re-solving after each mutation. This is
// the per-control-plane-event cost that separates the incremental solver
// (dirty region only, no allocation) from the naive full recompute.
func BenchmarkChurn(b *testing.B) {
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"incremental", false}, {"naive", true}} {
		for _, nFlows := range []int{128, 4096} {
			b.Run(fmt.Sprintf("%s/flows=%d", mode.name, nFlows), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				nLinks := nFlows / 2
				s := NewSet(func(core.LinkID) core.Rate { return core.Gbps })
				s.SetNaive(mode.naive)
				flows := make([]*Flow, nFlows)
				s.Defer()
				for i := range flows {
					flows[i] = &Flow{
						ID: FlowID(i + 1), Demand: core.Gbps,
						Path: randPath(rng, nLinks, 4), State: Active, Dst: core.NodeID(i % 64),
					}
					s.Add(flows[i], 0)
				}
				s.Resume(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := flows[i%nFlows]
					s.Remove(f.ID, 0)
					f.State = Active
					s.Add(f, 0)
				}
			})
		}
	}
	b.Run("contended", func(b *testing.B) {
		s, churn := contendedChurn(b)
		for i := 0; i < 1000; i++ {
			churn() // grow the scratch and reach the churned steady state
		}
		base := s.Totals()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churn()
		}
		b.StopTimer()
		tot := s.Totals()
		solves := float64(tot.Solves - base.Solves)
		b.ReportMetric(float64(tot.Flows-base.Flows)/solves, "flows/solve")
		b.ReportMetric(float64(tot.Links-base.Links)/solves, "links/solve")
		b.ReportMetric(float64(tot.Refills-base.Refills)/solves, "refills/solve")
	})
}

// contendedChurn holds 190 flows of 1 Gbps live between random host pairs
// of a fattree:8 with 1 Gbps links — the regime the des-churn benchmark
// workload lives in: links outnumber flows, a handful of saturated host
// links tie nearly every flow into one component, and most links a flow
// crosses are slack. It returns the set and one churn op: the oldest flow
// leaves and comes back on a re-hashed ECMP path.
func contendedChurn(tb testing.TB) (s *Set, churn func()) {
	const k, nFlows = 8, 190
	g, err := topo.FatTree(topo.FatTreeOpts{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	paths, err := topo.NewFatTreePaths(g, k)
	if err != nil {
		tb.Fatal(err)
	}
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(1))
	s = NewSet(func(l core.LinkID) core.Rate { return g.Link(l).Rate() })
	flows := make([]*Flow, nFlows)
	s.Defer()
	for i := range flows {
		src := rng.Intn(len(hosts))
		dst := rng.Intn(len(hosts) - 1)
		if dst >= src {
			dst++
		}
		f := &Flow{ID: FlowID(i + 1), Src: hosts[src].ID, Dst: hosts[dst].ID, Demand: core.Gbps, State: Active}
		if f.Path, err = paths.Path(f.Src, f.Dst, rng.Uint64()); err != nil {
			tb.Fatal(err)
		}
		flows[i] = f
		s.Add(f, 0)
	}
	s.Resume(0)
	i := 0
	return s, func() {
		f := flows[i%nFlows]
		i++
		s.Remove(f.ID, 0)
		if f.Path, err = paths.AppendPath(f.Path[:0], f.Src, f.Dst, rng.Uint64()); err != nil {
			tb.Fatal(err)
		}
		s.Add(f, 0)
	}
}

// BenchmarkIntegrate measures byte accounting, paid at every sampling
// tick and stats query.
func BenchmarkIntegrate(b *testing.B) {
	s := NewSet(func(core.LinkID) core.Rate { return core.Gbps })
	for i := 0; i < 256; i++ {
		s.Add(&Flow{
			ID: FlowID(i + 1), Demand: core.Gbps,
			Path: []core.LinkID{core.LinkID(i % 64), core.LinkID(64 + i%64)}, State: Active,
		}, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Integrate(core.Time(i+1) * core.Millisecond)
	}
}
