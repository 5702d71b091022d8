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
// covering the demo's sizes (k=4: 16 flows, k=8: 128 flows) and beyond:
// "incremental" is the set's own solve over every link (fullSolve),
// "naive" the from-scratch reference (naiveSolve).
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
				for i := 0; i < nFlows; i++ {
					s.Add(&Flow{
						ID: FlowID(i + 1), Demand: core.Gbps,
						Path: randPath(rng, nLinks, rng.Intn(5)+2), State: Active, Dst: core.NodeID(i % 64),
					}, 0)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode.naive {
						naiveSolve(s)
					} else {
						fullSolve(s, 0)
					}
				}
			})
		}
	}
}

// BenchmarkChurn measures the event-driven hot path: one flow leaves and
// a rerouted replacement joins, re-solving after each mutation. This is
// the per-control-plane-event cost that separates the incremental solver
// (dirty region only, no allocation) from the naive full recompute (the
// set held in a Defer batch and solved by naiveSolve after each mutation).
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
				flows := make([]*Flow, nFlows)
				s.Defer()
				for i := range flows {
					flows[i] = &Flow{
						ID: FlowID(i + 1), Demand: core.Gbps,
						Path: randPath(rng, nLinks, 4), State: Active, Dst: core.NodeID(i % 64),
					}
					s.Add(flows[i], 0)
				}
				solved := func() {}
				if mode.naive {
					solved = func() { naiveSolve(s) }
				} else {
					s.Resume(0)
				}
				solved()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := flows[i%nFlows]
					s.Remove(f.ID, 0)
					solved()
					f.State = Active
					s.Add(f, 0)
					solved()
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
		b.ReportMetric(float64(tot.Checks-base.Checks)/solves, "checks/solve")
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

// BenchmarkSolveScale measures the rate solver at production scale:
// fat-trees from k=16 (1024 hosts, 100k concurrent flows) through k=32
// (8192 hosts, 1M flows) to a k=48 smoke (27648 hosts, 1M flows, reduced
// matrix) under churn — every operation retires one flow and admits a
// rerouted replacement, each triggering a re-solve. The "incremental"
// mode is the persistent-state sorted water-filling solver over the
// struct-of-arrays store; "naive" is the from-scratch progressive-filling
// reference, naiveSolve, run after every mutation of a set held in a
// Defer batch (skipped at the million-flow scales, where a single
// from-scratch solve takes minutes). Two workload shapes:
//
//   - crosscore: random host pairs, so ECMP spreads flows over the whole
//     core and the dirty component spans the entire network;
//   - podlocal: src and dst share a pod, so the network decomposes into
//     k independent components and the dirty-region cut re-solves ~1/k of
//     the flows per change.
//
// cmd/benchjson turns `go test -bench SolveScale -benchmem` output into
// the checked-in BENCH_solve.json trajectory.
func BenchmarkSolveScale(b *testing.B) {
	for _, sc := range []struct {
		k, nFlows int
		smoke     bool
	}{
		{16, 100_000, false},
		{32, 1_000_000, false},
		{48, 1_000_000, true},
	} {
		b.Run(fmt.Sprintf("k=%d", sc.k), func(b *testing.B) {
			benchSolveScale(b, sc.k, sc.nFlows, sc.smoke)
		})
	}
}

// benchSolveScale runs the churn benches on one fat-tree scale. smoke
// trims the matrix to the pod-local workloads so the largest topology
// stays a build-works/solve-converges check rather than a measurement.
func benchSolveScale(b *testing.B, k, nFlows int, smoke bool) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: k})
	if err != nil {
		b.Fatal(err)
	}
	fp, err := topo.NewFatTreePaths(g, k)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	hostsPerPod := k * k / 4
	caps := func(l core.LinkID) core.Rate {
		link := g.Link(l)
		if link == nil {
			return 0
		}
		return link.Rate()
	}
	pair := func(rng *rand.Rand, podLocal bool) (src, dst *topo.Node) {
		si := rng.Intn(len(hosts))
		var di int
		if podLocal {
			pod := si / hostsPerPod
			di = pod*hostsPerPod + rng.Intn(hostsPerPod)
			for di == si {
				di = pod*hostsPerPod + rng.Intn(hostsPerPod)
			}
		} else {
			di = rng.Intn(len(hosts))
			for di == si {
				di = rng.Intn(len(hosts))
			}
		}
		return hosts[si], hosts[di]
	}
	// combined: failure/dynamics injections (cable flaps, capacity
	// changes) concurrent with flow churn, pod-local workload. Each op is
	// one coalesced multi-pod batch — the shape a control plane storm
	// produces — so the dirty region splits into several independent pod
	// components, filled one after another.
	aggEdge := make([][]*topo.Link, k)
	for _, l := range g.Links {
		if l.ID > l.Reverse {
			continue
		}
		from, to := g.Nodes[l.From], g.Nodes[l.To]
		if from.Layer == topo.LayerAgg && to.Layer == topo.LayerEdge ||
			from.Layer == topo.LayerEdge && to.Layer == topo.LayerAgg {
			aggEdge[from.Pod] = append(aggEdge[from.Pod], l)
		}
	}
	b.Run(fmt.Sprintf("combined/flows=%d", nFlows), func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		s := NewSet(caps)
		flowsByPod := make([][]*Flow, k)
		s.Defer()
		for i := 0; i < nFlows; i++ {
			src, dst := pair(rng, true)
			path, err := fp.Path(src.ID, dst.ID, rng.Uint64())
			if err != nil {
				b.Fatal(err)
			}
			f := &Flow{
				ID: FlowID(i + 1), Src: src.ID, Dst: dst.ID,
				Demand: core.Gbps, Path: path, State: Active,
			}
			flowsByPod[g.Node(src.ID).Pod] = append(flowsByPod[g.Node(src.ID).Pod], f)
			s.Add(f, 0)
		}
		s.Resume(0)
		if s.AggregateRx() <= 0 {
			b.Fatal("combined scenario delivered no traffic")
		}
		const podsPerOp = 8
		churn := make([]int, k)
		visits := make([]int, k)
		var err error
		var components, maxComp int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Defer()
			for j := 0; j < podsPerOp; j++ {
				pod := (i*podsPerOp + j) % k
				links := aggEdge[pod]
				v := visits[pod]
				visits[pod]++
				// Flap: consecutive visits to a pod pair up — one
				// cable goes down, the next visit restores that same
				// cable — cycling through the pod's agg-edge cables
				// (capacities only; liveness-level flaps are the
				// netmodel parity test's job).
				flap := links[(v/2)%len(links)]
				if v%2 == 0 {
					s.SetCapacity(flap.ID, 0, 0)
					s.SetCapacity(flap.Reverse, 0, 0)
				} else {
					s.SetCapacity(flap.ID, core.Gbps, 0)
					s.SetCapacity(flap.Reverse, core.Gbps, 0)
				}
				// Capacity change on a second cable, offset by half
				// the list so it never touches the flapping one.
				rl := links[(v/2+len(links)/2)%len(links)]
				rate := core.Gbps
				if v%3 == 0 {
					rate = 500 * core.Mbps
				}
				s.SetCapacity(rl.ID, rate, 0)
				s.SetCapacity(rl.Reverse, rate, 0)
				// Churn two of the pod's flows.
				pf := flowsByPod[pod]
				for c := 0; c < 2; c++ {
					f := pf[churn[pod]%len(pf)]
					churn[pod]++
					s.Remove(f.ID, 0)
					f.Path, err = fp.AppendPath(f.Path[:0], f.Src, f.Dst, rng.Uint64())
					if err != nil {
						b.Fatal(err)
					}
					f.State = Active
					s.Add(f, 0)
				}
			}
			s.Resume(0)
			st := s.last
			components += st.Components
			if st.MaxComponentFlows > maxComp {
				maxComp = st.MaxComponentFlows
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(components)/float64(b.N), "components/op")
		b.ReportMetric(float64(maxComp), "maxcomp-flows")
		if s.Len() != nFlows {
			b.Fatalf("flow count drifted to %d", s.Len())
		}
	})
	for _, workload := range []struct {
		name     string
		podLocal bool
	}{{"crosscore", false}, {"podlocal", true}} {
		if smoke && !workload.podLocal {
			continue
		}
		for _, mode := range []struct {
			name  string
			naive bool
		}{{"incremental", false}, {"naive", true}} {
			if mode.naive && (smoke || nFlows > 150_000) {
				// A single naive solve is O(rounds × flows × pathlen) from
				// scratch; at 1M flows that is minutes per churn op.
				continue
			}
			b.Run(fmt.Sprintf("%s/%s/flows=%d", workload.name, mode.name, nFlows), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				s := NewSet(caps)
				flows := make([]*Flow, nFlows)
				s.Defer()
				for i := range flows {
					src, dst := pair(rng, workload.podLocal)
					path, err := fp.Path(src.ID, dst.ID, rng.Uint64())
					if err != nil {
						b.Fatal(err)
					}
					flows[i] = &Flow{
						ID: FlowID(i + 1), Src: src.ID, Dst: dst.ID,
						Demand: core.Gbps, Path: path, State: Active,
					}
					s.Add(flows[i], 0)
				}
				// solved follows every mutation: the set solves itself, or
				// stays in its batch for naiveSolve.
				solved := func() {}
				if mode.naive {
					solved = func() { naiveSolve(s) }
				} else {
					s.Resume(0)
				}
				solved()
				if s.AggregateRx() <= 0 {
					b.Fatal("scale scenario delivered no traffic")
				}
				var compFlows int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := flows[i%nFlows]
					s.Remove(f.ID, 0)
					solved()
					compFlows += s.last.Flows
					f.Path, err = fp.AppendPath(f.Path[:0], f.Src, f.Dst, rng.Uint64())
					if err != nil {
						b.Fatal(err)
					}
					f.State = Active
					s.Add(f, 0)
					solved()
					compFlows += s.last.Flows
				}
				b.StopTimer()
				b.ReportMetric(float64(compFlows)/float64(b.N), "compflows/op")
				if s.Len() != nFlows {
					b.Fatalf("flow count drifted to %d", s.Len())
				}
			})
		}
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
