package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// mutate applies the same deterministic mutation sequence to a set:
// random adds, removes, reroutes and capacity flaps across nClusters
// disjoint link clusters of width clusterLinks.
func mutate(s *Set, seed int64, idBase, nClusters, clusterLinks, ops int) {
	mutateEach(s, seed, idBase, nClusters, clusterLinks, ops, func() {})
}

// mutateEach is mutate with a callback after every solve.
func mutateEach(s *Set, seed int64, idBase, nClusters, clusterLinks, ops int, solved func()) {
	rng := rand.New(rand.NewSource(seed))
	randPath := func() []core.LinkID {
		cluster := rng.Intn(nClusters)
		base := cluster * clusterLinks
		plen := rng.Intn(3) + 1
		seen := map[int]bool{}
		var path []core.LinkID
		for len(path) < plen {
			l := base + rng.Intn(clusterLinks)
			if !seen[l] {
				seen[l] = true
				path = append(path, core.LinkID(l))
			}
		}
		return path
	}
	live := []FlowID{}
	next := idBase
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case len(live) == 0 || r < 0.4:
			f := &Flow{ID: FlowID(next), Demand: core.Rate(rng.Intn(1000)+1) * core.Mbps, State: Active, Path: randPath()}
			next++
			live = append(live, f.ID)
			s.Add(f, 0)
		case r < 0.55:
			i := rng.Intn(len(live))
			s.Remove(live[i], 0)
			live = append(live[:i], live[i+1:]...)
		case r < 0.7:
			s.SetPath(live[rng.Intn(len(live))], randPath(), 0)
		case r < 0.85:
			// Capacity flap on a random link (including down to zero).
			l := core.LinkID(rng.Intn(nClusters * clusterLinks))
			caps := []core.Rate{0, 300 * core.Mbps, core.Gbps}
			s.SetCapacity(l, caps[rng.Intn(len(caps))], 0)
		default:
			// A deferred batch touching several clusters at once — the
			// multi-component parallel path.
			s.Defer()
			for j := 0; j < 4; j++ {
				l := core.LinkID(rng.Intn(nClusters * clusterLinks))
				s.SetCapacity(l, core.Rate(rng.Intn(1000)+1)*core.Mbps, 0)
			}
			s.Resume(0)
		}
		solved()
	}
}

// TestParallelWorkersBitIdentical drives an identical mutation history
// through solvers at worker counts 1, 2 and 8 and requires bit-identical
// rates and identical merged SolveStats after every single mutation —
// the determinism guarantee of the sharded solver.
func TestParallelWorkersBitIdentical(t *testing.T) {
	const nClusters, clusterLinks = 6, 5
	for seed := int64(0); seed < 8; seed++ {
		sets := map[int]*Set{}
		for _, w := range []int{1, 2, 8} {
			s := NewSet(capsConst(core.Gbps))
			s.SetWorkers(w)
			// Shard hint: cluster index, as netmodel would wire it.
			s.SetShardOf(func(l core.LinkID) int { return int(l) / clusterLinks })
			sets[w] = s
		}
		// Interleave the histories so divergence is caught at the first
		// chunk that diverges, not at the end.
		for chunk := 0; chunk < 10; chunk++ {
			for _, w := range []int{1, 2, 8} {
				mutateChunk(sets[w], seed, chunk)
			}
			ref := sets[1]
			for _, w := range []int{2, 8} {
				s := sets[w]
				if got, want := len(s.Flows()), len(ref.Flows()); got != want {
					t.Fatalf("seed %d chunk %d: workers=%d has %d flows, workers=1 has %d", seed, chunk, w, got, want)
				}
				for _, f := range ref.Flows() {
					o, ok := s.Flow(f.ID)
					if !ok {
						t.Fatalf("seed %d chunk %d: workers=%d missing flow %d", seed, chunk, w, f.ID)
					}
					if math.Float64bits(float64(f.Rate)) != math.Float64bits(float64(o.Rate)) {
						t.Fatalf("seed %d chunk %d: flow %d rate %v (workers=1) vs %v (workers=%d) — not bit-identical",
							seed, chunk, f.ID, f.Rate, o.Rate, w)
					}
				}
				lw, lr := s.LastSolve(), ref.LastSolve()
				lw.Workers, lr.Workers = 0, 0 // the only field allowed to differ
				if lw != lr {
					t.Fatalf("seed %d chunk %d: workers=%d stats %+v vs workers=1 %+v", seed, chunk, w, lw, lr)
				}
			}
		}
	}
}

// mutateChunk applies chunk c of the seeded mutation history (each chunk
// re-derives the rng deterministically from seed and chunk index).
func mutateChunk(s *Set, seed int64, chunk int) {
	mutate(s, seed*1000+int64(chunk), 1+chunk*1000, 6, 5, 12)
}

// TestSolveStatsComponents checks component accounting: independent dirty
// regions in one deferred batch are counted and sized separately, and a
// memberless capacity change contributes links but no component.
func TestSolveStatsComponents(t *testing.T) {
	s := NewSet(capsConst(core.Gbps))
	s.Defer()
	// Cluster A: 2 flows on link 0; cluster B: 1 flow on link 10.
	s.Add(mkFlow(1, core.Gbps, 0), 0)
	s.Add(mkFlow(2, core.Gbps, 0), 0)
	s.Add(mkFlow(3, core.Gbps, 10), 0)
	// An idle link's capacity change: quiet, no component.
	s.SetCapacity(20, 500*core.Mbps, 0)
	s.Resume(0)
	st := s.LastSolve()
	if st.Components != 2 {
		t.Fatalf("components = %d, want 2 (clusters A and B): %+v", st.Components, st)
	}
	if st.MaxComponentFlows != 2 {
		t.Fatalf("max component flows = %d, want 2: %+v", st.MaxComponentFlows, st)
	}
	if st.Flows != 3 {
		t.Fatalf("flows = %d, want 3: %+v", st.Flows, st)
	}
	if st.Links != 3 { // links 0, 10 and the quiet 20
		t.Fatalf("links = %d, want 3 (incl. the quiet link): %+v", st.Links, st)
	}
}

// TestTotalsOncePerSolve pins the Defer/Resume contract: a batch of many
// mutations accumulates exactly one sample into Totals, and per-solve
// counters never double-count across batches.
func TestTotalsOncePerSolve(t *testing.T) {
	s := NewSet(capsConst(core.Gbps))
	s.Add(mkFlow(1, core.Gbps, 0), 0)
	base := s.Totals()
	if base.Solves != 1 || base.Flows != 1 {
		t.Fatalf("totals after one add = %+v", base)
	}
	s.Defer()
	for i := 2; i <= 9; i++ {
		s.Add(mkFlow(i, core.Gbps, 0), 0)
	}
	s.Resume(0)
	tot := s.Totals()
	if tot.Solves != base.Solves+1 {
		t.Fatalf("batch accumulated %d solves, want 1", tot.Solves-base.Solves)
	}
	if got := tot.Flows - base.Flows; got != 9 {
		t.Fatalf("batch accumulated %d flows, want 9 (the one batched region solve)", got)
	}
	if tot.Components-base.Components != 1 {
		t.Fatalf("batch accumulated %d components, want 1", tot.Components-base.Components)
	}
	// A no-op Solve must not accumulate.
	s.Solve(0)
	if s.Totals() != tot {
		t.Fatalf("no-op solve changed totals: %+v -> %+v", tot, s.Totals())
	}
}

// TestShardHintIsSemanticsFree checks that an adversarially wrong shard
// function changes nothing about the solved rates: the partition is a
// routing hint, closure expansion is the correctness mechanism.
func TestShardHintIsSemanticsFree(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		plain := NewSet(capsConst(core.Gbps))
		hinted := NewSet(capsConst(core.Gbps))
		hinted.SetWorkers(4)
		// Pathological hint: every link its own shard.
		hinted.SetShardOf(func(l core.LinkID) int { return int(l) })
		mutate(plain, seed, 1, 4, 6, 80)
		mutate(hinted, seed, 1, 4, 6, 80)
		for _, f := range plain.Flows() {
			o, ok := hinted.Flow(f.ID)
			if !ok {
				t.Fatalf("seed %d: hinted set missing flow %d", seed, f.ID)
			}
			if math.Float64bits(float64(f.Rate)) != math.Float64bits(float64(o.Rate)) {
				t.Fatalf("seed %d: flow %d rate %v vs %v under per-link sharding", seed, f.ID, f.Rate, o.Rate)
			}
		}
	}
}

// TestParallelSolveRaces exercises the multi-component fan-out with the
// worker pool under load so `go test -race` can observe any sharing
// between concurrently solved components.
func TestParallelSolveRaces(t *testing.T) {
	const nClusters, clusterLinks = 16, 4
	s := NewSet(capsConst(core.Gbps))
	s.SetWorkers(8)
	s.SetShardOf(func(l core.LinkID) int { return int(l) / clusterLinks })
	id := 1
	for c := 0; c < nClusters; c++ {
		for i := 0; i < 8; i++ {
			base := c * clusterLinks
			s.Add(&Flow{
				ID: FlowID(id), Demand: core.Gbps, State: Active,
				Path: []core.LinkID{core.LinkID(base + i%clusterLinks), core.LinkID(base + (i+1)%clusterLinks)},
			}, 0)
			id++
		}
	}
	for round := 0; round < 50; round++ {
		s.Defer()
		for c := 0; c < nClusters; c++ {
			l := core.LinkID(c*clusterLinks + round%clusterLinks)
			if round%2 == 0 {
				s.SetCapacity(l, 0, 0)
			} else {
				s.SetCapacity(l, core.Gbps, 0)
			}
		}
		s.Resume(0)
		if st := s.LastSolve(); st.Components < 2 {
			t.Fatalf("round %d: expected a multi-component solve, got %+v", round, st)
		}
	}
	if s.Totals().ParallelSolves == 0 {
		t.Fatal("no solve ever fanned out to multiple workers")
	}
}

func ExampleSet_SetWorkers() {
	s := NewSet(func(core.LinkID) core.Rate { return core.Gbps })
	s.SetWorkers(4)
	s.Defer()
	s.Add(&Flow{ID: 1, Demand: core.Gbps, State: Active, Path: []core.LinkID{0}}, 0)
	s.Add(&Flow{ID: 2, Demand: core.Gbps, State: Active, Path: []core.LinkID{9}}, 0)
	s.Resume(0)
	st := s.LastSolve()
	fmt.Println(st.Components, st.Flows)
	// Output: 2 2
}
