package fluid

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// mutateEach applies a deterministic mutation sequence to a set — random
// adds, removes, reroutes and capacity flaps across nClusters disjoint link
// clusters of width clusterLinks — calling solved after every solve.
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
			// A deferred batch touching several clusters at once: several
			// components in one solve.
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

// foldRates folds the id and the rate bits of every live flow into h.
func foldRates(h hash.Hash64, s *Set) {
	for _, f := range s.Flows() {
		fmt.Fprintf(h, "%d=%016x;", f.ID, math.Float64bits(float64(f.Rate)))
	}
}

// TestGoldenRateDigest pins the solver's output to the bit: an FNV-1a
// digest over every flow's rate after every solve of the seeded mutate
// histories (seeds 0-4, 4 clusters of 6 links, 80 operations each, the
// Defer batches included). One history, one answer, every time: a change
// that moves the digest has changed discovery order or fill arithmetic and
// has to say so.
func TestGoldenRateDigest(t *testing.T) {
	const golden = 0x5a5e2c1b90996fb7
	h := fnv.New64a()
	for seed := int64(0); seed < 5; seed++ {
		s := NewSet(capsConst(core.Gbps))
		mutateEach(s, seed, 1, 4, 6, 80, func() { foldRates(h, s) })
	}
	if got := h.Sum64(); got != golden {
		t.Fatalf("rate digest %#016x, want %#016x", got, uint64(golden))
	}
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
	st := s.last
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
