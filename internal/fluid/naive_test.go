package fluid

import (
	"math"

	"repro/internal/core"
)

// The two reference solves the tests hold the incremental solver to. Both
// are test scaffolding: no production path reaches either.

// fullSolve runs muts and then solves the whole set as one Defer batch
// with every known link seeded. A batch never speculates, so this is the
// plain closure over everything: the full-closure reference of the
// speculative twins and the full re-solve BenchmarkSolve times.
func fullSolve(s *Set, now core.Time, muts ...func(*Set)) {
	s.Defer()
	for _, m := range muts {
		m(s)
	}
	for lh := range s.lID {
		s.seed(int32(lh))
	}
	s.Resume(now)
}

// naiveSolve is the pre-incremental solver: a from-scratch progressive
// filling of the current state that rebuilds per-link state in fresh maps
// and raises all active flows by uniform increments. It ignores Defer and
// ends like a solve of the set (seeds spent, stats recorded). A set whose
// every mutation is followed by naiveSolve inside an open Defer batch is
// the naive baseline BenchmarkSolveScale measures the incremental solver
// against, and a from-scratch naiveSolve of a final state is the
// differential oracle of the parity tests — max–min allocations are
// unique, so both solvers must agree.
//
// It deliberately keeps the original cost model (fresh map and slice
// allocations per solve, uniform epsilon rounds) while reading flows and
// paths through the struct-of-arrays store; only the persistent-load
// refresh at the end uses the CSR member index.
//
// Capacities come from the persistent link store (s.lCap), which folds in
// SetCapacity overrides and clamps negatives to zero at the boundary — a
// flow crossing a zero-capacity link freezes at rate 0 in the first round
// instead of driving the increment negative and relying on the
// numeric-dust fallback to terminate.
func naiveSolve(s *Set) {
	type naiveLink struct {
		cap    core.Rate
		load   core.Rate // allocation already granted on this link
		active int       // flows still being filled
	}
	links := make(map[int32]*naiveLink)
	var active []int32
	for fh := range s.fID {
		st := s.fState[fh]
		if st == stateFree {
			continue
		}
		pb := s.fPath[fh]
		if st != Active || pb.n == 0 {
			s.fRate[fh] = 0
			continue
		}
		s.fRate[fh] = 0
		active = append(active, int32(fh))
		for i := int32(0); i < pb.n; i++ {
			lh := s.paths.a[pb.off+i]
			nl := links[lh]
			if nl == nil {
				nl = &naiveLink{cap: s.lCap[lh]}
				links[lh] = nl
			}
			nl.active++
		}
	}
	s.last = SolveStats{Flows: len(active), Links: len(links), Components: 1,
		MaxComponentFlows: len(active)}

	// Progressive filling: raise all active flows together until a link
	// saturates or a flow reaches its demand; freeze and repeat.
	rounds := 0
	for len(active) > 0 {
		rounds++
		// The largest uniform increment every active flow can take.
		inc := core.Rate(math.Inf(1))
		for _, fh := range active {
			if room := s.fDemand[fh] - s.fRate[fh]; room < inc {
				inc = room
			}
		}
		for _, nl := range links {
			if nl.active == 0 {
				continue
			}
			if share := (nl.cap - nl.load) / core.Rate(nl.active); share < inc {
				inc = share
			}
		}
		if inc < 0 {
			inc = 0
		}
		// Apply the increment.
		for _, fh := range active {
			s.fRate[fh] += inc
			pb := s.fPath[fh]
			for i := int32(0); i < pb.n; i++ {
				links[s.paths.a[pb.off+i]].load += inc
			}
		}
		// Freeze flows that hit their demand or cross a saturated link.
		var rest []int32
		for _, fh := range active {
			pb := s.fPath[fh]
			frozen := s.fDemand[fh]-s.fRate[fh] <= s.epsilon
			if !frozen {
				for i := int32(0); i < pb.n; i++ {
					nl := links[s.paths.a[pb.off+i]]
					if nl.cap-nl.load <= s.epsilon {
						frozen = true
						break
					}
				}
			}
			if frozen {
				for i := int32(0); i < pb.n; i++ {
					links[s.paths.a[pb.off+i]].active--
				}
			} else {
				rest = append(rest, fh)
			}
		}
		if len(rest) == len(active) {
			// No progress is possible (can only happen from numeric
			// dust); freeze everything to guarantee termination.
			for _, fh := range active {
				pb := s.fPath[fh]
				for i := int32(0); i < pb.n; i++ {
					links[s.paths.a[pb.off+i]].active--
				}
			}
			rest = nil
		}
		active = rest
	}
	s.last.Rounds = rounds

	// Refresh the persistent per-link granted loads so O(1) accessors
	// (LinkRate) and CheckInvariants see the naive allocation.
	for lh := range s.lID {
		mb := s.lMem[lh]
		var load core.Rate
		for j := int32(0); j < mb.n; j++ {
			load += s.fRate[s.members.a[mb.off+j]]
		}
		s.lLoad[lh] = load
	}
	s.endSolve()
}

// naiveMode returns how a test adds a flow to s at time 0: directly, or,
// with naive, into a Defer batch held open for good, each Add followed by
// a naiveSolve — the set solved by the reference alone.
func naiveMode(s *Set, naive bool) (add func(*Flow)) {
	if !naive {
		return func(f *Flow) { s.Add(f, 0) }
	}
	s.Defer()
	return func(f *Flow) {
		s.Add(f, 0)
		naiveSolve(s)
	}
}

// naiveOracle builds a fresh set over caps holding copies of s's flows
// and solves it once from scratch with naiveSolve.
func naiveOracle(s *Set, caps func(core.LinkID) core.Rate) *Set {
	oracle := NewSet(caps)
	oracle.Defer()
	for _, f := range s.Flows() {
		clone := &Flow{ID: f.ID, Demand: f.Demand, State: f.State, Dst: f.Dst}
		clone.Path = append([]core.LinkID(nil), f.Path...)
		oracle.Add(clone, 0)
	}
	naiveSolve(oracle)
	return oracle
}
