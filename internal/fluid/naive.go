package fluid

import (
	"math"

	"repro/internal/core"
)

// solveNaive is the pre-incremental solver: a from-scratch progressive
// filling that rebuilds per-link state in fresh maps on every solve and
// raises all active flows by uniform increments. It is retained behind
// SetNaive as the benchmark baseline (BenchmarkSolveScale measures the
// incremental solver against it) and as a differential-testing oracle —
// max–min allocations are unique, so both solvers must agree.
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
func (s *Set) solveNaive() {
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
		MaxComponentFlows: len(active), Full: true}

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
	// (LinkRate) stay correct in naive mode.
	for lh := range s.lID {
		mb := s.lMem[lh]
		var load core.Rate
		for j := int32(0); j < mb.n; j++ {
			load += s.fRate[s.members.a[mb.off+j]]
		}
		s.lLoad[lh] = load
	}
}
