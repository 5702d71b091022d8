package fluid

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// CheckInvariants verifies that the standing allocation is one a solve may
// leave behind, from the definition of max–min fairness alone — no second
// solver is consulted:
//
//   - capacity: on every link the member rates sum to at most the capacity,
//     and the persistent granted load (LinkRate) equals that sum;
//   - bottleneck: every active routed flow with positive demand holds its
//     demand, or crosses a saturated link on which no member holds a higher
//     rate — the property that makes the allocation unique, and the one the
//     speculative closure rests on;
//   - pending, blackholed and demandless flows hold rate 0.
//
// Tolerances follow the solver's resolution: epsilon per member on a link,
// 1e-9 relative on sums. It reports the first violation, or that mutations
// are still waiting for their solve (inside a Defer batch the loads are
// stale by design). It allocates; it is meant for tests and debugging.
func (s *Set) CheckInvariants() error {
	if len(s.seeds) > 0 {
		return fmt.Errorf("fluid: mutations pending, allocation not solved yet")
	}
	sums := make([]core.Rate, len(s.lID))
	tops := make([]core.Rate, len(s.lID))
	tol := func(lh int32) core.Rate {
		return s.epsilon*core.Rate(s.lMem[lh].n+1) + 1e-9*s.lCap[lh]
	}
	for lh := range s.lID {
		mb := s.lMem[lh]
		for j := int32(0); j < mb.n; j++ {
			r := s.fRate[s.members.a[mb.off+j]]
			sums[lh] += r
			tops[lh] = max(tops[lh], r)
		}
		sum, load := sums[lh], s.lLoad[lh]
		if sum > s.lCap[lh]+tol(int32(lh)) {
			return fmt.Errorf("fluid: link %v carries %v over capacity %v (%d flows)",
				s.lID[lh], sum, s.lCap[lh], mb.n)
		}
		if math.Abs(float64(load-sum)) > 1e-9*math.Max(1, math.Max(float64(load), float64(sum))) {
			return fmt.Errorf("fluid: link %v granted load %v, member rates sum to %v",
				s.lID[lh], load, sum)
		}
	}
	for fh := range s.fID {
		if s.fState[fh] == stateFree {
			continue
		}
		rate, demand, pb := s.fRate[fh], s.fDemand[fh], s.fPath[fh]
		if s.fState[fh] != Active || pb.n == 0 || demand <= 0 {
			if rate != 0 {
				return fmt.Errorf("fluid: flow %d (%v, %d hops, demand %v) holds rate %v, want 0",
					s.fID[fh], s.fState[fh], pb.n, demand, rate)
			}
			continue
		}
		if rate < 0 || rate > demand+s.epsilon {
			return fmt.Errorf("fluid: flow %d rate %v outside [0, demand %v]", s.fID[fh], rate, demand)
		}
		if rate >= demand-s.epsilon {
			continue
		}
		bottlenecked := false
		for i := int32(0); i < pb.n && !bottlenecked; i++ {
			lh := s.paths.a[pb.off+i]
			saturated := sums[lh] >= s.lCap[lh]-tol(lh)
			bottlenecked = saturated && tops[lh] <= rate+2*s.epsilon+1e-9*rate
		}
		if !bottlenecked {
			return fmt.Errorf("fluid: flow %d at %v below demand %v has no bottleneck link on its path",
				s.fID[fh], rate, demand)
		}
	}
	return nil
}
