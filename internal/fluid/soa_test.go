package fluid

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// --- Steady-state allocation guards ---------------------------------------
//
// The struct-of-arrays store exists so the event-driven hot path — remove a
// flow, admit a replacement, re-solve the dirty component — runs without
// touching the heap once the tables have warmed up. These guards pin that
// property with testing.AllocsPerRun for the two traffic shapes the
// experiments churn through: pod-local mice (short two-hop paths confined
// to one cluster) and cross-core elephants (four-hop paths sharing core
// links across clusters).

// podLocalPath keeps flow i inside its pod: host uplink then ToR downlink.
func podLocalPath(i int) []core.LinkID {
	pod := i % 16
	return []core.LinkID{
		core.LinkID(1000 + pod*16 + i%8),
		core.LinkID(2000 + pod*16 + (i/8)%8),
	}
}

// crossCorePath sends flow i up through a shared core plane and back down
// into another pod: uplink, aggregation, core, destination downlink.
func crossCorePath(i int) []core.LinkID {
	src, dst := i%16, (i+7)%16
	return []core.LinkID{
		core.LinkID(1000 + src*16 + i%8),
		core.LinkID(3000 + src*4 + i%4),
		core.LinkID(4000 + i%8),
		core.LinkID(2000 + dst*16 + (i/8)%8),
	}
}

func testChurnZeroAlloc(t *testing.T, mkPath func(i int) []core.LinkID) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the non-race job")
	}
	const nFlows = 256
	s := NewSet(func(core.LinkID) core.Rate { return 10 * core.Gbps })
	paths := make([][]core.LinkID, nFlows)
	for i := range paths {
		paths[i] = mkPath(i)
	}
	s.Defer()
	for i := 0; i < nFlows; i++ {
		s.Add(&Flow{ID: FlowID(i + 1), Demand: core.Gbps, State: Active, Path: paths[i]}, 0)
	}
	s.Resume(0)

	// Warm the store: cycle every slot once so freelist, arena blocks and
	// solver scratch reach their steady-state footprint.
	spec := &Flow{Demand: core.Gbps, State: Active}
	churn := func(i int) {
		id := FlowID(i + 1)
		if _, ok := s.Remove(id, 0); !ok {
			t.Fatalf("flow %d missing before churn", id)
		}
		spec.ID = id
		spec.Path = paths[i]
		s.Add(spec, 0)
	}
	for i := 0; i < nFlows; i++ {
		churn(i)
	}

	idx := 0
	avg := testing.AllocsPerRun(200, func() {
		churn(idx % nFlows)
		idx++
	})
	if avg != 0 {
		t.Fatalf("steady-state churn+solve allocates %.2f allocs/op, want 0", avg)
	}
}

func TestChurnZeroAllocPodLocal(t *testing.T)  { testChurnZeroAlloc(t, podLocalPath) }
func TestChurnZeroAllocCrossCore(t *testing.T) { testChurnZeroAlloc(t, crossCorePath) }

// TestChurnZeroAllocContended pins the same property where the closure
// speculates (links outnumber flows; see contendedChurn): passive lists,
// promotions and refills reuse grown-once scratch like the rest.
func TestChurnZeroAllocContended(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the non-race job")
	}
	s, churn := contendedChurn(t)
	for i := 0; i < 1000; i++ {
		churn()
	}
	base := s.Totals()
	if avg := testing.AllocsPerRun(500, churn); avg != 0 {
		t.Fatalf("steady-state contended churn+solve allocates %.2f allocs/op, want 0", avg)
	}
	if tot := s.Totals(); tot.Refills == base.Refills || tot.Promoted == base.Promoted {
		t.Fatalf("the guarded ops never refilled: %+v", tot)
	}
}

// TestFullSolveZeroAlloc pins the MarkDirty+Solve path (the cost the WAN
// scenarios pay on a topology-wide event): after the first full solve has
// sized the scratch, repeats must not allocate either.
func TestFullSolveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the non-race job")
	}
	s := NewSet(func(core.LinkID) core.Rate { return 10 * core.Gbps })
	s.Defer()
	for i := 0; i < 512; i++ {
		s.Add(&Flow{ID: FlowID(i + 1), Demand: core.Gbps, State: Active, Path: crossCorePath(i)}, 0)
	}
	s.Resume(0)
	s.MarkDirty()
	s.Solve(0)
	avg := testing.AllocsPerRun(50, func() {
		s.MarkDirty()
		s.Solve(0)
	})
	if avg != 0 {
		t.Fatalf("steady-state full solve allocates %.2f allocs/op, want 0", avg)
	}
}

// --- Memory gauge plumbing ------------------------------------------------

// TestMemStatsGauges checks the SolveStats.Mem counters track the store:
// live/free slot counts follow churn, arenas and scratch report resident
// bytes, and Totals folds the elementwise peak.
func TestMemStatsGauges(t *testing.T) {
	s := NewSet(func(core.LinkID) core.Rate { return core.Gbps })
	const n = 64
	s.Defer()
	for i := 0; i < n; i++ {
		s.Add(&Flow{ID: FlowID(i + 1), Demand: core.Gbps, State: Active, Path: crossCorePath(i)}, 0)
	}
	s.Resume(0)
	m := s.LastSolve().Mem
	if m.LiveFlows != n || m.FlowSlots != n || m.FreeFlows != 0 {
		t.Fatalf("after %d adds: %+v", n, m)
	}
	if m.LinkSlots == 0 || m.PathArenaBytes == 0 || m.MemberArenaBytes == 0 {
		t.Fatalf("resident gauges should be nonzero: %+v", m)
	}

	for i := 0; i < n/2; i++ {
		s.Remove(FlowID(i+1), 0)
	}
	m = s.LastSolve().Mem
	if m.LiveFlows != n/2 || m.FreeFlows != n/2 || m.FlowSlots != n {
		t.Fatalf("after removing half: %+v", m)
	}

	// Readmission drains the freelist instead of growing the table.
	s.Add(&Flow{ID: FlowID(n + 1), Demand: core.Gbps, State: Active, Path: crossCorePath(3)}, 0)
	m = s.LastSolve().Mem
	if m.FlowSlots != n || m.FreeFlows != n/2-1 {
		t.Fatalf("readmission should reuse a free slot: %+v", m)
	}

	peak := s.Totals().Mem
	if peak.LiveFlows != n || peak.FlowSlots != n {
		t.Fatalf("Totals.Mem should hold the peak: %+v", peak)
	}
}

// --- Differential churn + failure oracle ----------------------------------

// TestChurnFailureParityWithNaive drives a seeded mix of adds, removes,
// reroutes and link failures (capacity flaps to zero) through the
// incremental solver and through the naive progressive-filling oracle,
// checking the max–min invariants after every solve. Max–min allocations
// are unique, so the two must agree within solver epsilon.
func TestChurnFailureParityWithNaive(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rates := map[bool]map[FlowID]core.Rate{}
		for _, naive := range []bool{false, true} {
			s := NewSet(func(core.LinkID) core.Rate { return core.Gbps })
			s.SetNaive(naive)
			mutateEach(s, seed, 1, 6, 8, 400, func() {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("seed %d naive=%v: %v", seed, naive, err)
				}
			})
			rates[naive] = map[FlowID]core.Rate{}
			for _, f := range s.Flows() {
				rates[naive][f.ID] = f.Rate
			}
		}
		if len(rates[true]) != len(rates[false]) {
			t.Fatalf("seed %d: naive oracle has %d flows, incremental %d", seed, len(rates[true]), len(rates[false]))
		}
		for id, r := range rates[false] {
			if !approxEq(rates[true][id], r) {
				t.Fatalf("seed %d flow %d: incremental %v vs naive oracle %v", seed, id, r, rates[true][id])
			}
		}
	}
}

// ExampleSolveStats_mem shows where the memory gauges surface.
func ExampleSolveStats_mem() {
	s := NewSet(func(core.LinkID) core.Rate { return core.Gbps })
	s.Add(&Flow{ID: 1, Demand: core.Gbps, State: Active, Path: []core.LinkID{1, 2}}, 0)
	s.Remove(1, 0)
	m := s.LastSolve().Mem
	fmt.Printf("slots=%d live=%d free=%d\n", m.FlowSlots, m.LiveFlows, m.FreeFlows)
	// Output: slots=1 live=0 free=1
}
