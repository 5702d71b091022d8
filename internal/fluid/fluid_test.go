package fluid

import (
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func capsConst(c core.Rate) func(core.LinkID) core.Rate {
	return func(core.LinkID) core.Rate { return c }
}

func mkFlow(id int, demand core.Rate, path ...int) *Flow {
	links := make([]core.LinkID, len(path))
	for i, p := range path {
		links[i] = core.LinkID(p)
	}
	return &Flow{
		ID:     FlowID(id),
		Tuple:  core.FiveTuple{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"), Proto: core.ProtoUDP, SrcPort: uint16(id), DstPort: 1},
		Demand: demand,
		Path:   links,
		State:  Active,
		Dst:    core.NodeID(id % 4),
	}
}

// rateOf/bytesOf/stateOf read a flow's current allocation through the
// snapshot API (the set copies specs into its store; the structs passed
// to Add do not track later changes).
func rateOf(s *Set, id int) core.Rate {
	f, _ := s.Flow(FlowID(id))
	return f.Rate
}

func bytesOf(s *Set, id int) uint64 {
	f, _ := s.Flow(FlowID(id))
	return f.Bytes
}

func stateOf(s *Set, id int) State {
	f, _ := s.Flow(FlowID(id))
	return f.State
}

// refreshRates copies the solved rates back into locally held specs so
// invariant checks can keep using the spec structs.
func refreshRates(s *Set, flows []*Flow) {
	for _, f := range flows {
		snap, _ := s.Flow(f.ID)
		f.Rate = snap.Rate
	}
}

func approxEq(a, b core.Rate) bool { return math.Abs(float64(a-b)) < 1e3 } // 1 Kbps slack

func TestSingleFlowGetsDemand(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, 400*core.Mbps, 0, 1), 0)
	if got := rateOf(s, 1); !approxEq(got, 400*core.Mbps) {
		t.Fatalf("rate = %v, want 400Mbps", got)
	}
}

func TestBottleneckShared(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, 1*core.Gbps, 0), 0)
	s.Add(mkFlow(2, 1*core.Gbps, 0), 0)
	if r1, r2 := rateOf(s, 1), rateOf(s, 2); !approxEq(r1, 500*core.Mbps) || !approxEq(r2, 500*core.Mbps) {
		t.Fatalf("rates = %v, %v, want 500Mbps each", r1, r2)
	}
}

func TestMaxMinClassicTriangle(t *testing.T) {
	// Classic example: link A shared by f1,f2; link B shared by f2,f3.
	// cap(A)=1, cap(B)=2 (Gbps). Max–min: f1=f2=0.5 on A; f3 gets
	// 2-0.5=1.5 but demand-capped at 1.
	s := NewSet(func(l core.LinkID) core.Rate {
		if l == 0 {
			return 1 * core.Gbps
		}
		return 2 * core.Gbps
	})
	s.Add(mkFlow(1, 1*core.Gbps, 0), 0)
	s.Add(mkFlow(2, 1*core.Gbps, 0, 1), 0)
	s.Add(mkFlow(3, 1*core.Gbps, 1), 0)
	if got := rateOf(s, 1); !approxEq(got, 500*core.Mbps) {
		t.Errorf("f1 = %v, want 500Mbps", got)
	}
	if got := rateOf(s, 2); !approxEq(got, 500*core.Mbps) {
		t.Errorf("f2 = %v, want 500Mbps", got)
	}
	if got := rateOf(s, 3); !approxEq(got, 1*core.Gbps) {
		t.Errorf("f3 = %v, want 1Gbps (demand-capped)", got)
	}
}

func TestUnequalDemands(t *testing.T) {
	// Two flows on one 1G link, demands 200M and 2G: max-min gives the
	// small flow its demand and the rest to the big one.
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, 200*core.Mbps, 0), 0)
	s.Add(mkFlow(2, 2*core.Gbps, 0), 0)
	if got := rateOf(s, 1); !approxEq(got, 200*core.Mbps) {
		t.Errorf("small = %v, want 200Mbps", got)
	}
	if got := rateOf(s, 2); !approxEq(got, 800*core.Mbps) {
		t.Errorf("big = %v, want 800Mbps", got)
	}
}

func TestBlackholedFlowGetsZero(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	f := mkFlow(1, 1*core.Gbps)
	f.Path = nil
	f.State = Pending
	s.Add(f, 0)
	if got := rateOf(s, 1); got != 0 {
		t.Fatalf("pending flow rate = %v, want 0", got)
	}
	// Install a route: flow comes alive.
	s.SetPath(1, []core.LinkID{0}, core.Second)
	if got := rateOf(s, 1); !approxEq(got, 1*core.Gbps) {
		t.Fatalf("routed flow rate = %v", got)
	}
	// Blackhole again.
	s.SetPath(1, nil, 2*core.Second)
	if got, st := rateOf(s, 1), stateOf(s, 1); got != 0 || st != Pending {
		t.Fatalf("blackholed flow rate = %v state=%v", got, st)
	}
}

func TestRemoveRedistributes(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, 1*core.Gbps, 0), 0)
	s.Add(mkFlow(2, 1*core.Gbps, 0), 0)
	final, ok := s.Remove(1, core.Second)
	if !ok {
		t.Fatal("Remove(1) reported missing")
	}
	if got := rateOf(s, 2); !approxEq(got, 1*core.Gbps) {
		t.Fatalf("survivor rate = %v, want 1Gbps", got)
	}
	if final.State != Done || final.Rate != 0 {
		t.Fatalf("removed flow snapshot = %+v", final)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, ok := s.Remove(99, core.Second); ok { // absent: no-op
		t.Fatal("Remove(99) reported ok")
	}
}

func TestByteIntegration(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, 1*core.Gbps, 0, 1), 0)
	s.Integrate(2 * core.Second)
	// 1 Gbps for 2s = 250 MB.
	if got := bytesOf(s, 1); got != 250_000_000 {
		t.Fatalf("bytes = %d, want 250000000", got)
	}
	// Integration is idempotent at the same timestamp.
	s.Integrate(2 * core.Second)
	if got := bytesOf(s, 1); got != 250_000_000 {
		t.Fatalf("double integrate changed bytes: %d", got)
	}
}

// TestIntegrateNeverRewinds: a now earlier than the last integration must
// not move the clock back, or the next call integrates an interval twice
// (10 ms, then 5 ms, then 10 ms again used to deliver 15 ms worth).
func TestIntegrateNeverRewinds(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, 1*core.Gbps, 0, 1), 0)
	s.Integrate(10 * core.Millisecond)
	s.Integrate(5 * core.Millisecond)
	s.Integrate(10 * core.Millisecond)
	// 1 Gbps for 10 ms = 1.25 MB, once.
	if got := bytesOf(s, 1); got != 1_250_000 {
		t.Fatalf("flow bytes = %d, want 1250000", got)
	}
	// A mutation stamped in the past integrates nothing and rewinds nothing.
	s.Add(mkFlow(2, 1*core.Gbps, 2), 2*core.Millisecond)
	s.Integrate(20 * core.Millisecond)
	if f1, f2 := bytesOf(s, 1), bytesOf(s, 2); f1 != 2_500_000 || f2 != 1_250_000 {
		t.Fatalf("bytes after a late-stamped Add = %d / %d, want 2500000 / 1250000", f1, f2)
	}
}

func TestByteIntegrationAcrossRateChange(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, 1*core.Gbps, 0), 0)
	// After 1s a second flow joins; f1 drops to 500 Mbps.
	s.Add(mkFlow(2, 1*core.Gbps, 0), 1*core.Second)
	s.Integrate(3 * core.Second)
	// f1: 1s @ 1G + 2s @ 0.5G = 125MB + 125MB = 250MB.
	if got := bytesOf(s, 1); got != 250_000_000 {
		t.Fatalf("f1 bytes = %d, want 250000000", got)
	}
	// f2: 2s @ 0.5G = 125MB.
	if got := bytesOf(s, 2); got != 125_000_000 {
		t.Fatalf("f2 bytes = %d, want 125000000", got)
	}
}

func TestAggregateAndPerDstRates(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	f1 := mkFlow(1, 300*core.Mbps, 0)
	f1.Dst = 7
	f2 := mkFlow(2, 400*core.Mbps, 1)
	f2.Dst = 8
	s.Add(f1, 0)
	s.Add(f2, 0)
	if !approxEq(s.AggregateRx(), 700*core.Mbps) {
		t.Fatalf("aggregate = %v", s.AggregateRx())
	}
	per := s.RxRateByDst(nil)
	if !approxEq(per[7], 300*core.Mbps) || !approxEq(per[8], 400*core.Mbps) {
		t.Fatalf("per-dst = %v", per)
	}
	if !approxEq(s.LinkRate(0), 300*core.Mbps) {
		t.Fatalf("link rate = %v", s.LinkRate(0))
	}
	if s.LinkRate(99) != 0 {
		t.Fatalf("unused link rate = %v", s.LinkRate(99))
	}
}

func TestRxRateByDstReusesMap(t *testing.T) {
	// The sampler passes the same map every tick: it must be cleared and
	// refilled, and returned as-is, without allocating a fresh map.
	s := NewSet(capsConst(1 * core.Gbps))
	f := mkFlow(1, 300*core.Mbps, 0)
	f.Dst = 7
	s.Add(f, 0)
	buf := map[core.NodeID]core.Rate{42: core.Gbps} // stale entry must vanish
	got := s.RxRateByDst(buf)
	if len(got) != 1 || !approxEq(got[7], 300*core.Mbps) {
		t.Fatalf("reused map = %v", got)
	}
	if _, stale := got[42]; stale {
		t.Fatal("stale entry survived reuse")
	}
	allocs := testing.AllocsPerRun(100, func() { s.RxRateByDst(buf) })
	if allocs != 0 {
		t.Fatalf("RxRateByDst allocates %v per call with a reused map, want 0", allocs)
	}
}

func TestDuplicateFlowIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewSet(capsConst(core.Gbps))
	s.Add(mkFlow(1, core.Gbps, 0), 0)
	s.Add(mkFlow(1, core.Gbps, 0), 0)
}

func TestSolveIsLazy(t *testing.T) {
	s := NewSet(capsConst(core.Gbps))
	s.Add(mkFlow(1, core.Gbps, 0), 0)
	before := s.Totals().Solves
	s.Solve(0)
	s.Solve(0)
	if s.Totals().Solves != before {
		t.Fatal("Solve recomputed without changes")
	}
}

// Max–min fairness invariants, property-checked on random instances:
//  1. No link is oversubscribed.
//  2. No flow exceeds its demand.
//  3. Every flow is bottlenecked: it either meets its demand or crosses a
//     saturated link where it has a maximal rate among that link's flows.
func TestMaxMinInvariants(t *testing.T) {
	const nLinks = 12
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(capsConst(1 * core.Gbps))
		nf := rng.Intn(20) + 2
		var flows []*Flow
		for i := 0; i < nf; i++ {
			plen := rng.Intn(4) + 1
			seen := map[int]bool{}
			var path []int
			for len(path) < plen {
				l := rng.Intn(nLinks)
				if !seen[l] {
					seen[l] = true
					path = append(path, l)
				}
			}
			demand := core.Rate(rng.Intn(1900)+100) * core.Mbps / 100
			f := mkFlow(i+1, demand, path...)
			flows = append(flows, f)
			s.Add(f, 0)
		}
		refreshRates(s, flows)
		// Invariant 1: link loads within capacity (+1Kbps slack).
		loads := map[core.LinkID]core.Rate{}
		for _, f := range flows {
			for _, l := range f.Path {
				loads[l] += f.Rate
			}
		}
		for l, load := range loads {
			if load > core.Gbps+1e3 {
				t.Logf("seed %d: link %v oversubscribed: %v", seed, l, load)
				return false
			}
		}
		for _, f := range flows {
			// Invariant 2.
			if f.Rate > f.Demand+1e3 {
				t.Logf("seed %d: flow %d above demand", seed, f.ID)
				return false
			}
			// Invariant 3.
			if f.Demand-f.Rate <= 1e3 {
				continue // satisfied
			}
			bottled := false
			for _, l := range f.Path {
				if core.Gbps-loads[l] > 1e3 {
					continue // link has headroom
				}
				// Saturated link: f must have a maximal share here.
				maxOther := core.Rate(0)
				for _, g := range flows {
					for _, gl := range g.Path {
						if gl == l && g.Rate > maxOther {
							maxOther = g.Rate
						}
					}
				}
				if f.Rate >= maxOther-1e3 {
					bottled = true
					break
				}
			}
			if !bottled {
				t.Logf("seed %d: flow %d (rate %v, demand %v) not bottlenecked", seed, f.ID, f.Rate, f.Demand)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariants hand-builds the states the checker exists to catch.
// The solver never produces them, so they are written into the store
// directly.
func TestCheckInvariants(t *testing.T) {
	build := func() *Set {
		s := NewSet(capsConst(core.Gbps))
		s.Add(mkFlow(1, core.Gbps, 0, 1), 0)
		s.Add(mkFlow(2, core.Gbps, 1, 2), 0)
		s.Add(mkFlow(3, 100*core.Mbps, 3), 0)
		s.Add(mkFlow(4, core.Gbps), 0) // blackholed
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("solved state: %v", err)
		}
		return s
	}
	h := func(s *Set, id FlowID) int32 { return s.byID[id] }
	for _, tc := range []struct {
		name    string
		corrupt func(s *Set)
		want    string
	}{
		{"over capacity", func(s *Set) {
			s.fRate[h(s, 1)] = 700 * core.Mbps // link 1 now carries 1.2 Gbps
			s.lLoad[s.byLink[0]] = 700 * core.Mbps
			s.lLoad[s.byLink[1]] = 1200 * core.Mbps
		}, "over capacity"},
		{"stale load", func(s *Set) { s.lLoad[s.byLink[3]] = 0 }, "granted load"},
		{"no bottleneck", func(s *Set) {
			// Both flows held below the fair share: link 1 is no longer
			// saturated, so nothing explains why they are not at demand.
			for _, id := range []FlowID{1, 2} {
				s.fRate[h(s, id)] = 400 * core.Mbps
			}
			for _, l := range []core.LinkID{0, 2} {
				s.lLoad[s.byLink[l]] = 400 * core.Mbps
			}
			s.lLoad[s.byLink[1]] = 800 * core.Mbps
		}, "no bottleneck"},
		{"unfair share", func(s *Set) {
			// Link 1 saturated, but flow 1 sits below flow 2 on it.
			s.fRate[h(s, 1)], s.fRate[h(s, 2)] = 300*core.Mbps, 700*core.Mbps
			s.lLoad[s.byLink[0]], s.lLoad[s.byLink[2]] = 300*core.Mbps, 700*core.Mbps
		}, "no bottleneck"},
		{"above demand", func(s *Set) {
			s.fRate[h(s, 3)] = 200 * core.Mbps
			s.lLoad[s.byLink[3]] = 200 * core.Mbps
		}, "outside"},
		{"blackholed flow with a rate", func(s *Set) { s.fRate[h(s, 4)] = 1 }, "want 0"},
		{"unsolved mutation", func(s *Set) { s.Defer(); s.Remove(3, 0) }, "pending"},
	} {
		s := build()
		tc.corrupt(s)
		err := s.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestFlowsAccessors(t *testing.T) {
	s := NewSet(capsConst(core.Gbps))
	f1 := mkFlow(1, core.Gbps, 0)
	f1.Dst = 5
	f2 := mkFlow(2, core.Gbps, 1)
	f2.Dst = 5
	s.Add(f1, 0)
	s.Add(f2, 0)
	if got := s.Flows(); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("Flows order = %v", got)
	}
	if got := s.Flows(); len(got[0].Path) != 1 || got[0].Path[0] != 0 {
		t.Fatalf("Flows()[0].Path = %v", got[0].Path)
	}
	if _, ok := s.Flow(1); !ok {
		t.Fatal("Flow(1) missing")
	}
	if _, ok := s.Flow(9); ok {
		t.Fatal("Flow(9) present")
	}
	if !s.PathEqual(1, []core.LinkID{0}) || s.PathEqual(1, []core.LinkID{1}) {
		t.Fatal("PathEqual wrong")
	}
	if got := s.AppendPath(nil, 2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("AppendPath = %v", got)
	}
	if got := s.AppendFlows(nil); len(got) != 2 || got[0].ID != 1 {
		t.Fatalf("AppendFlows = %v", got)
	}
}

func TestStateString(t *testing.T) {
	if Pending.String() != "pending" || Active.String() != "active" || Done.String() != "done" {
		t.Fatal("state strings wrong")
	}
	if State(9).String() != "state9" {
		t.Fatal("unknown state string wrong")
	}
}

func TestPermutationOnSharedCoreConverges(t *testing.T) {
	// 8 flows all crossing one shared 1G core link: each gets 125 Mbps;
	// this is the "no congestion avoidance" worst case of the demo.
	s := NewSet(capsConst(1 * core.Gbps))
	for i := 0; i < 8; i++ {
		s.Add(mkFlow(i+1, 1*core.Gbps, 50, 100+i), 0)
	}
	for i := 0; i < 8; i++ {
		if got := rateOf(s, i+1); !approxEq(got, 125*core.Mbps) {
			t.Fatalf("rate = %v, want 125Mbps", got)
		}
	}
}

// --- Regression: zero- and negative-capacity links -----------------------

func TestZeroCapacityLink(t *testing.T) {
	for _, naive := range []bool{false, true} {
		name := "incremental"
		if naive {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			s := NewSet(func(l core.LinkID) core.Rate {
				if l == 0 {
					return 0 // failed link
				}
				return core.Gbps
			})
			add := naiveMode(s, naive)
			add(mkFlow(1, core.Gbps, 0, 1)) // crosses the dead link
			add(mkFlow(2, core.Gbps, 1))    // healthy link only
			if got := rateOf(s, 1); got != 0 {
				t.Errorf("flow across zero-capacity link: rate = %v, want 0", got)
			}
			if got := rateOf(s, 2); !approxEq(got, core.Gbps) {
				t.Errorf("healthy flow: rate = %v, want 1Gbps", got)
			}
			if got := s.LinkRate(0); got != 0 {
				t.Errorf("zero-capacity link load = %v, want 0", got)
			}
		})
	}
}

func TestNegativeCapacityClamped(t *testing.T) {
	for _, naive := range []bool{false, true} {
		name := "incremental"
		if naive {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			s := NewSet(func(core.LinkID) core.Rate { return -5 * core.Gbps })
			naiveMode(s, naive)(mkFlow(1, core.Gbps, 0))
			if got := rateOf(s, 1); got != 0 || math.IsNaN(float64(got)) {
				t.Fatalf("rate on negative-capacity link = %v, want 0", got)
			}
		})
	}
}

// TestDustFreezeTermination drives both solvers through allocations that
// produce repeating-fraction shares and sub-epsilon demand differences —
// the regime where the naive solver's increments shrink toward numeric
// dust — and checks that they terminate with valid max–min allocations.
func TestDustFreezeTermination(t *testing.T) {
	caps := func(l core.LinkID) core.Rate {
		// Capacities with non-terminating binary fractions.
		return core.Gbps / core.Rate(3+int(l)%7)
	}
	for _, naive := range []bool{false, true} {
		name := "incremental"
		if naive {
			name = "naive"
		}
		t.Run(name, func(t *testing.T) {
			s := NewSet(caps)
			add := naiveMode(s, naive)
			var flows []*Flow
			for i := 0; i < 30; i++ {
				// Demands differing by fractions of the 1 bps epsilon.
				d := core.Gbps/3 + core.Rate(i)*0.1
				f := mkFlow(i+1, d, i%5, 5+i%7)
				flows = append(flows, f)
				add(f) // must return: termination is the test
			}
			refreshRates(s, flows)
			loads := map[core.LinkID]core.Rate{}
			for _, f := range flows {
				if f.Rate < 0 {
					t.Fatalf("flow %d left unfrozen (rate %v)", f.ID, f.Rate)
				}
				if f.Rate > f.Demand+1e3 {
					t.Fatalf("flow %d above demand: %v > %v", f.ID, f.Rate, f.Demand)
				}
				for _, l := range f.Path {
					loads[l] += f.Rate
				}
			}
			for l, load := range loads {
				if load > caps(l)+1e3 {
					t.Fatalf("link %v oversubscribed: %v > %v", l, load, caps(l))
				}
			}
		})
	}
}

// --- Accounting guards for the incremental bookkeeping -------------------

func TestIntegrateAcrossRemoveMidInterval(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, core.Gbps, 0, 1), 0)
	s.Add(mkFlow(2, core.Gbps, 0), 0) // both at 500 Mbps on link 0
	final, ok := s.Remove(1, core.Second)
	if !ok {
		t.Fatal("Remove(1) missing")
	}
	// f1 existed 1s @ 500 Mbps = 62.5 MB; the final snapshot is the last
	// chance to read its byte count.
	if final.Bytes != 62_500_000 {
		t.Fatalf("removed flow bytes = %d, want 62500000", final.Bytes)
	}
	s.Integrate(3 * core.Second)
	if _, stillThere := s.Flow(1); stillThere {
		t.Fatal("removed flow still queryable")
	}
	// f2: 1s @ 500 Mbps + 2s @ 1 Gbps = 62.5 MB + 250 MB.
	if got := bytesOf(s, 2); got != 312_500_000 {
		t.Fatalf("survivor bytes = %d, want 312500000", got)
	}
}

func TestRxRateByDstAfterSetPath(t *testing.T) {
	// Two destinations; rerouting f2 off the shared bottleneck must move
	// both flows' rates and the per-destination receive map.
	s := NewSet(capsConst(1 * core.Gbps))
	f1 := mkFlow(1, core.Gbps, 0)
	f1.Dst = 7
	f2 := mkFlow(2, core.Gbps, 0)
	f2.Dst = 8
	s.Add(f1, 0)
	s.Add(f2, 0)
	per := s.RxRateByDst(nil)
	if !approxEq(per[7], 500*core.Mbps) || !approxEq(per[8], 500*core.Mbps) {
		t.Fatalf("pre-reroute per-dst = %v", per)
	}
	s.SetPath(2, []core.LinkID{1}, core.Second) // move f2 to its own link
	per = s.RxRateByDst(per)
	if !approxEq(per[7], core.Gbps) || !approxEq(per[8], core.Gbps) {
		t.Fatalf("post-reroute per-dst = %v", per)
	}
	if !approxEq(s.LinkRate(0), core.Gbps) || !approxEq(s.LinkRate(1), core.Gbps) {
		t.Fatalf("link loads = %v, %v", s.LinkRate(0), s.LinkRate(1))
	}
	// Blackhole f2: its rate vanishes from the map and from link 1.
	s.SetPath(2, nil, 2*core.Second)
	per = s.RxRateByDst(per)
	if _, ok := per[8]; ok {
		t.Fatalf("blackholed dst still receiving: %v", per)
	}
	if got := s.LinkRate(1); got != 0 {
		t.Fatalf("link 1 load after blackhole = %v", got)
	}
}

// --- Dirty-region cut ----------------------------------------------------

func TestDirtyRegionComponentCut(t *testing.T) {
	// Two clusters sharing no links: {links 0,1} and {links 10,11}.
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, core.Gbps, 0, 1), 0)
	s.Add(mkFlow(2, core.Gbps, 0), 0)
	s.Add(mkFlow(3, core.Gbps, 10, 11), 0)
	s.Add(mkFlow(4, core.Gbps, 10), 0)
	// Removing flow 2 must re-solve only cluster A.
	s.Remove(2, 0)
	st := s.last
	if st.Flows != 1 {
		t.Fatalf("component stats after cluster-A removal = %+v, want Flows=1 (cluster A only)", st)
	}
	if st.Links != 2 {
		t.Fatalf("component links = %d, want 2 (links 0 and 1)", st.Links)
	}
	if got := rateOf(s, 1); !approxEq(got, core.Gbps) {
		t.Fatalf("cluster-A survivor = %v, want 1Gbps", got)
	}
	if r3, r4 := rateOf(s, 3), rateOf(s, 4); !approxEq(r3, 500*core.Mbps) || !approxEq(r4, 500*core.Mbps) {
		t.Fatalf("cluster B disturbed: %v, %v", r3, r4)
	}
}

func TestDeferBatchesSolves(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, core.Gbps, 0), 0)
	before := s.Totals().Solves
	s.Defer()
	for i := 2; i <= 10; i++ {
		s.Add(mkFlow(i, core.Gbps, 0), 0)
	}
	if got := s.Totals().Solves - before; got != 0 {
		t.Fatalf("solver ran inside deferred batch: %d solves", got)
	}
	s.Resume(0)
	if got := s.Totals().Solves - before; got != 1 {
		t.Fatalf("batch resume ran %d solves, want 1", got)
	}
	for _, f := range s.Flows() {
		if !approxEq(f.Rate, 100*core.Mbps) {
			t.Fatalf("rate after batch = %v, want 100Mbps", f.Rate)
		}
	}
}

// --- Differential testing: incremental vs naive oracle -------------------

// TestNaiveIncrementalParity churns random flow sets through the
// incremental solver and checks every allocation against a from-scratch
// naive solve of the same final state. Max–min allocations are unique, so
// any divergence is a bug in the incremental bookkeeping.
func TestNaiveIncrementalParity(t *testing.T) {
	const nLinks = 16
	caps := func(l core.LinkID) core.Rate {
		if l == 3 {
			return 0 // keep a dead link in the mix
		}
		return core.Gbps / core.Rate(1+int(l)%3)
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc := NewSet(caps)
		randPath := func() []core.LinkID {
			plen := rng.Intn(4) + 1
			seen := map[int]bool{}
			var path []core.LinkID
			for len(path) < plen {
				l := rng.Intn(nLinks)
				if !seen[l] {
					seen[l] = true
					path = append(path, core.LinkID(l))
				}
			}
			return path
		}
		live := map[FlowID]bool{}
		next := 1
		for op := 0; op < 60; op++ {
			switch {
			case len(live) == 0 || rng.Float64() < 0.5: // add
				f := mkFlow(next, core.Rate(rng.Intn(2000)+1)*core.Mbps/2, 0)
				next++
				f.Path = randPath()
				live[f.ID] = true
				inc.Add(f, 0)
			case rng.Float64() < 0.5: // remove
				for id := range live {
					delete(live, id)
					inc.Remove(id, 0)
					break
				}
			default: // reroute (sometimes blackhole)
				for id := range live {
					if rng.Float64() < 0.2 {
						inc.SetPath(id, nil, 0)
					} else {
						inc.SetPath(id, randPath(), 0)
					}
					break
				}
			}
			if err := inc.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		// Oracle: same final flows, naive full solve.
		oracle := naiveOracle(inc, caps)
		for _, f := range inc.Flows() {
			o, ok := oracle.Flow(f.ID)
			if !ok {
				t.Fatalf("seed %d: oracle missing flow %d", seed, f.ID)
			}
			if !approxEq(f.Rate, o.Rate) {
				t.Fatalf("seed %d: flow %d rate %v (incremental) vs %v (naive oracle)",
					seed, f.ID, f.Rate, o.Rate)
			}
		}
		// Persistent link loads must match a recount from flow rates.
		for l := 0; l < nLinks; l++ {
			var want core.Rate
			for _, f := range inc.Flows() {
				if f.State != Active {
					continue
				}
				for _, fl := range f.Path {
					if fl == core.LinkID(l) {
						want += f.Rate
					}
				}
			}
			if !approxEq(inc.LinkRate(core.LinkID(l)), want) {
				t.Fatalf("seed %d: link %d load %v, recount %v",
					seed, l, inc.LinkRate(core.LinkID(l)), want)
			}
		}
	}
}

func TestSetCapacityCollapseAndRestore(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, core.Gbps, 0, 1), 0)
	s.Add(mkFlow(2, core.Gbps, 2), 0)
	if r1, r2 := rateOf(s, 1), rateOf(s, 2); !approxEq(r1, core.Gbps) || !approxEq(r2, core.Gbps) {
		t.Fatalf("initial rates %v %v", r1, r2)
	}
	// Link 1 dies: flow 1 collapses to zero, flow 2 is untouched.
	s.SetCapacity(1, 0, core.Second)
	if got := rateOf(s, 1); got != 0 {
		t.Fatalf("rate over dead link = %v, want 0", got)
	}
	if got := rateOf(s, 2); !approxEq(got, core.Gbps) {
		t.Fatalf("unrelated flow disturbed: %v", got)
	}
	// Degraded capacity, then full restore.
	s.SetCapacity(1, 300*core.Mbps, 2*core.Second)
	if got := rateOf(s, 1); !approxEq(got, 300*core.Mbps) {
		t.Fatalf("degraded rate = %v, want 300Mbps", got)
	}
	s.SetCapacity(1, core.Gbps, 3*core.Second)
	if got := rateOf(s, 1); !approxEq(got, core.Gbps) {
		t.Fatalf("restored rate = %v, want 1Gbps", got)
	}
	// Byte accounting integrated through the outage: 1s at 1G, 1s at 0,
	// 1s at 300M.
	s.Integrate(3 * core.Second)
	want := core.Rate(core.Gbps).BytesIn(core.Second) + core.Rate(300*core.Mbps).BytesIn(core.Second)
	if got := bytesOf(s, 1); got != want {
		t.Fatalf("bytes through outage = %d, want %d", got, want)
	}
}

func TestSetCapacityDirtyRegionConfined(t *testing.T) {
	// Two disjoint components; a capacity change in one must not re-solve
	// the other.
	s := NewSet(capsConst(1 * core.Gbps))
	for i := 0; i < 8; i++ {
		s.Add(mkFlow(i+1, core.Gbps, i), 0) // flows on links 0..7, disjoint
	}
	s.SetCapacity(2, 100*core.Mbps, 0)
	if st := s.last; st.Links != 1 || st.Flows != 1 {
		t.Fatalf("solve stats after SetCapacity = %+v, want 1 link / 1 flow region", st)
	}
	// No-op capacity change must not solve at all.
	n := s.Totals().Solves
	s.SetCapacity(2, 100*core.Mbps, 0)
	if s.Totals().Solves != n {
		t.Fatal("no-op SetCapacity triggered a solve")
	}
}

func TestSetCapacityNoAllocsSteadyState(t *testing.T) {
	// A capacity flap on a warmed-up set must not allocate: the
	// injection path reuses the persistent link state and the solver
	// scratch. (The acceptance bar for the failure-injection subsystem.)
	s := NewSet(capsConst(1 * core.Gbps))
	for i := 0; i < 32; i++ {
		f := mkFlow(i+1, core.Gbps, i%8, 8+(i%4))
		s.Add(f, 0)
	}
	// Warm up both capacity values so link state exists.
	s.SetCapacity(8, 0, 0)
	s.SetCapacity(8, core.Gbps, 0)
	allocs := testing.AllocsPerRun(100, func() {
		s.SetCapacity(8, 0, 0)
		s.SetCapacity(8, core.Gbps, 0)
	})
	if allocs != 0 {
		t.Fatalf("SetCapacity allocates %v per flap, want 0", allocs)
	}
}

// TestSetCapacityParity extends the naive-vs-incremental oracle with
// capacity mutations: random add/remove/reroute interleaved with
// SetCapacity (including zero-capacity failures) must leave the
// incremental solver agreeing with a from-scratch naive solve over the
// final capacities.
func TestSetCapacityParity(t *testing.T) {
	const nLinks = 12
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		capsMap := make(map[core.LinkID]core.Rate, nLinks)
		for l := 0; l < nLinks; l++ {
			capsMap[core.LinkID(l)] = core.Gbps
		}
		caps := func(l core.LinkID) core.Rate { return capsMap[l] }
		inc := NewSet(caps)
		randPath := func() []core.LinkID {
			plen := rng.Intn(3) + 1
			seen := map[int]bool{}
			var path []core.LinkID
			for len(path) < plen {
				l := rng.Intn(nLinks)
				if !seen[l] {
					seen[l] = true
					path = append(path, core.LinkID(l))
				}
			}
			return path
		}
		live := map[FlowID]bool{}
		next := 1
		for op := 0; op < 80; op++ {
			r := rng.Float64()
			switch {
			case len(live) == 0 || r < 0.35: // add
				f := mkFlow(next, core.Rate(rng.Intn(2000)+1)*core.Mbps/2, 0)
				next++
				f.Path = randPath()
				live[f.ID] = true
				inc.Add(f, 0)
			case r < 0.5: // remove
				for id := range live {
					delete(live, id)
					inc.Remove(id, 0)
					break
				}
			case r < 0.8: // capacity mutation (25% of them failures)
				l := core.LinkID(rng.Intn(nLinks))
				var c core.Rate
				if rng.Float64() < 0.25 {
					c = 0
				} else {
					c = core.Rate(rng.Intn(1000)+1) * core.Mbps
				}
				capsMap[l] = c
				inc.SetCapacity(l, c, 0)
			default: // reroute
				for id := range live {
					inc.SetPath(id, randPath(), 0)
					break
				}
			}
			if err := inc.CheckInvariants(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		oracle := naiveOracle(inc, caps)
		for _, f := range inc.Flows() {
			o, ok := oracle.Flow(f.ID)
			if !ok {
				t.Fatalf("seed %d: oracle missing flow %d", seed, f.ID)
			}
			if !approxEq(f.Rate, o.Rate) {
				t.Fatalf("seed %d: flow %d rate %v (incremental) vs %v (naive oracle after SetCapacity)",
					seed, f.ID, f.Rate, o.Rate)
			}
		}
	}
}

func TestPathLatency(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	// Per-link delay: link id in milliseconds.
	s.SetDelayOf(func(l core.LinkID) core.Time { return core.Time(l) * core.Millisecond })
	s.Add(mkFlow(1, 100*core.Mbps, 1, 2, 3), 0) // 6ms total
	s.Add(mkFlow(2, 300*core.Mbps, 10), 0)      // 10ms
	if lat, ok := s.PathLatency(1); !ok || lat != 6*core.Millisecond {
		t.Fatalf("f1 latency = %v/%v, want 6ms", lat, ok)
	}
	if lat, ok := s.PathLatency(2); !ok || lat != 10*core.Millisecond {
		t.Fatalf("f2 latency = %v/%v, want 10ms", lat, ok)
	}
	if _, ok := s.PathLatency(99); ok {
		t.Fatal("latency reported for unknown flow")
	}
	// Rate-weighted mean: (100M*6ms + 300M*10ms) / 400M = 9ms.
	if got := s.MeanPathLatency(); got != 9*core.Millisecond {
		t.Fatalf("mean latency = %v, want 9ms", got)
	}
	// A blackholed flow contributes nothing.
	s.SetPath(1, nil, 0)
	if got := s.MeanPathLatency(); got != 10*core.Millisecond {
		t.Fatalf("mean latency after blackhole = %v, want 10ms", got)
	}
}

func TestPathLatencyWithoutDelayFunc(t *testing.T) {
	s := NewSet(capsConst(1 * core.Gbps))
	s.Add(mkFlow(1, 100*core.Mbps, 1, 2), 0)
	if lat, ok := s.PathLatency(1); !ok || lat != 0 {
		t.Fatalf("latency without delay func = %v/%v, want 0", lat, ok)
	}
	if got := s.MeanPathLatency(); got != 0 {
		t.Fatalf("mean latency without delay func = %v", got)
	}
}
