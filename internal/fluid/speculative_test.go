package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// ratesClose is the tolerance the root package's solver parity suite
// grants two solvers of the same problem: solver output is defined up to
// epsilon, not to the bit (see the package comment).
func ratesClose(a, b core.Rate) bool {
	diff := math.Abs(float64(a - b))
	return diff <= 1e-3 || diff <= 1e-6*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
}

// specTwins drives one mutation history through a speculating set and
// through a reference twin that takes every mutation through fullSolve —
// a batch over every link, which never speculates, so the twin is the
// full-closure solver without any knob to select it. On the speculating
// set single mutations go in directly (those solves speculate), Defer
// batches as batches (those do not, and leave the next speculation a
// standing allocation it did not make).
type specTwins struct {
	t    *testing.T
	ctx  string
	caps map[core.LinkID]core.Rate
	spec *Set
	ref  *Set
	live []FlowID
	now  core.Time
}

func newSpecTwins(t *testing.T, nLinks int, capOf func(l int) core.Rate) *specTwins {
	tw := &specTwins{t: t, caps: make(map[core.LinkID]core.Rate, nLinks)}
	for l := 0; l < nLinks; l++ {
		tw.caps[core.LinkID(l)] = capOf(l)
	}
	caps := func(l core.LinkID) core.Rate { return tw.caps[l] }
	tw.spec, tw.ref = NewSet(caps), NewSet(caps)
	return tw
}

// apply runs one mutation directly, or several as one Defer batch, on both
// sets — one solve each — then compares.
func (tw *specTwins) apply(muts []func(s *Set)) {
	tw.now += core.Millisecond
	fullSolve(tw.ref, tw.now, muts...)
	if len(muts) > 1 {
		tw.spec.Defer()
	}
	for _, m := range muts {
		m(tw.spec)
	}
	if len(muts) > 1 {
		tw.spec.Resume(tw.now)
	}
	tw.compare()
}

func (tw *specTwins) compare() {
	t := tw.t
	t.Helper()
	if err := tw.spec.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", tw.ctx, err)
	}
	if err := tw.ref.CheckInvariants(); err != nil {
		t.Fatalf("%s: reference: %v", tw.ctx, err)
	}
	if st := tw.ref.last; st.Links != len(tw.ref.lID) || st.Refills != 0 {
		t.Fatalf("%s: reference solve was not a plain full solve: %+v", tw.ctx, st)
	}
	for _, id := range tw.live {
		got, _ := tw.spec.Flow(id)
		want, ok := tw.ref.Flow(id)
		if !ok || !ratesClose(got.Rate, want.Rate) {
			t.Fatalf("%s: flow %d rate %v, full-closure reference %v", tw.ctx, id, got.Rate, want.Rate)
		}
	}
	for l := range tw.caps {
		got := tw.spec.LinkRate(l)
		if want := tw.ref.LinkRate(l); !ratesClose(got, want) {
			t.Fatalf("%s: link %d load %v, reference %v", tw.ctx, l, got, want)
		}
	}
}

// TestSpeculativeMatchesFullSolve is the differential test of the
// speculative closure: random histories over Add/Remove/SetPath (with
// blackholes)/SetCapacity (with failures)/Defer batches, with uniform and
// mixed demands and capacities, must leave every rate where the
// full-closure reference puts it after every single solve.
func TestSpeculativeMatchesFullSolve(t *testing.T) {
	const (
		nClusters, clusterLinks = 4, 16
		nLinks                  = nClusters * clusterLinks
		maxLive                 = 44 // below nLinks: the speculation runs once the links are known
	)
	seeds, ops := 32, 3000
	if testing.Short() || raceEnabled {
		seeds = 6
	}
	mixedCaps := []core.Rate{500 * core.Mbps, core.Gbps, core.Gbps, 2 * core.Gbps, 10 * core.Gbps}
	var refills, promoted int
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		uniformDemand, uniformCap := seed%2 == 0, seed%4 < 2
		capOf := func(int) core.Rate { return core.Gbps }
		if !uniformCap {
			capOf = func(int) core.Rate { return mixedCaps[rng.Intn(len(mixedCaps))] }
		}
		tw := newSpecTwins(t, nLinks, capOf)
		demand := func() core.Rate {
			if uniformDemand {
				return core.Gbps
			}
			return core.Rate(rng.Intn(1500)+1) * core.Mbps
		}
		// Mostly cluster-local paths, some crossing into a second cluster.
		randPath := func() []core.LinkID {
			base := rng.Intn(nClusters) * clusterLinks
			plen := rng.Intn(4) + 1
			seen := map[int]bool{}
			var path []core.LinkID
			for len(path) < plen {
				l := base + rng.Intn(clusterLinks)
				if rng.Intn(10) == 0 {
					l = rng.Intn(nLinks)
				}
				if !seen[l] {
					seen[l] = true
					path = append(path, core.LinkID(l))
				}
			}
			return path
		}
		next := 1
		// mutation draws one random mutation now and returns it as a
		// replayable closure, so every set sees identical arguments.
		mutation := func() func(s *Set) {
			switch r := rng.Float64(); {
			case len(tw.live) == 0 || (r < 0.4 && len(tw.live) < maxLive):
				f := Flow{ID: FlowID(next), Demand: demand(), State: Active, Path: randPath()}
				next++
				tw.live = append(tw.live, f.ID)
				return func(s *Set) { spec := f; s.Add(&spec, tw.now) }
			case r < 0.6:
				i := rng.Intn(len(tw.live))
				id := tw.live[i]
				tw.live = append(tw.live[:i], tw.live[i+1:]...)
				return func(s *Set) { s.Remove(id, tw.now) }
			case r < 0.8:
				id := tw.live[rng.Intn(len(tw.live))]
				var path []core.LinkID
				if rng.Intn(6) > 0 { // else blackhole
					path = randPath()
				}
				return func(s *Set) { s.SetPath(id, path, tw.now) }
			default:
				l := core.LinkID(rng.Intn(nLinks))
				c := core.Rate(0)
				if rng.Intn(5) > 0 { // else fail the link
					c = core.Rate(rng.Intn(2000)+1) * core.Mbps
				}
				return func(s *Set) {
					tw.caps[l] = c // in step for a link first seen later
					s.SetCapacity(l, c, tw.now)
				}
			}
		}
		for op := 0; op < ops; op++ {
			tw.ctx = fmt.Sprintf("seed %d op %d", seed, op)
			batch := 1
			if rng.Intn(8) == 0 {
				batch = rng.Intn(4) + 2
			}
			muts := make([]func(*Set), batch)
			for i := range muts {
				muts[i] = mutation()
			}
			tw.apply(muts)
		}
		tot := tw.spec.Totals()
		refills += tot.Refills
		promoted += tot.Promoted
	}
	if refills == 0 || promoted == 0 {
		t.Fatalf("the histories never refilled (refills %d, promoted %d): the speculation was not exercised", refills, promoted)
	}
	t.Logf("%d seeds x %d ops: %d refills, %d links promoted", seeds, ops, refills, promoted)
}

// TestRefillOnPromotion builds the smallest miss by hand: flow 1 holds
// 600 Mbps over links 0-1, leaving link 1 slack; flow 2 arrives over links
// 1-2 wanting 1 Gbps. The first fill sees no active link and grants the
// demand, the check finds link 1 at 1.6 Gbps, promotes it, and the refill
// shares it: 500 Mbps each.
func TestRefillOnPromotion(t *testing.T) {
	s := NewSet(capsConst(core.Gbps))
	s.Add(mkFlow(1, 600*core.Mbps, 0, 1), 0)
	if got := rateOf(s, 1); got != 600*core.Mbps {
		t.Fatalf("flow 1 alone = %v, want its demand", got)
	}
	s.Add(mkFlow(2, core.Gbps, 1, 2), 0)
	st := s.last
	if st.Refills != 1 || st.Promoted != 1 {
		t.Fatalf("arrival on a slack link: %+v, want 1 refill promoting 1 link", st)
	}
	if st.Flows != 2 || st.Links != 3 {
		t.Fatalf("region after the refill = %d flows / %d links, want 2 / 3", st.Flows, st.Links)
	}
	if r1, r2 := rateOf(s, 1), rateOf(s, 2); r1 != 500*core.Mbps || r2 != 500*core.Mbps {
		t.Fatalf("rates %v / %v, want 500Mbps each", r1, r2)
	}
	for l, want := range []core.Rate{500 * core.Mbps, core.Gbps, 500 * core.Mbps} {
		if got := s.LinkRate(core.LinkID(l)); got != want {
			t.Fatalf("link %d load %v, want %v", l, got, want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Flow 2 leaves again: link 1 is saturated now, so it is active, flow 1
	// is re-solved with it and recovers without a refill.
	s.Remove(2, 0)
	if st := s.last; st.Refills != 0 || rateOf(s, 1) != 600*core.Mbps {
		t.Fatalf("after the departure: %+v, flow 1 at %v", st, rateOf(s, 1))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculationGatedWhenFlowsOutnumberLinks replays the same miss with
// as many live flows as known links: the closure must not speculate (one
// fill per solve, nothing promoted) and must still be right.
func TestSpeculationGatedWhenFlowsOutnumberLinks(t *testing.T) {
	s := NewSet(capsConst(core.Gbps))
	s.Add(mkFlow(1, 600*core.Mbps, 0, 1), 0)
	s.Add(mkFlow(3, 100*core.Mbps, 2), 0)
	s.Add(mkFlow(2, core.Gbps, 1, 2), 0) // 3 live flows, 3 known links
	if r1, r2, r3 := rateOf(s, 1), rateOf(s, 2), rateOf(s, 3); r1 != 500*core.Mbps || r2 != 500*core.Mbps || r3 != 100*core.Mbps {
		t.Fatalf("rates %v / %v / %v, want 500Mbps, 500Mbps, 100Mbps", r1, r2, r3)
	}
	for i := 0; i < 50; i++ {
		s.Remove(2, 0)
		s.Add(mkFlow(4, 50*core.Mbps, 0), 0)
		s.Add(mkFlow(2, core.Gbps, 1, 2), 0)
		s.Remove(4, 0)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if tot := s.Totals(); tot.Refills != 0 || tot.Promoted != 0 {
		t.Fatalf("speculated with flows >= links: %+v", tot)
	}
}

// TestCapacityReadCreatesNoLinkSlot asks for the capacity of links no flow
// has crossed in the middle of the gated history above. The reads answer
// from the caps callback (clamped at zero) and leave the link store alone:
// a slot per read would lift the known links above the live flows and
// turn the last arrival into a speculating solve with a refill.
func TestCapacityReadCreatesNoLinkSlot(t *testing.T) {
	s := NewSet(func(l core.LinkID) core.Rate {
		if l == 99 {
			return -core.Gbps
		}
		return core.Gbps
	})
	s.Add(mkFlow(1, 600*core.Mbps, 0, 1), 0)
	s.Add(mkFlow(3, 100*core.Mbps, 2), 0)
	for l := core.LinkID(50); l < 60; l++ {
		if got := s.Capacity(l); got != core.Gbps {
			t.Fatalf("capacity of unseen link %d = %v, want 1Gbps", l, got)
		}
	}
	if got := s.Capacity(99); got != 0 {
		t.Fatalf("negative capacity read back as %v, want 0", got)
	}
	if got := s.Capacity(1); got != core.Gbps {
		t.Fatalf("capacity of a known link = %v, want 1Gbps", got)
	}
	s.Add(mkFlow(2, core.Gbps, 1, 2), 0) // 3 live flows, 3 known links
	if st := s.last; st.Mem.LinkSlots != 3 || st.Refills != 0 {
		t.Fatalf("after the reads: %d link slots, %d refills, want 3 and 0: %+v", st.Mem.LinkSlots, st.Refills, st)
	}
}

// TestBatchSolveDoesNotSpeculate replays the miss of TestRefillOnPromotion
// inside a Defer batch: the solve Resume releases takes the plain closure —
// one fill over both flows and all three links — whatever the batch's size.
func TestBatchSolveDoesNotSpeculate(t *testing.T) {
	s := NewSet(capsConst(core.Gbps))
	s.Add(mkFlow(1, 600*core.Mbps, 0, 1), 0)
	s.Defer()
	s.Add(mkFlow(2, core.Gbps, 1, 2), 0)
	s.Resume(0)
	if st := s.last; st.Refills != 0 || st.Promoted != 0 || st.Flows != 2 || st.Links != 3 || st.Components != 1 {
		t.Fatalf("batch solve = %+v, want one plain fill of 2 flows / 3 links", st)
	}
	if r1, r2 := rateOf(s, 1), rateOf(s, 2); r1 != 500*core.Mbps || r2 != 500*core.Mbps {
		t.Fatalf("rates %v / %v, want 500Mbps each", r1, r2)
	}
}

// worstCase builds a history in which every check of the speculation
// fails: raising the capacity of link X lets 184 flows overload a slack
// link, whose promotion squeezes 16 flows, whose bottleneck partners grow
// and overload four more slack links, whose promotion squeezes four flows,
// whose partners overload one last slack link — three waves, each visible
// only after the refill before it. Units are Mbps; every flow also crosses
// two private links so that links outnumber flows and the gate is open.
// It returns the set and the link whose capacity sets the waves off.
func worstCase(caps map[core.LinkID]core.Rate) (*Set, core.LinkID) {
	const M = core.Mbps
	s := NewSet(func(l core.LinkID) core.Rate {
		if c, ok := caps[l]; ok {
			return c
		}
		return 1000 * core.Gbps // private links
	})
	nextLink, nextFlow := core.LinkID(0), 0
	link := func(c core.Rate) core.LinkID {
		nextLink++
		caps[nextLink] = c
		return nextLink
	}
	flow := func(path ...core.LinkID) {
		nextFlow++
		private := core.LinkID(10000 + 2*nextFlow)
		s.Add(&Flow{ID: FlowID(nextFlow), Demand: 100000 * M, State: Active,
			Path: append(path, private, private+1)}, 0)
	}
	s.Defer()
	x, p0 := link(10*M), link(2000*M)
	for i := 0; i < 184; i++ {
		flow(x, p0) // held to 10/184 by X; 10 each once P0 is shared 200 ways
	}
	p2, s2 := link(3840*M), link(3200*M)
	flow(p2, s2) // b2: 1600 on S2
	flow(s2)     // c2
	for k := 0; k < 4; k++ {
		p1, s1 := link(960*M), link(800*M)
		flow(p1, s1) // b1: 400 on S1, squeezed to 200 by P1
		flow(s1, p2) // c1: 400, grows to 600 and overloads P2
		for j := 0; j < 4; j++ {
			s0 := link(200 * M)
			flow(p0, s0) // b0: 100 on S0, squeezed to 10 by P0
			flow(s0, p1) // c0: 100, grows to 190 and overloads P1
		}
	}
	s.Resume(0)
	return s, x
}

// TestSpeculationWorstCaseBounded pins the cap on passes: a solve whose
// every check fails ends, after maxSpecRefills refills, in one fill of the
// full closure, agrees with the full solve, and cost at most
// maxSpecRefills+2 fills of at most the full region.
func TestSpeculationWorstCaseBounded(t *testing.T) {
	caps := map[core.LinkID]core.Rate{}
	s, x := worstCase(caps)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := rateOf(s, 185); got != 1600*core.Mbps { // b2, before the waves
		t.Fatalf("b2 stands at %v, want 1.6Gbps", got)
	}
	caps[x] = 1000 * core.Gbps
	s.SetCapacity(x, caps[x], 0)
	st := s.last
	if st.Refills != maxSpecRefills+1 {
		t.Fatalf("worst case took %d refills, want the cap of %d: %+v", st.Refills, maxSpecRefills+1, st)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rates := map[FlowID]core.Rate{}
	for _, f := range s.Flows() {
		rates[f.ID] = f.Rate
	}
	fullSolve(s, 0)
	full := s.last
	for _, f := range s.Flows() {
		if !ratesClose(rates[f.ID], f.Rate) {
			t.Fatalf("flow %d: %v after the capped refills, %v from the full solve", f.ID, rates[f.ID], f.Rate)
		}
	}
	if st.Flows > full.Flows || st.Rounds > (maxSpecRefills+2)*full.Rounds {
		t.Fatalf("worst case %+v against the full solve %+v: more than %d fills of it", st, full, maxSpecRefills+2)
	}
	// The third wave squeezed b2 to 3840 - 4*600.
	if got := rateOf(s, 185); !approxEq(got, 1440*core.Mbps) {
		t.Fatalf("b2 after the waves = %v, want 1.44Gbps", got)
	}
}

// BenchmarkSolveWorstCase times the solve of TestSpeculationWorstCaseBounded
// (four fills: the first, two refills, the full closure) against the full
// solve of the same state, which is what the solve costs without the
// speculation. Both restore the standing allocation untimed.
func BenchmarkSolveWorstCase(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "speculative"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			caps := map[core.LinkID]core.Rate{}
			s, x := worstCase(caps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				caps[x] = 1000 * core.Gbps
				raise := func(s *Set) { s.SetCapacity(x, caps[x], 0) }
				if full {
					fullSolve(s, 0, raise)
				} else {
					raise(s)
				}
				b.StopTimer()
				if got := s.last.Refills; !full && got != maxSpecRefills+1 {
					b.Fatalf("%d refills, want %d", got, maxSpecRefills+1)
				}
				caps[x] = 10 * core.Mbps
				// The standing allocation exactly, not up to epsilon.
				fullSolve(s, 0, func(s *Set) { s.SetCapacity(x, caps[x], 0) })
				b.StartTimer()
			}
		})
	}
}
