package traffic

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
)

// sameSpecs reports whether two generated workloads are identical —
// the determinism property the campaign seed axis relies on.
func sameSpecs(a, b []Spec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHeavyTailDeterministicPerSeed(t *testing.T) {
	horizon := 10 * core.Second
	for name, gen := range map[string]func(seed int64) Pattern{
		"pareto":    func(seed int64) Pattern { return Pareto(seed, 0, core.Gbps, horizon) },
		"lognormal": func(seed int64) Pattern { return Lognormal(seed, 0, core.Gbps, horizon) },
		"incast":    func(seed int64) Pattern { return Incast(seed, 0, core.Gbps, horizon) },
	} {
		a := gen(7)(32)
		b := gen(7)(32)
		if len(a) == 0 {
			t.Fatalf("%s: empty workload", name)
		}
		if !sameSpecs(a, b) {
			t.Errorf("%s: same seed produced different workloads", name)
		}
		if sameSpecs(a, gen(8)(32)) {
			t.Errorf("%s: different seeds produced identical workloads", name)
		}
	}
}

func TestHeavyTailShape(t *testing.T) {
	horizon := 10 * core.Second
	for name, p := range map[string]Pattern{
		"pareto":    Pareto(7, 500, core.Gbps, horizon),
		"lognormal": Lognormal(7, 500, core.Gbps, horizon),
	} {
		specs := p(64)
		if len(specs) != 500 {
			t.Fatalf("%s: got %d specs, want 500", name, len(specs))
		}
		for i, s := range specs {
			if s.SrcHost == s.DstHost {
				t.Fatalf("%s spec %d: self flow", name, i)
			}
			if s.SrcHost < 0 || s.SrcHost >= 64 || s.DstHost < 0 || s.DstHost >= 64 {
				t.Fatalf("%s spec %d: host out of range", name, i)
			}
			if s.Start < 0 || s.Start >= horizon {
				t.Fatalf("%s spec %d: start %v outside horizon", name, i, s.Start)
			}
			if s.Duration <= 0 {
				t.Fatalf("%s spec %d: non-positive lifetime %v", name, i, s.Duration)
			}
		}
	}
	// Default count is 4 flows per host; degenerate inputs are nil.
	if got := Pareto(7, 0, core.Gbps, horizon)(16); len(got) != 64 {
		t.Fatalf("default pareto count = %d, want 4 per host (64)", len(got))
	}
	if Pareto(7, 10, core.Gbps, horizon)(1) != nil {
		t.Fatal("degenerate host count accepted")
	}
	if Pareto(7, 10, core.Gbps, 0)(16) != nil {
		t.Fatal("zero horizon accepted")
	}
}

// TestParetoTailMass checks the sampled flow lifetimes against the
// analytic Pareto CCDF: with scale xm solved from the mean lifetime,
// P(D > d) = (xm/d)^α. The sampler is seeded, so this is exact
// reproducible statistics, not a flaky tolerance test.
func TestParetoTailMass(t *testing.T) {
	const n = 20000
	horizon := 10 * core.Second
	specs := Pareto(42, n, core.Gbps, horizon)(64)
	if len(specs) != n {
		t.Fatalf("got %d specs", len(specs))
	}
	xm := float64(heavyMeanLife) * (ParetoAlpha - 1) / ParetoAlpha
	// Pareto support is [xm, ∞): no lifetime may undercut the scale
	// (allow 1ns for integer truncation).
	for i, s := range specs {
		if float64(s.Duration) < xm-1 {
			t.Fatalf("spec %d: lifetime %v below Pareto scale %v", i, s.Duration, core.Time(xm))
		}
	}
	for _, mult := range []float64{2, 5, 10} {
		d := xm * mult
		tail := 0
		for _, s := range specs {
			if float64(s.Duration) > d {
				tail++
			}
		}
		got := float64(tail) / n
		want := math.Pow(1/mult, ParetoAlpha)
		// Binomial std at n=20000 is ~0.003; 0.01 absolute is ~3σ.
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(D > %.0f·xm) = %.4f, analytic %.4f", mult, got, want)
		}
	}
}

// TestLognormalMedian pins the sampled median against the analytic
// median exp(μ) = meanLife·exp(−σ²/2).
func TestLognormalMedian(t *testing.T) {
	const n = 20000
	specs := Lognormal(42, n, core.Gbps, 10*core.Second)(64)
	durs := make([]float64, len(specs))
	for i, s := range specs {
		durs[i] = float64(s.Duration)
	}
	sort.Float64s(durs)
	got := durs[n/2]
	want := float64(heavyMeanLife) * math.Exp(-LognormalSigma*LognormalSigma/2)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("median lifetime = %v, analytic %v", core.Time(got), core.Time(want))
	}
}

func TestIncast(t *testing.T) {
	const nHosts, fanin = 16, 8
	horizon := 3 * core.Second
	specs := Incast(42, fanin, core.Gbps, horizon)(nHosts)
	// One burst per period: 0s, 1s, 2s.
	byStart := map[core.Time][]Spec{}
	for _, s := range specs {
		byStart[s.Start] = append(byStart[s.Start], s)
	}
	if len(byStart) != 3 {
		t.Fatalf("got bursts at %d instants, want 3", len(byStart))
	}
	for start, burst := range byStart {
		if start%IncastPeriod != 0 {
			t.Fatalf("burst at %v, want a multiple of %v", start, IncastPeriod)
		}
		if len(burst) != fanin {
			t.Fatalf("burst at %v has %d senders, want %d", start, len(burst), fanin)
		}
		victim := burst[0].DstHost
		seen := map[int]bool{}
		for _, s := range burst {
			if s.DstHost != victim {
				t.Fatalf("burst at %v has two victims: %d and %d", start, victim, s.DstHost)
			}
			if s.SrcHost == victim {
				t.Fatalf("burst at %v: victim %d sends to itself", start, victim)
			}
			if seen[s.SrcHost] {
				t.Fatalf("burst at %v: sender %d appears twice", start, s.SrcHost)
			}
			seen[s.SrcHost] = true
			if s.Duration != IncastBurst {
				t.Fatalf("burst at %v: duration %v, want %v", start, s.Duration, IncastBurst)
			}
		}
	}
	// Default fan-in is half the hosts; oversized fan-in clamps to n-1.
	if got := Incast(42, 0, core.Gbps, core.Second)(nHosts); len(got) != nHosts/2 {
		t.Errorf("default fan-in burst = %d senders, want %d", len(got), nHosts/2)
	}
	if got := Incast(42, 100, core.Gbps, core.Second)(4); len(got) != 3 {
		t.Errorf("oversized fan-in burst = %d senders, want 3", len(got))
	}
}

func TestAllToAll(t *testing.T) {
	const n = 6
	specs := AllToAll(0, core.Gbps, 0)(n)
	if len(specs) != (n-1)*n {
		t.Fatalf("got %d specs, want %d", len(specs), (n-1)*n)
	}
	// After n-1 phases every ordered pair appears exactly once, and no
	// receiver hears two senders within one phase.
	pairs := map[[2]int]int{}
	phaseDst := map[core.Time]map[int]bool{}
	for i, s := range specs {
		if s.SrcHost == s.DstHost {
			t.Fatalf("spec %d: self flow", i)
		}
		pairs[[2]int{s.SrcHost, s.DstHost}]++
		if phaseDst[s.Start] == nil {
			phaseDst[s.Start] = map[int]bool{}
		}
		if phaseDst[s.Start][s.DstHost] {
			t.Fatalf("phase at %v: host %d receives twice", s.Start, s.DstHost)
		}
		phaseDst[s.Start][s.DstHost] = true
	}
	if len(pairs) != n*(n-1) {
		t.Fatalf("covered %d ordered pairs, want %d", len(pairs), n*(n-1))
	}
	for p, c := range pairs {
		if c != 1 {
			t.Fatalf("pair %v exercised %d times", p, c)
		}
	}
	// Explicit phase count and duration are honored.
	short := AllToAll(2, core.Gbps, 100*core.Millisecond)(n)
	if len(short) != 2*n {
		t.Fatalf("2-phase specs = %d, want %d", len(short), 2*n)
	}
	for _, s := range short {
		if s.Start != 0 && s.Start != 100*core.Millisecond {
			t.Fatalf("2-phase start %v", s.Start)
		}
		if s.Duration != 100*core.Millisecond {
			t.Fatalf("2-phase duration %v", s.Duration)
		}
	}
}

func TestRing(t *testing.T) {
	const n = 5
	specs := Ring(0, core.Gbps, 0)(n)
	if len(specs) != 2*(n-1)*n {
		t.Fatalf("got %d specs, want %d", len(specs), 2*(n-1)*n)
	}
	for i, s := range specs {
		step := int(s.Start / CollectivePhase)
		want := (s.SrcHost + 1) % n
		if step%2 == 1 {
			want = (s.SrcHost - 1 + n) % n
		}
		if s.DstHost != want {
			t.Fatalf("spec %d (step %d): %d -> %d, want -> %d", i, step, s.SrcHost, s.DstHost, want)
		}
	}
	if got := Ring(3, core.Gbps, 0)(n); len(got) != 3*n {
		t.Fatalf("3-step specs = %d, want %d", len(got), 3*n)
	}
}

// TestChurnPortEntropy is the regression test for the degenerate churn
// port assignment: DstPort used to be 1024 + i/60000, which collapsed
// almost every flow onto port 1024 and starved 5-tuple ECMP hashing of
// entropy.
func TestChurnPortEntropy(t *testing.T) {
	const n = 1000
	specs := Pareto(7, n, core.Gbps, 10*core.Second)(64)
	ports := map[uint16]bool{}
	tuples := map[[2]uint16]bool{}
	for _, s := range specs {
		ports[s.DstPort] = true
		tuples[[2]uint16{s.SrcPort, s.DstPort}] = true
	}
	if len(ports) != n {
		t.Errorf("churn used %d distinct dst ports over %d flows, want %d", len(ports), n, n)
	}
	if len(tuples) != n {
		t.Errorf("churn used %d distinct port tuples over %d flows, want %d", len(tuples), n, n)
	}
}
