package horse

import (
	"testing"
	"time"

	"repro/internal/fluid"
)

// wanConfig: WAN convergence tests need finer rx sampling than the
// default 100ms to resolve latency-dependent convergence times.
func wanConfig() Config {
	cfg := testConfig()
	cfg.Pacing = 20
	cfg.SampleInterval = 5 * Millisecond
	return cfg
}

// runWAN runs the standard WAN scenario (route reflection + latency) on
// the abilene topology at the given delay scale and returns the result.
func runWAN(t *testing.T, delayScale float64, linkLatency bool) *Result {
	t.Helper()
	g, err := WAN("abilene", DelayScale(delayScale))
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(wanConfig())
	exp.SetTopology(g)
	exp.UseBGP(BGPOptions{RouteReflection: true, LinkLatency: linkLatency})
	if err := exp.SendPermutation(7, 500*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(8 * Second)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func allActive(t *testing.T, res *Result, label string) {
	t.Helper()
	for _, f := range res.Flows {
		if f.State != fluid.Active.String() {
			t.Fatalf("%s: flow %v state = %s, want active", label, f.Tuple, f.State)
		}
	}
}

// TestWANRouteReflectionConverges is the baseline WAN scenario check:
// a single-AS measured topology running an RR hierarchy (no full mesh)
// distributes full reachability — every cross-PoP flow goes active —
// and the fluid layer reports the geographic path latency.
func TestWANRouteReflectionConverges(t *testing.T) {
	res := runWAN(t, 1, true)
	allActive(t, res, "wan")
	if res.RouteInstalls == 0 || res.ControlBytes == 0 {
		t.Fatalf("no BGP activity: installs=%d bytes=%d", res.RouteInstalls, res.ControlBytes)
	}
	// Abilene spans the continent: the rate-weighted mean one-way path
	// latency must be in the milliseconds.
	if res.MeanPathLatency < Millisecond {
		t.Fatalf("mean path latency = %v, want >= 1ms", res.MeanPathLatency)
	}
	for _, f := range res.Flows {
		if f.PathLatency <= 0 {
			t.Fatalf("flow %v has zero path latency", f.Tuple)
		}
	}
}

// TestWANZeroLatencyParity pins the acceptance criterion that the
// latency machinery is pay-for-what-you-use: with all link delays at
// zero, a run with LinkLatency enabled is indistinguishable from one
// without it (the delayed-tap constructor falls back to the exact
// pre-latency pipe), and both deliver the same steady allocation.
func TestWANZeroLatencyParity(t *testing.T) {
	with := runWAN(t, 0, true)
	without := runWAN(t, 0, false)
	allActive(t, with, "latency-enabled")
	allActive(t, without, "latency-disabled")
	if with.MeanPathLatency != 0 || without.MeanPathLatency != 0 {
		t.Fatalf("zero-delay runs report latency: %v / %v",
			with.MeanPathLatency, without.MeanPathLatency)
	}
	// Max–min allocations over identical converged topologies are
	// unique: steady rates must agree exactly (both runs converge well
	// before the second half of the run that SteadyAggregateRx means
	// over).
	a, b := with.SteadyAggregateRx(), without.SteadyAggregateRx()
	if a <= 0 || b <= 0 {
		t.Fatalf("steady rx: with=%v without=%v", a, b)
	}
	diff := float64(a-b) / float64(b)
	if diff < -0.01 || diff > 0.01 {
		t.Fatalf("steady rx diverges: with=%v without=%v (%.2f%%)", a, b, 100*diff)
	}
	// Per-flow delivered-byte parity within 5% (wall-time jitter in the
	// sub-100ms convergence window shifts a little volume; the steady
	// allocation itself must match).
	for i := range with.Flows {
		fa, fb := with.Flows[i], without.Flows[i]
		if fa.Tuple != fb.Tuple {
			t.Fatalf("flow order diverged: %v vs %v", fa.Tuple, fb.Tuple)
		}
		if fb.Bytes == 0 {
			t.Fatalf("flow %v delivered nothing without latency", fb.Tuple)
		}
		fdiff := float64(fa.Bytes)/float64(fb.Bytes) - 1
		if fdiff < -0.05 || fdiff > 0.05 {
			t.Fatalf("flow %v bytes diverge: with=%d without=%d (%.2f%%)",
				fa.Tuple, fa.Bytes, fb.Bytes, 100*fdiff)
		}
	}
}

// TestWANConvergenceGrowsWithLatency is the headline acceptance test:
// the same topology, workload and control plane, run at increasing
// propagation delay, must take measurably longer to converge — BGP
// updates ripple at fiber speed, so geography becomes convergence time.
func TestWANConvergenceGrowsWithLatency(t *testing.T) {
	zero := runWAN(t, 0, true)
	slow := runWAN(t, 5, true)
	allActive(t, zero, "zero-latency")
	allActive(t, slow, "scaled-latency")

	convZero, ok := zero.ConvergedAt(0.95)
	if !ok {
		t.Fatal("zero-latency run never converged")
	}
	convSlow, ok := slow.ConvergedAt(0.95)
	if !ok {
		t.Fatal("delayed run never converged")
	}
	// At delay scale 5 the abilene backbone's one-way delays are
	// 10-100ms; convergence needs several such hops beyond the
	// zero-latency baseline. 50ms (10 sample intervals) is a
	// conservative lower bound on the gap — observed is ~150ms.
	if convSlow < convZero+50*Millisecond {
		t.Fatalf("convergence did not grow with latency: zero=%v scaled=%v",
			convZero, convSlow)
	}
	if slow.MeanPathLatency < 5*zero.MeanPathLatency {
		t.Fatalf("path latency did not scale: zero=%v scaled=%v",
			zero.MeanPathLatency, slow.MeanPathLatency)
	}
	// Latency changes when convergence happens, not where it lands.
	a, b := zero.SteadyAggregateRx(), slow.SteadyAggregateRx()
	diff := float64(a-b) / float64(b)
	if diff < -0.02 || diff > 0.02 {
		t.Fatalf("steady rx should not depend on latency: zero=%v scaled=%v", a, b)
	}
}

// TestWANRouteDampeningScenario runs the route-dampening workload
// end to end: a deterministic double flap of one backbone cable with
// aggressive dampening parameters. The first session loss suppresses
// the neighbor's routes, the post-repair re-announcements are parked,
// and the virtual-clock decay releases them — all inside the run.
func TestWANRouteDampeningScenario(t *testing.T) {
	g, err := WAN("abilene")
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(wanConfig())
	exp.SetTopology(g)
	exp.UseBGP(BGPOptions{
		RouteReflection: true,
		LinkLatency:     true,
		Dampening: &Dampening{
			Penalty:  1000,
			Suppress: 800, // first flap suppresses
			Reuse:    600,
			HalfLife: 1 * time.Second, // virtual time
		},
	})
	if err := exp.SendPermutation(7, 500*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, inj := range []struct {
		at   Time
		down bool
	}{{4 * Second, true}, {5 * Second, false}, {6 * Second, true}, {7 * Second, false}} {
		var err error
		if inj.down {
			err = exp.At(inj.at).LinkDown("sea", "snv")
		} else {
			err = exp.At(inj.at).LinkUp("sea", "snv")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := exp.Run(14 * Second)
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, reused uint64
	for _, r := range g.Routers() {
		if sp := exp.Manager().Speaker(r.ID); sp != nil {
			suppressed += sp.Stats.RoutesSuppressed.Load()
			reused += sp.Stats.RoutesReused.Load()
		}
	}
	if suppressed == 0 {
		t.Fatal("no announcements were suppressed by dampening")
	}
	if reused == 0 {
		t.Fatal("no suppressed routes were reused after penalty decay")
	}
	// The topology healed and dampening released its routes: traffic
	// must be back to full allocation at the end.
	tail := res.AggregateRx.MeanBetween(12*Second, 14*Second)
	steady := res.AggregateRx.MeanBetween(2*Second, 4*Second)
	if steady <= 0 || tail < 0.9*steady {
		t.Fatalf("post-dampening tail rx %v, want >= 90%% of pre-flap %v",
			Rate(tail), Rate(steady))
	}
	if res.Injections != 4 {
		t.Fatalf("injections = %d, want 4", res.Injections)
	}
}
