package horse

import (
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/stats"
)

// TestClockLeavesFTIOnEvidence runs the demo scenarios at paper-faithful
// pacing 1 with the default 500 ms quiet timeout and checks that the
// clock never needed it: every FTI exit was on the in-flight ledger
// reading zero, the control plane had nonetheless converged (every flow
// active), and a run costs wall time for its control plane activity only
// — far less than one quiet timeout per episode.
func TestClockLeavesFTIOnEvidence(t *testing.T) {
	const (
		until  = 6 * Second
		failAt = until / 3
		healAt = 2 * until / 3
	)
	fatTree := func(opt TopoOption) func() (*Topology, error) {
		return func() (*Topology, error) { return FatTree(4, opt) }
	}
	for _, tc := range []struct {
		name     string
		topo     func() (*Topology, error)
		use      func(*Experiment)
		fail     bool
		episodes int // FTI episodes the scenario must have, at least
	}{
		{name: "fattree:4/bgp-ecmp", topo: fatTree(BGP()), episodes: 1,
			use: func(e *Experiment) { e.UseBGP(BGPOptions{ECMP: true}) }},
		{name: "fattree:4/hedera", topo: fatTree(SDN()), episodes: 2, // boot, the 5 s poll
			use: func(e *Experiment) { e.UseSDN(AppHedera(5 * Second)) }},
		{name: "fattree:4/ecmp5", topo: fatTree(SDN()), episodes: 1,
			use: func(e *Experiment) { e.UseSDN(AppECMP5()) }},
		{name: "fattree:4/bgp-ecmp/fail", topo: fatTree(BGP()), fail: true, episodes: 3, // boot, down, up
			use: func(e *Experiment) { e.UseBGP(BGPOptions{ECMP: true}) }},
		{name: "wan:abilene/bgp-rr", topo: func() (*Topology, error) { return WAN("abilene") }, episodes: 1,
			use: func(e *Experiment) { e.UseBGP(BGPOptions{RouteReflection: true, LinkLatency: true}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.topo()
			if err != nil {
				t.Fatal(err)
			}
			exp := NewExperiment(Config{SampleInterval: 10 * Millisecond})
			exp.SetTopology(g)
			tc.use(exp)
			if err := exp.SendPermutation(42, 1*Gbps, 0, 0); err != nil {
				t.Fatal(err)
			}
			if tc.fail {
				if err := exp.At(failAt).LinkDown("agg-0-0", "core-0-0"); err != nil {
					t.Fatal(err)
				}
				if err := exp.At(healAt).LinkUp("agg-0-0", "core-0-0"); err != nil {
					t.Fatal(err)
				}
			}
			res, err := exp.Run(until)
			if err != nil {
				t.Fatal(err)
			}
			sim := res.Sim
			t.Logf("wall %v, teardown %v, FTI %v virtual, %d transitions (%d on evidence, %d on timeout)",
				sim.WallTotal.Round(time.Millisecond), res.TeardownWall.Round(time.Millisecond),
				sim.VirtualFTI, sim.Transitions, sim.EvidenceExits, sim.TimeoutExits)
			if sim.TimeoutExits != 0 {
				t.Errorf("%d FTI exits fell back to the quiet timeout: a ledger token leaked", sim.TimeoutExits)
			}
			if sim.EvidenceExits < tc.episodes {
				t.Errorf("%d FTI exits on evidence, want >= %d", sim.EvidenceExits, tc.episodes)
			}
			// Waiting the timeout out would cost 500 ms of FTI per episode.
			if limit := Time(tc.episodes) * 250 * Millisecond; sim.VirtualFTI >= limit {
				t.Errorf("VirtualFTI = %v, want < %v (%d episodes)", sim.VirtualFTI, limit, tc.episodes)
			}
			allActive(t, res, tc.name)
			if res.SteadyAggregateRx() <= 0 {
				t.Error("no traffic delivered")
			}
			if !tc.fail {
				return
			}
			// Dip and repair, the shape `horse -fail` reports.
			if res.Injections != 2 {
				t.Fatalf("injections = %d, want 2", res.Injections)
			}
			rx := res.AggregateRx
			pre := rx.MeanBetween(failAt-Second, failAt)
			rep, ok := rx.RepairAfter(failAt, healAt, stats.DefaultRepairFrac)
			if !ok || rep.Dip.Value > 0.95*pre {
				t.Fatalf("no dip after LinkDown: min %v vs pre-failure %v", Rate(rep.Dip.Value), Rate(pre))
			}
			if !rep.Recovered || rep.Degraded < 0.99*pre {
				t.Fatalf("BGP did not repair before LinkUp: %+v", rep)
			}
			if post := rx.MeanBetween(until-Second, until); post < 0.99*pre {
				t.Fatalf("rate after LinkUp %v, want the pre-failure %v", Rate(post), Rate(pre))
			}
			t.Logf("pre %v, dip %v at %v, repaired %v after the failure", Rate(pre), Rate(rep.Dip.Value), rep.Dip.At, rep.Latency)
		})
	}
}

// runTier1 is `horse -topo wan:tier1 -scenario bgp-rr -advertise-delay
// delay -dur until`: the MRAI axis at paper-faithful pacing 1.
func runTier1(tb testing.TB, delay time.Duration, until Time) *Result {
	tb.Helper()
	g, err := WAN("tier1")
	if err != nil {
		tb.Fatal(err)
	}
	exp := NewExperiment(Config{})
	exp.SetTopology(g)
	exp.UseBGP(BGPOptions{RouteReflection: true, LinkLatency: true, AdvertiseDelay: delay})
	if err := exp.SendPermutation(42, 1*Gbps, 0, 0); err != nil {
		tb.Fatal(err)
	}
	res, err := exp.Run(until)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestAdvertiseDelayIsVirtual: an advertisement window is a deadline on
// the virtual axis, so a long one costs no wall time and cannot be lost.
// A window kept by a wall timer that holds a ledger token outlives the
// 500 ms quiet timeout: the clock leaves FTI on the timeout, DES finishes
// the run before the timer fires and nothing is ever advertised — 0 bps
// and one timeout exit on both runs below. 30 s is RFC 4271's
// MinRouteAdvertisementInterval for eBGP.
func TestAdvertiseDelayIsVirtual(t *testing.T) {
	for _, tc := range []struct {
		delay time.Duration
		until Time
	}{
		{time.Second, 10 * Second},
		{30 * time.Second, 120 * Second},
	} {
		t.Run(tc.delay.String(), func(t *testing.T) {
			res := runTier1(t, tc.delay, tc.until)
			sim := res.Sim
			t.Logf("wall %v, steady rx %v, %d transitions (%d on evidence, %d on timeout)",
				sim.WallTotal.Round(time.Millisecond), res.SteadyAggregateRx(), sim.Transitions, sim.EvidenceExits, sim.TimeoutExits)
			if res.SteadyAggregateRx() <= 0 {
				t.Error("no traffic delivered: the first advertisement window never ended")
			}
			if sim.TimeoutExits != 0 {
				t.Errorf("%d FTI exits on the quiet timeout: something held the ledger through a window", sim.TimeoutExits)
			}
			if sim.WallTotal >= 2*time.Second {
				t.Errorf("run took %v of wall, want < 2s: waiting is not control plane activity", sim.WallTotal)
			}
		})
	}
}

// TestBootRaceAlwaysConverges: the engine may take its first in-flight
// reading before any control plane goroutine was ever scheduled. What
// holds the clock in FTI then is the tokens the channels have held since
// they were created and OPEN was written into them, with no reader yet
// to park. Back to back, so a run that left FTI before its first route
// was installed — and delivered nothing until the next event — shows.
func TestBootRaceAlwaysConverges(t *testing.T) {
	for i := 0; i < 200; i++ {
		g, err := TwoRouters()
		if err != nil {
			t.Fatal(err)
		}
		exp := NewExperiment(Config{})
		exp.SetTopology(g)
		exp.UseBGP(BGPOptions{})
		if err := exp.AddFlow("h1", "h2", 500*Mbps, 0, 0); err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run(2 * Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.RouteInstalls < 2 || res.Flows[0].State != fluid.Active.String() {
			t.Fatalf("run %d did not converge: %d route installs, flow %s", i, res.RouteInstalls, res.Flows[0].State)
		}
		if at, ok := res.ConvergedAt(0.95); !ok || at > 200*Millisecond {
			t.Fatalf("run %d: converged at %v (ok=%v), want within the boot episode", i, at, ok)
		}
		if res.Sim.TimeoutExits != 0 {
			t.Fatalf("run %d: %d FTI exits on timeout", i, res.Sim.TimeoutExits)
		}
	}
}

// TestCapacityWalkRunsInDES: a link rate change alters no forwarding
// state and sends no message, so it is not control activity — a 50 ms
// capacity walk used to mark control on every step and pin the whole run
// in FTI. The only FTI episode is boot convergence; every scheduled
// change is still applied and counted.
func TestCapacityWalkRunsInDES(t *testing.T) {
	g, err := FatTree(4, BGP())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(Config{})
	exp.SetTopology(g)
	exp.UseBGP(BGPOptions{ECMP: true})
	if err := exp.SendPermutation(42, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	const (
		until  = 5 * Second
		period = 50 * Millisecond
		steps  = int((until - Second) / period)
	)
	scheduled, err := exp.WalkLinkRates(1, Second, period, until)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(until)
	if err != nil {
		t.Fatal(err)
	}
	if scheduled == 0 || res.Injections != uint64(scheduled) {
		t.Fatalf("injections applied = %d, scheduled %d", res.Injections, scheduled)
	}
	if res.Sim.Transitions != 1 || res.Sim.VirtualFTI >= Second {
		t.Fatalf("FTI %v virtual over %d transitions; want boot convergence only, over before the walk starts at 1s",
			res.Sim.VirtualFTI, res.Sim.Transitions)
	}
	if res.Solver.Solves < steps {
		t.Fatalf("%d solves over %d walk steps: the walk did not reach the solver", res.Solver.Solves, steps)
	}
}
