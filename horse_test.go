package horse

import (
	"math"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// testConfig accelerates FTI pacing so integration tests finish quickly.
// Pacing 10 compresses control plane wall time 10x into virtual time;
// shapes are preserved (see Config.Pacing docs).
func testConfig() Config {
	return Config{Pacing: 10}
}

func TestFigure1Scenario(t *testing.T) {
	// The paper's Figure 1: two BGP routers establish a session,
	// exchange updates, install routes (DES->FTI), converge, and the
	// experiment returns to DES while traffic flows.
	topo, err := TwoRouters()
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h1", "h2", 500*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(30 * Second)
	if err != nil {
		t.Fatal(err)
	}
	// The BGP session produced control traffic and route installs.
	if res.ControlBytes == 0 {
		t.Error("no control bytes observed")
	}
	if res.RouteInstalls < 2 {
		t.Errorf("route installs = %d, want >= 2", res.RouteInstalls)
	}
	// The hybrid clock ran in FTI during convergence and dropped back
	// to DES (the run starts in FTI, so at least one FTI->DES switch).
	if res.Sim.Transitions < 1 {
		t.Errorf("mode transitions = %d, want >= 1", res.Sim.Transitions)
	}
	if res.Sim.VirtualFTI == 0 || res.Sim.VirtualDES == 0 {
		t.Errorf("virtual split FTI=%v DES=%v; both modes must be visited",
			res.Sim.VirtualFTI, res.Sim.VirtualDES)
	}
	// Traffic converged to the demanded rate.
	if got := res.SteadyAggregateRx(); got < 400*Mbps {
		t.Errorf("steady aggregate rx = %v, want ~500Mbps", got)
	}
	if len(res.Flows) != 1 || res.Flows[0].State != fluid.Active.String() {
		t.Errorf("flow result = %+v", res.Flows)
	}
	// DES fast-forward: 30s of virtual time must cost far less wall.
	if res.Sim.WallTotal > 15*time.Second {
		t.Errorf("wall time %v for 30s virtual; DES fast-forward broken", res.Sim.WallTotal)
	}
}

func TestSDNProactiveECMP(t *testing.T) {
	topo, err := FatTree(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppECMP5())
	if err := exp.SendPermutation(1, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(30 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowModsApplied == 0 {
		t.Error("no flow mods applied")
	}
	// All 16 hosts receive traffic; aggregate must be a large fraction
	// of 16 Gbps (ECMP hash collisions cost some).
	got := res.SteadyAggregateRx()
	if got < 4*Gbps {
		t.Errorf("steady aggregate rx = %v, want >= 4Gbps", got)
	}
	if got > 16*Gbps+Rate(1e6) {
		t.Errorf("aggregate rx %v exceeds offered load", got)
	}
	active := 0
	for _, f := range res.Flows {
		if f.State == fluid.Active.String() {
			active++
		}
	}
	if active != 16 {
		t.Errorf("active flows = %d, want 16", active)
	}
}

func TestSDNHederaScheduler(t *testing.T) {
	topo, err := FatTree(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	// 2s virtual poll so several rounds fit in the run.
	exp.UseSDN(AppHedera(2 * Second))
	if err := exp.SendPermutation(7, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(30 * Second)
	if err != nil {
		t.Fatal(err)
	}
	// Reactive setup: every flow punted once.
	if res.PacketIns == 0 {
		t.Error("no packet-ins")
	}
	// The scheduler polled statistics periodically.
	if res.StatsQueries == 0 {
		t.Error("no stats queries; Hedera poller did not run")
	}
	if got := res.SteadyAggregateRx(); got < 4*Gbps {
		t.Errorf("steady aggregate rx = %v, want >= 4Gbps", got)
	}
}

func TestBGPFatTreeECMP(t *testing.T) {
	if testing.Short() {
		t.Skip("fat-tree BGP convergence is seconds of wall time")
	}
	topo, err := FatTree(4, BGP())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{ECMP: true})
	if err := exp.SendPermutation(3, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(60 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteInstalls == 0 {
		t.Fatal("no BGP route installs")
	}
	active := 0
	for _, f := range res.Flows {
		if f.State == fluid.Active.String() {
			active++
		}
	}
	if active != 16 {
		t.Errorf("active flows = %d, want 16 (BGP did not converge)", active)
	}
	if got := res.SteadyAggregateRx(); got < 2*Gbps {
		t.Errorf("steady aggregate rx = %v", got)
	}
}

func TestExperimentValidation(t *testing.T) {
	exp := NewExperiment(Config{})
	if _, err := exp.Run(Second); err == nil {
		t.Error("run without topology accepted")
	}
	topo, _ := Star(3, SDN())
	exp.SetTopology(topo)
	if _, err := exp.Run(Second); err == nil {
		t.Error("run without scenario accepted")
	}
	if err := exp.AddFlow("nope", "h1", Gbps, 0, 0); err == nil {
		t.Error("unknown host accepted")
	}
	// BGP scenario on a switch-only topology must fail.
	exp.UseBGP(BGPOptions{})
	if _, err := exp.Run(Second); err == nil {
		t.Error("BGP on switch topology accepted")
	}
	// And SDN on a router-only topology.
	rt, _ := TwoRouters()
	exp2 := NewExperiment(Config{})
	exp2.SetTopology(rt)
	exp2.UseSDN(AppECMP5())
	if _, err := exp2.Run(Second); err == nil {
		t.Error("SDN on router topology accepted")
	}
}

// TestRunTwiceRefused: link state lives on the topology, so a second Run
// after a first one that took a link down for good would silently start
// from the damaged graph. It is an error instead.
func TestRunTwiceRefused(t *testing.T) {
	topo, err := FatTree(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppECMP5())
	if err := exp.At(Second).LinkDown("agg-0-0", "core-0-0"); err != nil {
		t.Fatal(err)
	}
	if first, err := exp.Run(2 * Second); err != nil || first.Injections != 1 {
		t.Fatalf("first Run: %v, %d injections applied, want 1", err, first.Injections)
	}
	if _, err := exp.Run(2 * Second); err == nil {
		t.Fatal("second Run accepted on a topology the first left with a link down")
	}
}

// TestScheduleOrderAtOneInstant pins the order in which Run schedules
// events that fall on the same virtual instant: an injection at t = 0
// sees the flows starting at t = 0 and none later, and an injection at
// the horizon runs before the sampler's last tick (armed during the run,
// so queued behind it) and before collect reads the counters.
func TestScheduleOrderAtOneInstant(t *testing.T) {
	topo, err := Star(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppReactive())
	for i, src := range []string{"h0", "h2", "h3"} { // h3 starts at 1s
		if err := exp.AddFlow(src, "h1", 100*Mbps, Time(i/2)*Second, 0); err != nil {
			t.Fatal(err)
		}
	}
	started := -1
	exp.addInjection(0, func(m *cm.Manager) { started = len(m.Net.Flows.Flows()) })
	const until = 2 * Second
	if err := exp.At(until).SetLinkRate("h1", "s0", 10*Mbps); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(until)
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Errorf("injection at t=0 saw %d flows, want the 2 starting at t=0", started)
	}
	if res.Injections != 1 {
		t.Errorf("injections = %d, want the one at the horizon", res.Injections)
	}
	if last := res.AggregateRx.Last(); last.At != until || last.Value != float64(10*Mbps) {
		t.Errorf("last sample %v at %v, want %v at the horizon", Rate(last.Value), last.At, 10*Mbps)
	}
}

func TestFlowWithDuration(t *testing.T) {
	topo, err := Star(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppReactive())
	// A 5-second flow inside a 20-second run.
	if err := exp.AddFlow("h0", "h1", 800*Mbps, 2*Second, 5*Second); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(20 * Second)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.State != fluid.Done.String() {
		t.Errorf("flow state = %v, want done", f.State)
	}
	// ~800Mbps for <=5s: at most 500 MB, and well above zero.
	if f.Bytes == 0 || f.Bytes > 520_000_000 {
		t.Errorf("flow bytes = %d", f.Bytes)
	}
	// The tail of the run has zero aggregate rate.
	if last := res.AggregateRx.Last(); last.Value != 0 {
		t.Errorf("rate after flow end = %v", last.Value)
	}
}

func TestModeTransitionsObservable(t *testing.T) {
	// Check the Stats plumbing via a raw engine run (unit-level), then
	// assert the experiment surfaces them.
	e := sim.New(sim.Config{Pacing: 1000, QuietTimeout: 5 * Millisecond, MaxIdleWall: 100 * time.Millisecond})
	e.Post(func() {})
	st := e.Run(Second)
	if st.Transitions < 2 {
		t.Fatalf("raw engine transitions = %d", st.Transitions)
	}
}

func TestBGPFatTreeK8Scale(t *testing.T) {
	// The paper's largest demo size: 80 BGP routers, 128 hosts, ~256
	// eBGP sessions. Guards against bootstrap deadlocks and quadratic
	// reroute storms at scale.
	if testing.Short() {
		t.Skip("k=8 BGP takes ~1s and 80 emulated routers")
	}
	topo, err := FatTree(8, BGP())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{ECMP: true})
	if err := exp.SendPermutation(42, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(10 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteInstalls == 0 {
		t.Fatal("no route installs at k=8")
	}
	if got := res.SteadyAggregateRx(); got < 10*Gbps {
		t.Errorf("steady rx = %v, want >= 10Gbps of 128 offered", got)
	}
	if res.Sim.WallTotal > 60*time.Second {
		t.Errorf("k=8 run took %v wall", res.Sim.WallTotal)
	}
}

func TestRouterFailureWithdrawsRoutes(t *testing.T) {
	// Failure injection: kill R2's routing daemon mid-run. R1 must
	// receive the session teardown, withdraw the learned route, and the
	// flow must blackhole — then the run continues in DES.
	topo, err := TwoRouters()
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h1", "h2", 500*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Crash r2's daemon at 5s virtual.
	r2, _ := topo.NodeByName("r2")
	exp.addInjection(5*Second, func(m *cm.Manager) {
		m.Engine.MarkControl() // the crash is a control plane event
		go m.Speaker(r2.ID).Stop()
	})
	res, err := exp.Run(30 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteInstalls == 0 {
		t.Fatal("no installs before the crash")
	}
	if res.RouteWithdraws == 0 {
		t.Fatal("crash produced no withdrawals")
	}
	// The flow died with the route: no rate at the end of the run.
	if last := res.AggregateRx.Last(); last.Value != 0 {
		t.Errorf("rate after router failure = %v, want 0", last.Value)
	}
	// But it did deliver before the crash.
	if res.Flows[0].Bytes == 0 {
		t.Error("flow never delivered before the crash")
	}
}

func TestResultFlowsOneEntryPerFlow(t *testing.T) {
	// One entry per scheduled flow, in scheduling order: a flow stopped
	// mid-run reads done with what it delivered, one due after the
	// horizon reads pending, and live ones read their final state. On a
	// star every host-to-host path is two 10µs links.
	topo, err := Star(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppReactive())
	const until = 10 * Second
	flows := []struct {
		src, dst        string
		rate            Rate
		start, duration Time
	}{
		{"h0", "h1", 100 * Mbps, 0, 0},
		{"h2", "h1", 200 * Mbps, Second, 2 * Second},
		{"h3", "h0", 100 * Mbps, 2 * until, 0},
	}
	for _, f := range flows {
		if err := exp.AddFlow(f.src, f.dst, f.rate, f.start, f.duration); err != nil {
			t.Fatal(err)
		}
	}
	live := traffic.Spec{SrcHost: 3, DstHost: 2, Rate: 300 * Mbps, Proto: core.ProtoUDP, SrcPort: 7, DstPort: 9}
	if err := exp.AddTraffic(func(int) []traffic.Spec { return []traffic.Spec{live} }); err != nil {
		t.Fatal(err)
	}
	// A pattern is caller input: one naming a host the topology lacks
	// is refused whole.
	outside := func(n int) []traffic.Spec {
		return []traffic.Spec{live, {SrcHost: 0, DstHost: n, Rate: Mbps}}
	}
	if err := exp.AddTraffic(outside); err == nil {
		t.Error("AddTraffic took a flow to host index 4 of 4 hosts")
	}
	res, err := exp.Run(until)
	if err != nil {
		t.Fatal(err)
	}

	tuple := func(src, dst string, sport, dport uint16) core.FiveTuple {
		s, _ := topo.NodeByName(src)
		d, _ := topo.NodeByName(dst)
		return core.FiveTuple{Src: s.IP, Dst: d.IP, Proto: core.ProtoUDP, SrcPort: sport, DstPort: dport}
	}
	const pathLatency = 2 * 10 * Microsecond
	want := []struct {
		tuple    core.FiveTuple
		maxBytes uint64 // demand over the time the flow could run
		rate     Rate
		state    fluid.State
		latency  Time
	}{
		{tuple("h0", "h1", 10000, 20000), 100e6 / 8 * 10, 100 * Mbps, fluid.Active, pathLatency},
		{tuple("h2", "h1", 10001, 20001), 200e6 / 8 * 2, 0, fluid.Done, 0},
		{tuple("h3", "h0", 10002, 20002), 0, 0, fluid.Pending, 0},
		{tuple("h3", "h2", 7, 9), 300e6 / 8 * 10, 300 * Mbps, fluid.Active, pathLatency},
	}
	if len(res.Flows) != len(want) {
		t.Fatalf("%d flow results, want %d: %+v", len(res.Flows), len(want), res.Flows)
	}
	for i, w := range want {
		got := res.Flows[i]
		if got.Tuple != w.tuple || got.Rate != w.rate || got.State != w.state.String() || got.PathLatency != w.latency {
			t.Errorf("flow %d = %v %v %s latency %v, want %v %v %s latency %v",
				i, got.Tuple, got.Rate, got.State, got.PathLatency, w.tuple, w.rate, w.state, w.latency)
		}
		if got.Bytes > w.maxBytes || (w.maxBytes > 0) != (got.Bytes > 0) {
			t.Errorf("flow %d delivered %d bytes, want some and at most %d (none if it never ran)", i, got.Bytes, w.maxBytes)
		}
	}
}

// checkMaxMin calls the data plane's CheckInvariants (capacity, granted
// loads and the max–min bottleneck property, from the definition alone:
// no second solver) from an injection every 100 ms of [0, dur). Events due
// at one instant run in the order they were scheduled, so a check at the
// instant of an injection scheduled before checkMaxMin runs right after
// it. Every failed check is reported; the returned slice holds the virtual
// time of every call once Run returns.
func checkMaxMin(t *testing.T, exp *Experiment, dur Time) *[]Time {
	var calls []Time
	for at := Time(0); at < dur; at += 100 * Millisecond {
		exp.addInjection(at, func(m *cm.Manager) {
			now := m.Engine.Now()
			calls = append(calls, now)
			if err := m.Net.Flows.CheckInvariants(); err != nil {
				t.Errorf("t=%v: %v", now, err)
			}
		})
	}
	return &calls
}

// TestECMPRunIsMaxMinFair runs the proactive-ECMP demo and holds the data
// plane's allocation to the max–min invariants every 100 ms and once more
// after the run.
func TestECMPRunIsMaxMinFair(t *testing.T) {
	topo, err := FatTree(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppECMP5())
	if err := exp.SendPermutation(1, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	calls := checkMaxMin(t, exp, 10*Second)
	res, err := exp.Run(10 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Manager().Net.Flows.CheckInvariants(); err != nil {
		t.Errorf("after the run: %v", err)
	}
	if res.Solver.Solves == 0 {
		t.Fatal("solver never ran")
	}
	if rx := res.SteadyAggregateRx(); rx <= 0 {
		t.Fatalf("steady rx %v: nothing was delivered", rx)
	}
	if len(*calls) != 100 {
		t.Fatalf("%d CheckInvariants calls during the run, want 100", len(*calls))
	}
	t.Logf("%d CheckInvariants calls (+1 after the run), %d solves", len(*calls), res.Solver.Solves)
}

// TestChurnRunIsMaxMinFair holds the allocation of a flow churn run to the
// max–min invariants every 100 ms and after the run: 4000 heavy-tail
// arrivals, each arrival and departure a solve of one Add or Remove — the
// regime in which the solver holds the flows below the mutation's level.
func TestChurnRunIsMaxMinFair(t *testing.T) {
	topo, err := FatTree(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppECMP5())
	if err := exp.AddTraffic(traffic.Pareto(1, 4000, 1*Gbps, 20*Second)); err != nil {
		t.Fatal(err)
	}
	calls := checkMaxMin(t, exp, 20*Second)
	res, err := exp.Run(20 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Manager().Net.Flows.CheckInvariants(); err != nil {
		t.Errorf("after the run: %v", err)
	}
	if res.Solver.Solves < 7900 { // one per arrival and departure within the run
		t.Fatalf("%d solves, want at least 7900", res.Solver.Solves)
	}
	if len(*calls) != 200 {
		t.Fatalf("%d CheckInvariants calls during the run, want 200", len(*calls))
	}
	t.Logf("%d CheckInvariants calls (+1 after the run), %d solves, %.1f flows a solve",
		len(*calls), res.Solver.Solves, float64(res.Solver.Flows)/float64(res.Solver.Solves))
}

// TestChurnWorkload drives an arrival/departure workload through the full
// stack: flows start and finish throughout the run, exercising the
// solver's incremental bookkeeping (mid-interval removals, reroutes of a
// mutating flow set) behind the public traffic API.
func TestChurnWorkload(t *testing.T) {
	topo, err := FatTree(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppECMP5())
	if err := exp.AddTraffic(traffic.Pareto(3, 64, 500*Mbps, 8*Second)); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(12 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyAggregateRx() <= 0 {
		t.Error("churn workload delivered no traffic")
	}
	done := 0
	var bytes uint64
	for _, f := range res.Flows {
		if f.State == fluid.Done.String() {
			done++
		}
		bytes += f.Bytes
	}
	if done < 32 {
		t.Errorf("only %d of 64 churn flows finished", done)
	}
	if bytes == 0 {
		t.Error("churn flows delivered no bytes")
	}
}

// TestFatTreeLinkFailureRecoverySDN is the headline failure experiment:
// an agg-core link in a k=4 fat-tree dies mid-run, aggregate receive
// rate dips (select groups keep hashing flows into the dead port until
// the control plane reacts), the ECMP app repairs paths after the
// PORT_STATUS round trip, and LinkUp restores the pre-failure
// allocation.
func TestFatTreeLinkFailureRecoverySDN(t *testing.T) {
	topo, err := FatTree(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SampleInterval = 5 * Millisecond
	exp := NewExperiment(cfg)
	exp.SetTopology(topo)
	exp.UseSDN(AppECMP5())
	if err := exp.SendPermutation(1, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	const (
		failAt = 4 * Second
		healAt = 8 * Second
		endAt  = 12 * Second
	)
	if err := exp.At(failAt).LinkDown("agg-0-0", "core-0-0"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(healAt).LinkUp("agg-0-0", "core-0-0"); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(endAt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 2 {
		t.Fatalf("injections applied = %d, want 2", res.Injections)
	}
	rx := res.AggregateRx
	pre := rx.MeanBetween(3*Second, failAt)
	if pre < float64(4*Gbps) {
		t.Fatalf("pre-failure aggregate = %v; experiment never converged", Rate(pre))
	}
	// The failure must produce a visible dip before the controller
	// repair lands.
	dip, ok := rx.MinBetween(failAt, healAt)
	if !ok || dip.Value > pre-float64(500*Mbps) {
		t.Fatalf("no throughput dip after LinkDown: min %v vs pre %v", Rate(dip.Value), Rate(pre))
	}
	// ...and the SDN control plane must repair it well before the heal:
	// throughput returns to >= 75%% of pre-failure on the degraded
	// topology.
	rec, ok := rx.FirstAtLeast(failAt, 0.75*pre)
	if !ok || rec.At >= healAt {
		t.Fatalf("no recovery before LinkUp (rec=%+v ok=%v)", rec, ok)
	}
	t.Logf("pre=%v dip=%v@%v repaired=%v@%v", Rate(pre), Rate(dip.Value), dip.At, Rate(rec.Value), rec.At)
	// LinkUp restores the pre-failure forwarding: the tail of the run
	// must match the pre-failure aggregate closely (same groups, same
	// hashes, same allocation).
	post := rx.MeanBetween(11*Second, endAt)
	if diff := post - pre; diff < -0.05*pre || diff > 0.05*pre {
		t.Fatalf("LinkUp did not restore allocation: post %v vs pre %v", Rate(post), Rate(pre))
	}
}

// TestBGPLinkFailureReroute drives the classic BGP convergence
// experiment: a ring of four routers, traffic pinned to the best path,
// the in-use link dies. The adjacent routers reset the session at once
// (interface down), withdrawals flood, and the flow re-routes over the
// surviving side of the ring; LinkUp re-peers and restores the original
// best path.
func TestBGPLinkFailureReroute(t *testing.T) {
	topo, err := WANRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SampleInterval = 5 * Millisecond
	exp := NewExperiment(cfg)
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h0", "h2", 500*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	const (
		failAt = 5 * Second
		healAt = 10 * Second
		endAt  = 15 * Second
	)
	// r0's best path to h2 goes via r1 (deterministic tiebreak: lowest
	// router ID); failing r0-r1 forces a reroute via r3.
	if err := exp.At(failAt).LinkDown("r0", "r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(healAt).LinkUp("r0", "r1"); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(endAt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 2 {
		t.Fatalf("injections applied = %d, want 2", res.Injections)
	}
	if res.RouteWithdraws == 0 {
		t.Fatal("link failure produced no BGP withdrawals")
	}
	rx := res.AggregateRx
	pre := rx.MeanBetween(4*Second, failAt)
	if pre < float64(450*Mbps) {
		t.Fatalf("pre-failure rate = %v; BGP never converged", Rate(pre))
	}
	// Visible dip at the failure instant (the sample at failAt runs
	// after the injection in the same event batch).
	dip, ok := rx.MinBetween(failAt, healAt)
	if !ok || dip.Value > 0.5*pre {
		t.Fatalf("no dip after LinkDown: min %v vs pre %v", Rate(dip.Value), Rate(pre))
	}
	// BGP repairs over the other side of the ring well before the heal.
	rec, ok := rx.FirstAtLeast(failAt, 0.9*pre)
	if !ok || rec.At >= healAt {
		t.Fatalf("no BGP reroute before LinkUp (rec=%+v ok=%v)", rec, ok)
	}
	t.Logf("pre=%v dip=%v@%v rerouted=%v@%v withdraws=%d",
		Rate(pre), Rate(dip.Value), dip.At, Rate(rec.Value), rec.At, res.RouteWithdraws)
	// After LinkUp the session re-establishes and traffic still flows.
	post := rx.MeanBetween(14*Second, endAt)
	if post < 0.9*pre {
		t.Fatalf("allocation not restored after LinkUp: post %v vs pre %v", Rate(post), Rate(pre))
	}
	if res.Flows[0].State != fluid.Active.String() {
		t.Fatalf("flow state at end = %v", res.Flows[0].State)
	}
}

// TestFlapRandomLinks runs a seeded link-flapping storm through the full
// stack and checks the schedule is deterministic, every outage is
// paired with a repair inside the window, and the experiment survives
// with traffic flowing at the end.
func TestFlapRandomLinks(t *testing.T) {
	build := func() (*Experiment, int) {
		t.Helper()
		topo, err := FatTree(4, SDN())
		if err != nil {
			t.Fatal(err)
		}
		exp := NewExperiment(testConfig())
		exp.SetTopology(topo)
		exp.UseSDN(AppECMP5())
		if err := exp.SendPermutation(2, 1*Gbps, 0, 0); err != nil {
			t.Fatal(err)
		}
		n, err := exp.FlapRandomLinks(99, 3, 2*Second, 9*Second, 2*Second, 300*Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return exp, n
	}
	exp, n := build()
	if n == 0 || n%2 != 0 {
		t.Fatalf("scheduled %d flap injections, want a positive even count", n)
	}
	// Determinism: same seed, same schedule.
	if _, n2 := build(); n2 != n {
		t.Fatalf("flap schedule not reproducible: %d vs %d", n, n2)
	}
	res, err := exp.Run(12 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != uint64(n) {
		t.Fatalf("applied %d injections, scheduled %d", res.Injections, n)
	}
	// All flaps healed by 9s; the tail must carry traffic again.
	if tail := res.AggregateRx.MeanBetween(11*Second, 12*Second); tail < float64(4*Gbps) {
		t.Fatalf("aggregate after flap storm = %v", Rate(tail))
	}
	if bad, err := exp.FlapRandomLinks(1, 10000, 0, Second, Second, Second); err == nil {
		t.Fatalf("oversized flap request accepted (%d)", bad)
	}
}

// TestInjectionValidation covers scripting-time error paths.
func TestInjectionValidation(t *testing.T) {
	exp := NewExperiment(Config{})
	if err := exp.At(Second).LinkDown("a", "b"); err == nil {
		t.Error("LinkDown without topology accepted")
	}
	topo, _ := Star(3, SDN())
	exp.SetTopology(topo)
	if err := exp.At(Second).LinkDown("nope", "h1"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := exp.At(Second).LinkDown("h0", "h1"); err == nil {
		t.Error("nonexistent link accepted")
	}
	if err := exp.At(Second).SetLinkRate("h0", "s0", -1); err == nil {
		t.Error("negative rate accepted")
	}
	for _, r := range []Rate{Rate(math.NaN()), Rate(math.Inf(1))} {
		if err := exp.At(Second).SetLinkRate("h0", "s0", r); err == nil {
			t.Errorf("link rate %v accepted", r)
		}
		if err := exp.AddFlow("h0", "h1", r, 0, 0); err == nil {
			t.Errorf("flow rate %v accepted", r)
		}
	}
	if err := exp.At(Second).NodeDown("ghost"); err == nil {
		t.Error("unknown node for NodeDown accepted")
	}
	if err := exp.At(Second).NodeUp("ghost"); err == nil {
		t.Error("unknown node for NodeUp accepted")
	}
	if err := exp.At(Second).LinkUp("h0", "s0"); err != nil {
		t.Errorf("valid LinkUp rejected: %v", err)
	}
	if _, err := exp.FlapRandomLinks(1, 1, 0, Second, Second, Second); err == nil {
		t.Error("flap on star (no eligible cables) accepted")
	}
}

// TestSetLinkRateMidRun checks the capacity-change injection end to end:
// a mid-run degrade of the only path throttles the flow, and a later
// restore returns it to full rate — no routing changes involved.
func TestSetLinkRateMidRun(t *testing.T) {
	topo, err := Star(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SampleInterval = 10 * Millisecond
	exp := NewExperiment(cfg)
	exp.SetTopology(topo)
	exp.UseSDN(AppReactive())
	if err := exp.AddFlow("h0", "h1", 800*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(4*Second).SetLinkRate("h0", "s0", 200*Mbps); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(8*Second).SetLinkRate("h0", "s0", Gbps); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(12 * Second)
	if err != nil {
		t.Fatal(err)
	}
	rx := res.AggregateRx
	if pre := rx.MeanBetween(3*Second, 4*Second); pre < float64(750*Mbps) {
		t.Fatalf("pre-change rate = %v", Rate(pre))
	}
	if mid := rx.MeanBetween(5*Second, 8*Second); mid > float64(210*Mbps) || mid < float64(150*Mbps) {
		t.Fatalf("degraded rate = %v, want ~200Mbps", Rate(mid))
	}
	if post := rx.MeanBetween(9*Second, 12*Second); post < float64(750*Mbps) {
		t.Fatalf("restored rate = %v", Rate(post))
	}
}

// TestNodeDownUpBGP kills a transit router and brings it back: the ring
// re-converges around the dead node and heals when it returns.
func TestNodeDownUpBGP(t *testing.T) {
	topo, err := WANRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h0", "h2", 400*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(5 * Second).NodeDown("r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(10 * Second).NodeUp("r1"); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(15 * Second)
	if err != nil {
		t.Fatal(err)
	}
	// r1 has three cables (two ring links and its host access link):
	// down + up = 6 cable injections.
	if res.Injections != 6 {
		t.Fatalf("injections = %d, want 6", res.Injections)
	}
	if res.RouteWithdraws == 0 {
		t.Fatal("node failure produced no withdrawals")
	}
	rx := res.AggregateRx
	// The flow survives the node failure via the other side of the ring
	// and is still active at the end.
	if mid := rx.MeanBetween(8*Second, 10*Second); mid < float64(350*Mbps) {
		t.Fatalf("rate during node outage = %v; reroute failed", Rate(mid))
	}
	if tail := rx.MeanBetween(14*Second, 15*Second); tail < float64(350*Mbps) {
		t.Fatalf("rate after node repair = %v", Rate(tail))
	}
}

// TestFailureRunIsMaxMinFair degrades a core cable to 250 Mbps at 3 s,
// takes it down at 5 s and repairs it at 7 s, and holds the data plane's
// allocation to the max–min invariants every 100 ms — right after each
// injection at its own instant — and after the run. Each of the three
// windows is checked. fattree:2 has one core switch and one flow each
// way across it, so the degraded window delivers 2 × 250 Mbps, the down
// window nothing (the pods are cut apart; rate 0 is the max–min answer)
// and the repaired one traffic again.
func TestFailureRunIsMaxMinFair(t *testing.T) {
	topo, err := FatTree(2, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseSDN(AppECMP5())
	if err := exp.SendPermutation(4, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(3*Second).SetLinkRate("agg-0-0", "core-0-0", 250*Mbps); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(5*Second).LinkDown("agg-0-0", "core-0-0"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(7*Second).LinkUp("agg-0-0", "core-0-0"); err != nil {
		t.Fatal(err)
	}
	calls := checkMaxMin(t, exp, 9*Second)
	res, err := exp.Run(9 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Manager().Net.Flows.CheckInvariants(); err != nil {
		t.Errorf("after the run: %v", err)
	}
	windows := []struct {
		name         string
		from, to     Time
		minRx, maxRx Rate // the window's mean aggregate rx
	}{
		{"250 Mbps", 3 * Second, 5 * Second, Mbps, 2*250*Mbps + Mbps},
		{"down", 5 * Second, 7 * Second, 0, 0},
		{"repaired", 7 * Second, 9 * Second, Mbps, 2 * Gbps},
	}
	counts := make([]int, len(windows))
	for i, w := range windows {
		for _, at := range *calls {
			if at >= w.from && at < w.to {
				counts[i]++
			}
		}
		if counts[i] == 0 {
			t.Errorf("%s window %v-%v: no CheckInvariants call", w.name, w.from, w.to)
		}
		if rx := Rate(res.AggregateRx.MeanBetween(w.from, w.to)); rx < w.minRx || rx > w.maxRx {
			t.Errorf("%s window %v-%v: mean rx %v, want %v-%v", w.name, w.from, w.to, rx, w.minRx, w.maxRx)
		}
	}
	t.Logf("%d CheckInvariants calls (+1 after the run): %d in the 250 Mbps window, %d down, %d repaired",
		len(*calls), counts[0], counts[1], counts[2])
}

// TestNodeUpDoesNotReviveScriptedLinkDown pins the composition rule: a
// node repair restores only the cables its own failure took down — an
// independent scripted LinkDown outlives the node outage until its own
// LinkUp.
func TestNodeUpDoesNotReviveScriptedLinkDown(t *testing.T) {
	topo, err := WANRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h0", "h2", 400*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Scripted outage of r0-r1 from 3s to 12s; r1 crashes and recovers
	// inside that window. NodeUp at 8s must NOT bring r0-r1 back.
	if err := exp.At(3*Second).LinkDown("r0", "r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(5 * Second).NodeDown("r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(8 * Second).NodeUp("r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(12*Second).LinkUp("r0", "r1"); err != nil {
		t.Fatal(err)
	}
	var linkStates []bool
	r0, _ := topo.NodeByName("r0")
	r1, _ := topo.NodeByName("r1")
	ab := topo.CableBetween(r0.ID, r1.ID)
	check := func(at Time) {
		exp.addInjection(at, func(m *cm.Manager) {
			linkStates = append(linkStates, m.G.LinkAlive(ab.ID))
		})
	}
	check(10 * Second) // after NodeUp, before LinkUp
	check(13 * Second) // after LinkUp
	res, err := exp.Run(15 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(linkStates) != 2 || linkStates[0] || !linkStates[1] {
		t.Fatalf("r0-r1 alive states [after NodeUp, after LinkUp] = %v, want [false true]", linkStates)
	}
	// LinkDown, NodeDown (2 remaining cables), NodeUp (2), LinkUp = 6
	// transitions; the scripted LinkUp is NOT swallowed by NodeUp.
	if res.Injections != 6 {
		t.Fatalf("injections = %d, want 6", res.Injections)
	}
	// After everything heals the flow runs again.
	if tail := res.AggregateRx.MeanBetween(14*Second, 15*Second); tail < float64(350*Mbps) {
		t.Fatalf("rate after full repair = %v", Rate(tail))
	}
}

// TestHostLinkFailureRestoresConnectedRoute pins the interface-up
// behaviour of a BGP edge router: failing a host access link prunes the
// router's connected /32 (interface-down), and the repair must reinstall
// it or the host stays blackholed forever.
func TestHostLinkFailureRestoresConnectedRoute(t *testing.T) {
	topo, err := WANRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h0", "h1", 400*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(4*Second).LinkDown("h1", "r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(7*Second).LinkUp("h1", "r1"); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(12 * Second)
	if err != nil {
		t.Fatal(err)
	}
	rx := res.AggregateRx
	if pre := rx.MeanBetween(3*Second, 4*Second); pre < float64(350*Mbps) {
		t.Fatalf("pre-failure rate = %v", Rate(pre))
	}
	if mid := rx.MeanBetween(5*Second, 7*Second); mid != 0 {
		t.Fatalf("rate during access outage = %v, want 0", Rate(mid))
	}
	if post := rx.MeanBetween(10*Second, 12*Second); post < float64(350*Mbps) {
		t.Fatalf("rate after access repair = %v; connected /32 not reinstalled", Rate(post))
	}
}

// TestLinkDownDuringNodeOutageSurvivesNodeUp pins the other composition
// direction: a LinkDown scripted while the node outage already holds the
// cable down must convert it to an independent outage that NodeUp does
// not revive.
func TestLinkDownDuringNodeOutageSurvivesNodeUp(t *testing.T) {
	topo, err := WANRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h0", "h2", 400*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(3 * Second).NodeDown("r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(4*Second).LinkDown("r0", "r1"); err != nil { // cable already down
		t.Fatal(err)
	}
	if err := exp.At(6 * Second).NodeUp("r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(10*Second).LinkUp("r0", "r1"); err != nil {
		t.Fatal(err)
	}
	var alive []bool
	r0, _ := topo.NodeByName("r0")
	r1, _ := topo.NodeByName("r1")
	ab := topo.CableBetween(r0.ID, r1.ID)
	check := func(at Time) {
		exp.addInjection(at, func(m *cm.Manager) {
			alive = append(alive, m.G.LinkAlive(ab.ID))
		})
	}
	check(8 * Second)  // after NodeUp: must still be down
	check(11 * Second) // after its own LinkUp: restored
	res, err := exp.Run(13 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(alive) != 2 || alive[0] || !alive[1] {
		t.Fatalf("r0-r1 alive [after NodeUp, after LinkUp] = %v, want [false true]", alive)
	}
	if tail := res.AggregateRx.MeanBetween(12*Second, 13*Second); tail < float64(350*Mbps) {
		t.Fatalf("rate after full repair = %v", Rate(tail))
	}
}

// TestAdjacentNodeOutagesDeferSharedCable pins CableUp's node-liveness
// rule: a cable cannot come up while either endpoint node is crashed.
// With two adjacent crashed routers, the first NodeUp defers their
// shared cable to the second node's restore list; only the second
// NodeUp revives it (and re-peers its BGP session).
func TestAdjacentNodeOutagesDeferSharedCable(t *testing.T) {
	topo, err := WANRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h0", "h2", 400*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(3 * Second).NodeDown("r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(4 * Second).NodeDown("r2"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(6 * Second).NodeUp("r1"); err != nil {
		t.Fatal(err)
	}
	if err := exp.At(9 * Second).NodeUp("r2"); err != nil {
		t.Fatal(err)
	}
	var alive []bool
	r1, _ := topo.NodeByName("r1")
	r2, _ := topo.NodeByName("r2")
	ab := topo.CableBetween(r1.ID, r2.ID)
	check := func(at Time) {
		exp.addInjection(at, func(m *cm.Manager) {
			alive = append(alive, m.G.LinkAlive(ab.ID))
		})
	}
	check(8 * Second)  // r1 up, r2 still down: shared cable must stay dead
	check(11 * Second) // both up: restored
	res, err := exp.Run(14 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(alive) != 2 || alive[0] || !alive[1] {
		t.Fatalf("r1-r2 alive [r1 up only, both up] = %v, want [false true]", alive)
	}
	// h2 is reachable again after r2 recovers (its access link and BGP
	// sessions restored through the second NodeUp).
	if tail := res.AggregateRx.MeanBetween(13*Second, 14*Second); tail < float64(350*Mbps) {
		t.Fatalf("rate after both repairs = %v", Rate(tail))
	}
}
