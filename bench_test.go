package horse

// Benchmark harness regenerating every evaluation artifact of the paper
// (see DESIGN.md's experiment index and EXPERIMENTS.md for measured
// numbers):
//
//   - BenchmarkFig3Horse / BenchmarkFig3Baseline — Figure 3: wall-clock
//     execution time of the three-TE demonstration suite on Horse vs the
//     packet-level real-time emulator, fat-tree k in {4, 6, 8}.
//   - BenchmarkTopoCreate — the demo's "time required to create the
//     topology" component.
//   - BenchmarkDemoBGPECMP / BenchmarkDemoHedera / BenchmarkDemoSDNECMP —
//     the per-TE aggregate receive rate graphs (Demo-G1..G3).
//   - BenchmarkModeTransitions — Figure 1's DES<->FTI transition cost.
//   - BenchmarkMRAISweep — the advertisement window axis at pacing 1
//     (BENCH_clock.json): wall time must not grow with the window.
//   - BenchmarkECMPInstall / BenchmarkFlowTable — the SDN control path
//     (BENCH_sdn.json): the proactive install without the simulator, and
//     the switch flow table alone.
//
// Benchmarks run with FTI pacing > 1 to keep wall times tractable; the
// pacing factor is constant across compared configurations, so ratios
// (who wins, by how much) are preserved. `horse fig3` runs the same suite at
// paper-faithful pacing 1.0.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/flowtable"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topo"
)

// benchConfig is the accelerated clock used throughout the benches.
func benchConfig() Config {
	return Config{Pacing: 20}
}

// teDuration is the virtual duration of each TE experiment in the suite.
const teDuration = 10 * Second

// runTE runs one TE experiment on a fresh topology and returns its result.
func runTE(b *testing.B, k int, te string) *Result {
	b.Helper()
	var (
		g   *Topology
		err error
	)
	exp := NewExperiment(benchConfig())
	switch te {
	case "bgp-ecmp":
		g, err = FatTree(k, BGP())
		if err != nil {
			b.Fatal(err)
		}
		exp.SetTopology(g)
		exp.UseBGP(BGPOptions{ECMP: true})
	case "hedera":
		g, err = FatTree(k, SDN())
		if err != nil {
			b.Fatal(err)
		}
		exp.SetTopology(g)
		exp.UseSDN(AppHedera(5 * Second))
	case "ecmp5":
		g, err = FatTree(k, SDN())
		if err != nil {
			b.Fatal(err)
		}
		exp.SetTopology(g)
		exp.UseSDN(AppECMP5())
	default:
		b.Fatalf("unknown TE %q", te)
	}
	if err := exp.SendPermutation(42, 1*Gbps, 0, 0); err != nil {
		b.Fatal(err)
	}
	res, err := exp.Run(teDuration)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig3Horse regenerates the Horse curve of Figure 3: the wall
// time to execute the full demonstration (all three TE approaches) per
// fat-tree size.
func BenchmarkFig3Horse(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for _, te := range []string{"bgp-ecmp", "hedera", "ecmp5"} {
					res := runTE(b, k, te)
					if res.SteadyAggregateRx() <= 0 {
						b.Fatalf("%s delivered no traffic", te)
					}
				}
				b.ReportMetric(time.Since(start).Seconds(), "wall-s/suite")
			}
		})
	}
}

// BenchmarkFig3Baseline regenerates the Mininet curve of Figure 3 with
// the packet-level real-time emulator (see the substitution note in
// internal/baseline): per TE run it pays topology setup plus the full
// experiment duration in real time.
func BenchmarkFig3Baseline(b *testing.B) {
	// The baseline has no control plane; its per-TE cost is setup +
	// real-time execution, identical across TE approaches, so emulate
	// the suite as 3 sequential runs.
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for te := 0; te < 3; te++ {
					g, err := topo.FatTree(topo.FatTreeOpts{K: k})
					if err != nil {
						b.Fatal(err)
					}
					em, err := baseline.New(g, baseline.Config{})
					if err != nil {
						b.Fatal(err)
					}
					flows := baseline.PermutationFlows(g, 42)
					// The emulator runs 1:1 with the wall clock for the
					// experiment's virtual duration, scaled by the same
					// pacing factor the Horse benches use, keeping the
					// Figure 3 comparison apples-to-apples.
					st := em.Run(flows, time.Duration(float64(teDuration.Duration())/benchConfig().Pacing))
					em.Close()
					if st.DeliveredBytes == 0 {
						b.Fatal("baseline delivered no traffic")
					}
				}
				b.ReportMetric(time.Since(start).Seconds(), "wall-s/suite")
			}
		})
	}
}

// BenchmarkTopoCreate measures topology creation time — the first number
// the demo displays for each run — for Horse and the baseline.
func BenchmarkTopoCreate(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("horse/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := FatTree(k, SDN())
				if err != nil {
					b.Fatal(err)
				}
				if g.Size().Hosts != k*k*k/4 {
					b.Fatal("bad fat-tree")
				}
			}
		})
		b.Run(fmt.Sprintf("baseline/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := topo.FatTree(topo.FatTreeOpts{K: k})
				if err != nil {
					b.Fatal(err)
				}
				em, err := baseline.New(g, baseline.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(em.SetupTime.Seconds(), "setup-s")
				em.Close()
			}
		})
	}
}

// BenchmarkDemoBGPECMP regenerates Demo-G1: aggregate receive rate under
// BGP with (src,dst)-hash ECMP.
func BenchmarkDemoBGPECMP(b *testing.B) {
	for _, k := range []int{4, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runTE(b, k, "bgp-ecmp")
				reportDemoMetrics(b, k, res)
			}
		})
	}
}

// BenchmarkDemoHedera regenerates Demo-G2: aggregate receive rate under
// Hedera with 5-second statistics polling.
func BenchmarkDemoHedera(b *testing.B) {
	for _, k := range []int{4, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runTE(b, k, "hedera")
				reportDemoMetrics(b, k, res)
				if res.StatsQueries == 0 {
					b.Fatal("Hedera never polled statistics")
				}
			}
		})
	}
}

// BenchmarkDemoSDNECMP regenerates Demo-G3: aggregate receive rate under
// proactive 5-tuple ECMP.
func BenchmarkDemoSDNECMP(b *testing.B) {
	for _, k := range []int{4, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runTE(b, k, "ecmp5")
				reportDemoMetrics(b, k, res)
			}
		})
	}
}

func reportDemoMetrics(b *testing.B, k int, res *Result) {
	b.Helper()
	hosts := float64(k * k * k / 4)
	// Normalized aggregate throughput: 1.0 = every host receives its
	// full offered 1 Gbps.
	b.ReportMetric(float64(res.SteadyAggregateRx())/float64(Gbps)/hosts, "norm-rx")
	b.ReportMetric(res.Sim.WallTotal.Seconds(), "wall-s")
	b.ReportMetric(float64(res.Sim.Transitions), "transitions")
}

// BenchmarkModeTransitions exercises the Figure 1 scenario: a two-router
// BGP session driving DES->FTI->DES transitions.
func BenchmarkModeTransitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := TwoRouters()
		if err != nil {
			b.Fatal(err)
		}
		exp := NewExperiment(benchConfig())
		exp.SetTopology(g)
		exp.UseBGP(BGPOptions{})
		if err := exp.AddFlow("h1", "h2", 500*Mbps, 0, 0); err != nil {
			b.Fatal(err)
		}
		res, err := exp.Run(10 * Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Sim.Transitions), "transitions")
		b.ReportMetric(res.Sim.WallTotal.Seconds(), "wall-s")
	}
}

// BenchmarkMRAISweep is 120 virtual seconds of wan:tier1 under bgp-rr at
// paper-faithful pacing 1, swept over the advertisement window from the
// speaker default to RFC 4271's 30 s. Waiting out a window is not control
// plane activity: wall time should follow the number of FTI episodes, not
// the window, and every window should converge (norm-rx > 0).
func BenchmarkMRAISweep(b *testing.B) {
	for _, delay := range []time.Duration{2 * time.Millisecond, 100 * time.Millisecond, time.Second, 30 * time.Second} {
		b.Run(delay.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runTier1(b, delay, 120*Second)
				b.ReportMetric(float64(res.SteadyAggregateRx())/float64(Gbps)/float64(len(res.Flows)), "norm-rx")
				b.ReportMetric(res.Sim.WallTotal.Seconds(), "wall-s")
				b.ReportMetric(float64(res.Sim.Transitions), "transitions")
			}
		})
	}
}

// BenchmarkEngineDES measures the raw DES event throughput (no control
// plane): the fast path Horse falls back to between control events.
func BenchmarkEngineDES(b *testing.B) {
	e := sim.New(sim.Config{MaxIdleWall: time.Second})
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.After(core.Millisecond, tick)
		} else {
			e.Stop()
		}
	}
	e.Schedule(0, tick)
	b.ResetTimer()
	e.Run(core.MaxTime)
	if count < b.N {
		b.Fatalf("executed %d events, want %d", count, b.N)
	}
}

// countingDataPlane stands in for the simulated switches behind the
// OpenFlow agents: it counts FLOW_MODs and signals the want-th.
type countingDataPlane struct {
	applied atomic.Int64
	want    int64
	done    chan struct{}
}

func (d *countingDataPlane) ApplyFlowMod(openflow.FlowMod) error {
	if d.applied.Add(1) == d.want {
		close(d.done)
	}
	return nil
}
func (*countingDataPlane) FlowStats() []openflow.FlowStatsEntry { return nil }

// timerClock gives the controller a clock without a simulation engine.
type timerClock struct{}

func (timerClock) Now() core.Time               { return 0 }
func (timerClock) After(d core.Time, fn func()) { time.AfterFunc(d.Duration(), fn) }

// BenchmarkECMPInstall measures the proactive ECMP install as the control
// plane alone pays for it: the controller running ecmp5, one OpenFlow
// agent per switch over emu pipes, from the first Connect until every
// switch has been handed a rule for every host (k=10: 31 250 FLOW_MODs,
// k=16: 327 680). Path computation, FLOW_MOD codec and the OpenFlow
// channel are in it; sim, netmodel and the flow table are not.
func BenchmarkECMPInstall(b *testing.B) {
	for _, k := range []int{10, 16} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g, err := topo.FatTree(topo.FatTreeOpts{K: k})
			if err != nil {
				b.Fatal(err)
			}
			switches := g.Switches()
			want := int64(len(switches) * len(g.Hosts()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dp := &countingDataPlane{want: want, done: make(chan struct{})}
				ctl := controller.New(g, timerClock{}, &controller.ECMPApp{}, nil)
				agents := make([]*openflow.Agent, 0, len(switches))
				for _, sw := range switches {
					var ports []openflow.PhyPort
					for _, p := range sw.Ports {
						ports = append(ports, openflow.PhyPort{PortNo: uint16(p.ID), HWAddr: p.MAC})
					}
					swEnd, ctlEnd := emu.Pipe()
					agent := openflow.NewAgent(controller.DPIDOf(sw.ID), ports, swEnd, dp, nil)
					agent.Start()
					agents = append(agents, agent)
					if err := ctl.Connect(sw.ID, controller.DPIDOf(sw.ID), ctlEnd); err != nil {
						b.Fatal(err)
					}
				}
				select {
				case <-dp.done:
				case <-time.After(20 * time.Minute):
					b.Fatalf("%d of %d FLOW_MODs applied", dp.applied.Load(), want)
				}
				b.StopTimer()
				ctl.Stop()
				for _, a := range agents {
					a.Stop()
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(want), "flowmods")
		})
	}
}

// BenchmarkFlowTable measures one switch's table holding ecmp5's rule set
// (n dst/32 rules at one priority; n = hosts at k=10 and k=16): the mean
// cost of an Add while the table fills from empty to n, and of a Lookup
// that hits and one that misses in the full table.
func BenchmarkFlowTable(b *testing.B) {
	entry := func(i int) flowtable.Entry {
		return flowtable.Entry{
			Priority: 100,
			Match:    flowtable.Match{DstBits: 32, Dst: core.IPv4FromUint32(0x0A000000 + uint32(i))},
			Actions:  []flowtable.Action{{Type: flowtable.ActionOutput, Port: core.PortID(1 + i%4)}},
		}
	}
	packet := func(dst uint32) core.FiveTuple {
		return core.FiveTuple{Src: core.IPv4FromUint32(0x0A090909), Dst: core.IPv4FromUint32(dst), Proto: core.ProtoUDP, SrcPort: 1, DstPort: 2}
	}
	for _, n := range []int{250, 1024} {
		n := n
		b.Run(fmt.Sprintf("add/n=%d", n), func(b *testing.B) {
			var t *flowtable.Table
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					t = flowtable.New()
				}
				t.Add(entry(i%n), 0)
			}
		})
		full := flowtable.New()
		for i := 0; i < n; i++ {
			full.Add(entry(i), 0)
		}
		for _, c := range []struct {
			name string
			base uint32
			hit  bool
		}{{"lookup_hit", 0x0A000000, true}, {"lookup_miss", 0x0B000000, false}} {
			c := c
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, ok := full.Lookup(1, packet(c.base+uint32(i%n))); ok != c.hit {
						b.Fatalf("lookup %d: found %v, want %v", i, ok, c.hit)
					}
				}
			})
		}
	}
}
