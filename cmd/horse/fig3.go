package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	horse "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// teScenarios is the demonstration suite: the paper's three
// traffic-engineering approaches, as spec scenarios.
var teScenarios = []string{"bgp-ecmp", "hedera", "ecmp5"}

// fig3 regenerates Figure 3 of the paper: wall-clock execution time of
// the three-TE demonstration suite on Horse versus a packet-level
// real-time emulation baseline (the paper's Mininet), for fat-tree sizes
// k in {4, 6, 8}.
//
//	horse fig3 [-k 4,6,8] [-dur 10s] [-pacing 1.0] [-skip-baseline] [-fail]
//
// With -pacing 1.0 (default) Horse's FTI mode is paper-faithful real
// time; larger values compress control plane wall time proportionally on
// BOTH systems, preserving the ratio.
//
// With -fail, every run (on both systems) takes the agg-core link
// failure at dur/3 repaired at 2*dur/3, and two extra columns report
// each system's repair latency — the time from the post-failure
// throughput dip until delivery returns to the degraded steady rate, in
// virtual time — plus their ratio. Repair-latency speedup is the
// stronger headline than steady-state speedup: Horse measures the
// control plane's actual repair conversation, while the baseline pays
// its calibrated reconvergence delay in real time.
func fig3(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("horse fig3", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := spec.Run{Dur: spec.Duration(10 * time.Second), Pacing: spec.DefaultPacing}
	fail := runFlags(fs, &base)
	kList := fs.String("k", "4,6,8", "comma-separated fat-tree arities")
	skipBaseline := fs.Bool("skip-baseline", false, "run only Horse")
	seed := fs.Int64("seed", 42, "traffic permutation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "horse fig3: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	// Both systems take duration and pacing from the defaulted run, so
	// they can never disagree about how long the experiment is.
	base = base.WithDefaults()
	base.Traffic = fmt.Sprintf("permutation:%d", *seed)
	if *fail {
		base.SampleInterval = fineSample
	}
	pcapDir := base.CaptureDir

	// Build every experiment of the table up front: the three TE runs
	// are ordinary spec.Runs — the same ones a horsed campaign over
	// topos=[fattree:k] x scenarios=[...] would expand to — and a bad
	// -k, -dur or -pacing is reported before the first run starts.
	type suite struct {
		k    int
		exps []*horse.Experiment
	}
	var suites []suite
	for _, ks := range strings.Split(*kList, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(ks))
		if err != nil {
			fmt.Fprintf(stderr, "horse fig3: bad -k %q: %v\n", ks, err)
			return 2
		}
		s := suite{k: k}
		for _, te := range teScenarios {
			r := base
			r.Topo = fmt.Sprintf("fattree:%d", k)
			r.Scenario = te
			if pcapDir != "" {
				r.CaptureDir = filepath.Join(pcapDir, fmt.Sprintf("k%d-%s", k, te))
			}
			exp, err := prepare(r, *fail)
			if err != nil {
				fmt.Fprintf(stderr, "horse fig3: k=%d %s: %v\n", k, te, err)
				return 2
			}
			s.exps = append(s.exps, exp)
		}
		suites = append(suites, s)
	}

	dur, pacing := base.Dur.Duration(), base.Pacing
	fmt.Fprintf(stdout, "# Figure 3: execution time of the demonstration (3 TE approaches, %v virtual each, pacing %.1f, fail=%v)\n", dur, pacing, *fail)
	header := fmt.Sprintf("%-4s %-14s %-14s", "k", "horse-setup", "horse-exec")
	if *fail {
		header += fmt.Sprintf(" %-13s", "horse-repair")
	}
	if !*skipBaseline {
		header += fmt.Sprintf(" %-14s", "baseline-exec")
		if *fail {
			header += fmt.Sprintf(" %-13s", "base-repair")
		}
		header += fmt.Sprintf(" %-8s", "ratio")
		if *fail {
			header += fmt.Sprintf(" %-12s", "repair-ratio")
		}
	}
	fmt.Fprintln(stdout, header)

	for _, s := range suites {
		horseSetup, horseExec, horseRepair, err := runHorseSuite(s.k, s.exps, base.Until(), *fail, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "horse fig3:", err)
			return 1
		}
		line := fmt.Sprintf("%-4d %-14v %-14v", s.k, horseSetup.Round(time.Millisecond), horseExec.Round(time.Millisecond))
		if *fail {
			line += fmt.Sprintf(" %-13v", horseRepair.Round(time.Millisecond))
		}
		if *skipBaseline {
			fmt.Fprintln(stdout, line)
			continue
		}
		baseExec, baseRepair, err := runBaselineSuite(s.k, dur, pacing, *seed, *fail, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "horse fig3:", err)
			return 1
		}
		line += fmt.Sprintf(" %-14v", baseExec.Round(time.Millisecond))
		if *fail {
			line += fmt.Sprintf(" %-13v", baseRepair.Round(time.Millisecond))
		}
		// The denominators can legitimately be zero (no repair observed,
		// a degenerate run); the shared stats.Ratio guard keeps NaN/Inf
		// out of the table.
		if r, ok := stats.Ratio(float64(baseExec), float64(horseExec)); ok {
			line += fmt.Sprintf(" %-8.2f", r)
		} else {
			line += fmt.Sprintf(" %-8s", "n/a")
		}
		if *fail {
			if r, ok := stats.Ratio(float64(baseRepair), float64(horseRepair)); ok && baseRepair > 0 {
				line += fmt.Sprintf(" %-12.2f", r)
			} else {
				line += fmt.Sprintf(" %-12s", "n/a")
			}
		}
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// runHorseSuite executes the prepared TE experiments on Horse and
// returns (topology setup, execution) wall times plus — under -fail —
// the mean repair latency in virtual time.
func runHorseSuite(k int, exps []*horse.Experiment, until core.Time, fail bool, progress io.Writer) (setup, exec, repair time.Duration, err error) {
	failAt, healAt := failWindow(until)
	var repaired int
	var repairSum core.Time
	for i, exp := range exps {
		te := teScenarios[i]
		res, err := exp.Run(until)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("k=%d %s: %w", k, te, err)
		}
		// The slice was built up front and outlives the run: drop the
		// finished experiment so its engine and tables can be collected.
		exps[i] = nil
		setup += res.SetupWall
		exec += res.Sim.WallTotal
		repairNote := ""
		if fail {
			if rep, ok := res.AggregateRx.RepairAfter(failAt, healAt, stats.DefaultRepairFrac); ok && rep.Recovered {
				repaired++
				repairSum += rep.Latency
				repairNote = fmt.Sprintf(" repair=%v", rep.Latency)
			} else {
				repairNote = " repair=n/a"
			}
		}
		fmt.Fprintf(progress, "  horse k=%d %-9s wall=%-10v steady-rx=%v%s\n",
			k, te, res.Sim.WallTotal.Round(time.Millisecond), res.SteadyAggregateRx(), repairNote)
	}
	if repaired > 0 {
		repair = (repairSum / core.Time(repaired)).Duration()
	}
	return setup, exec, repair, nil
}

// runBaselineSuite executes the equivalent three runs on the real-time
// emulator: each pays topology setup plus the experiment duration 1:1
// with the wall clock (scaled by the same pacing factor). Under -fail the
// same agg-core cable dies at dur/3 and heals at 2*dur/3, and the mean
// repair latency (converted to virtual time via the pacing factor, so it
// compares directly with Horse's) is returned alongside.
func runBaselineSuite(k int, dur time.Duration, pacing float64, seed int64, fail bool, progress io.Writer) (exec, repair time.Duration, err error) {
	var repairSum time.Duration
	repaired := 0
	wallDur := time.Duration(float64(dur) / pacing)
	down, up := failWindow(core.FromDuration(wallDur))
	failAt, healAt := down.Duration(), up.Duration()
	for te := range teScenarios {
		g, err := topo.FatTree(topo.FatTreeOpts{K: k})
		if err != nil {
			return 0, 0, err
		}
		em, err := baseline.New(g, baseline.Config{})
		if err != nil {
			return 0, 0, err
		}
		var injs []baseline.Injection
		if fail {
			cable, err := failCable(g)
			if err != nil {
				em.Close()
				return 0, 0, err
			}
			injs = append(injs,
				baseline.Injection{At: failAt, Link: cable, Down: true},
				baseline.Injection{At: healAt, Link: cable, Down: false})
		}
		st := em.Run(flowsFor(g, seed), wallDur, injs...)
		em.Close()
		exec += em.SetupTime + st.Wall
		repairNote := ""
		if fail {
			if lat, ok := st.RepairLatency(failAt, healAt, stats.DefaultRepairFrac); ok {
				repaired++
				lat = time.Duration(float64(lat) * pacing) // wall -> virtual
				repairSum += lat
				repairNote = fmt.Sprintf(" repair=%v", lat.Round(time.Millisecond))
			} else {
				repairNote = " repair=n/a"
			}
		}
		fmt.Fprintf(progress, "  baseline k=%d run %d setup=%v %v%s\n", k, te+1,
			em.SetupTime.Round(time.Millisecond), st, repairNote)
	}
	if repaired > 0 {
		repair = repairSum / time.Duration(repaired)
	}
	return exec, repair, nil
}

// failCable resolves the victim cable in the baseline's topology.
func failCable(g *topo.Graph) (core.LinkID, error) {
	a, aok := g.NodeByName(failFrom)
	b, bok := g.NodeByName(failTo)
	if !aok || !bok {
		return 0, fmt.Errorf("no %s or %s in the baseline fat-tree", failFrom, failTo)
	}
	l := g.CableBetween(a.ID, b.ID)
	if l == nil {
		return 0, fmt.Errorf("no cable between %s and %s", failFrom, failTo)
	}
	return l.ID, nil
}

func flowsFor(g *topo.Graph, seed int64) []baseline.FlowSpec {
	hosts := g.Hosts()
	specs := traffic.Permutation(seed, 1*core.Gbps, 0, 0)(len(hosts))
	out := make([]baseline.FlowSpec, 0, len(specs))
	for _, s := range specs {
		src := hosts[s.SrcHost]
		dst := hosts[s.DstHost]
		out = append(out, baseline.FlowSpec{
			Tuple: core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: s.Proto,
				SrcPort: s.SrcPort, DstPort: s.DstPort},
			Src: src.ID, Dst: dst.ID, Rate: s.Rate,
		})
	}
	return out
}
