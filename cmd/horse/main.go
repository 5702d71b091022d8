// Command horse is the experiment runner. Bare flags run one experiment
// — pick a topology, a control plane scenario and a workload, run it
// under the hybrid clock — and print the aggregate receive-rate summary
// the paper's demo shows; `horse fig3` regenerates Figure 3 (see
// fig3.go). All spec parsing lives in internal/spec, shared with the
// horsed campaign daemon: a flag invocation here is the same experiment
// as the equivalent submitted campaign run.
//
// With -fail, the agg-0-0 <-> core-0-0 cable dies one third into the run
// and is repaired at two thirds: the series shows the throughput
// collapse and the control plane's repair — BGP withdraws and reroutes,
// or the SDN controller reacts to PORT_STATUS — followed by full
// restoration at link-up. A dip/recovery summary quantifies both.
//
// Giving -traffic or -capacity adds a workload summary — goodput
// tracking and the min-host-rx floor distribution over the second half
// of the run.
//
// Usage examples:
//
//	horse -topo fattree:4 -scenario ecmp5 -traffic permutation:42 -dur 20s
//	horse -topo fattree:4 -scenario bgp-ecmp -fail
//	horse -topo ring:8:2 -scenario bgp -traffic stride:1 -dur 30s
//	horse -topo two-routers -scenario bgp -dur 10s
//	horse -traffic matrix:demands.csv:2 -capacity walk:7:250ms -dur 10s
//	horse -traffic incast:42:8 -scenario hedera -dur 10s
//	horse fig3 -k 4,6,8 -dur 10s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	horse "repro"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code exposed for testing:
// 0 = ran, 1 = a run failed, 2 = flag, spec or usage error (reported
// before anything runs).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return single(args, stdout, stderr)
	}
	if args[0] == "fig3" {
		return fig3(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "horse: unknown subcommand %q\nusage: horse [flags]\n       horse fig3 [flags]\n", args[0])
	return 2
}

// failFrom and failTo name the victim cable of -fail runs; the same
// agg-core cable exists in the BGP, SDN and baseline fat-trees.
const (
	failFrom = "agg-0-0"
	failTo   = "core-0-0"
)

// fineSample is the aggregate-rate sampling period of runs whose summary
// resolves dips: control plane repair and incast bursts take
// milliseconds of (FTI-paced) virtual time.
const fineSample = spec.Duration(10 * time.Millisecond)

// runFlags declares the flags both subcommands share, bound straight
// into r; r's current Dur and Pacing are their defaults. It returns the
// -fail switch, which scripts an injection rather than setting a field.
func runFlags(fs *flag.FlagSet, r *spec.Run) (fail *bool) {
	fs.DurationVar((*time.Duration)(&r.Dur), "dur", r.Dur.Duration(), "virtual duration of each run")
	fs.Float64Var(&r.Pacing, "pacing", r.Pacing, "FTI pacing (1.0 = paper-faithful real time)")
	fs.StringVar(&r.CaptureDir, "pcap", "", "record control plane traffic as one pcapng trace, DIR/control.pcapng (one interface per session; open it in Wireshark)")
	return fs.Bool("fail", false, "take the "+failFrom+" <-> "+failTo+" cable down at dur/3 and repair it at 2*dur/3")
}

// failWindow is when a -fail run of the given length loses and regains
// its victim cable.
func failWindow(until core.Time) (down, up core.Time) {
	return until / 3, 2 * until / 3
}

// prepare builds r's experiment and, under -fail, scripts the failure
// into it. Nothing has run yet, so every error from here is a usage
// error: a bad spec, an unreadable workload file, a topology without
// the victim cable.
func prepare(r spec.Run, fail bool) (*horse.Experiment, error) {
	exp, err := r.Experiment()
	if err != nil || !fail {
		return exp, err
	}
	down, up := failWindow(r.Until())
	if err := exp.At(down).LinkDown(failFrom, failTo); err != nil {
		return nil, fmt.Errorf("-fail: %w", err)
	}
	if err := exp.At(up).LinkUp(failFrom, failTo); err != nil {
		return nil, fmt.Errorf("-fail: %w", err)
	}
	return exp, nil
}

// single runs one experiment from bare flags.
func single(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("horse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	r := spec.Run{Dur: spec.DefaultDur, Pacing: spec.DefaultPacing}
	fail := runFlags(fs, &r)
	fs.StringVar(&r.Topo, "topo", "fattree:4", "topology: fattree:K, linear:N, star:N, ring:N[:CHORD], two-routers, wan:NAME (abilene, tier1), wan:mesh:SEED[:POPS], wan:multi:SEED[:ASES[:POPS[:PREFIXES]]]")
	fs.StringVar(&r.Scenario, "scenario", "ecmp5", "control plane: bgp, bgp-ecmp, bgp-rr, ecmp5, hedera, reactive")
	fs.StringVar(&r.Traffic, "traffic", "", "workload: permutation:SEED, stride:N, matrix:FILE[:SCALE], pareto[:SEED[:N]], lognormal[:SEED[:N]], incast[:SEED[:FANIN]], alltoall[:PHASES], ring[:STEPS], none (default "+spec.DefaultTraffic+")")
	fs.StringVar(&r.Capacity, "capacity", "", "time-varying link capacity: walk[:SEED[:PERIOD]], trace:FILE, none")
	fs.Float64Var(&r.RateGbps, "rate", spec.DefaultRate, "per-flow rate in Gbps")
	r.DelayScale = fs.Float64("delay-scale", 1.0, "scale WAN geographic link delays (0 = zero-latency ablation)")
	fs.BoolVar(&r.Dampening, "dampening", false, "enable BGP route flap dampening")
	fs.DurationVar((*time.Duration)(&r.AdvertiseDelay), "advertise-delay", 0, "BGP MRAI-style batching window, virtual time (0 = speaker default 2ms)")
	verbose := fs.Bool("v", false, "log subsystem activity")
	tsv := fs.Bool("tsv", false, "dump aggregate rx series as TSV")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "horse: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	workload := r.Traffic != "" || r.Capacity != ""
	if *fail || workload {
		r.SampleInterval = fineSample
	}
	r = r.WithDefaults()
	exp, err := prepare(r, *fail)
	if err != nil {
		fmt.Fprintln(stderr, "horse:", err)
		return 2
	}
	if ts, _ := spec.ParseTopo(r.Topo); ts.WAN() && r.Scenario != "bgp-rr" {
		fmt.Fprintln(stderr, "note: single-AS WAN without -scenario bgp-rr runs plain iBGP (no reflection); expect partial convergence")
	}
	if *verbose {
		exp.SetLogf(func(f string, a ...any) { fmt.Fprintf(stderr, f+"\n", a...) })
	}

	res, err := exp.Run(r.Until())
	if err != nil {
		fmt.Fprintln(stderr, "horse:", err)
		return 1
	}
	if *tsv {
		fmt.Fprint(stdout, res.AggregateRx.TSV())
	}
	summarize(stdout, r, res)
	if workload {
		summarizeWorkload(stdout, r, res)
	}
	if *fail {
		summarizeFailure(stdout, r, res)
	}
	return 0
}

// summarize prints the run's headline numbers: delivered rate, what the
// hybrid clock spent, and what the control plane and the rate solver
// did.
func summarize(w io.Writer, r spec.Run, res *horse.Result) {
	hosts := res.Topology.Hosts
	steady := res.SteadyAggregateRx()
	fmt.Fprintf(w, "# %s hosts=%d switches=%d routers=%d\n", r, hosts, res.Topology.Switches, res.Topology.Routers)
	fmt.Fprintf(w, "steady aggregate rx : %v", steady)
	if offered, ok := stats.Ratio(float64(steady), float64(hosts)*r.RateGbps*float64(horse.Gbps)); ok {
		fmt.Fprintf(w, " (%.1f%% of %d hosts x %vGbps)", 100*offered, hosts, r.RateGbps)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "peak aggregate rx   : %v\n", horse.Rate(res.AggregateRx.Max()))
	if conv, ok := res.ConvergedAt(0.95); ok {
		fmt.Fprintf(w, "converged           : aggregate rx reached 95%% of steady at t=%v\n", conv)
	}
	fmt.Fprintf(w, "execution wall time : %v (setup %v, teardown %v)\n",
		res.Sim.WallTotal.Round(time.Millisecond), res.SetupWall.Round(time.Millisecond),
		res.TeardownWall.Round(time.Millisecond))
	// FTI exits "on timeout" waited out QuietTimeout with work still
	// counted in flight: a leaked ledger token, worth a look.
	fmt.Fprintf(w, "clock               : FTI %v / DES %v virtual, %d transitions (%d on evidence, %d on timeout)\n",
		res.Sim.VirtualFTI, res.Sim.VirtualDES, res.Sim.Transitions,
		res.Sim.EvidenceExits, res.Sim.TimeoutExits)
	fmt.Fprintf(w, "control plane       : %d bytes, %d writes, %d flowmods, %d routes, %d packet-ins, %d stats\n",
		res.ControlBytes, res.ControlWrites, res.FlowModsApplied,
		res.RouteInstalls, res.PacketIns, res.StatsQueries)
	// Flows a solve is the mean region size: what one solve re-fills.
	perSolve := 0.0
	if res.Solver.Solves > 0 {
		perSolve = float64(res.Solver.Flows) / float64(res.Solver.Solves)
	}
	fmt.Fprintf(w, "rate solver         : %d solves (%.1f flows a solve), %d components (largest %d flows), %d refills (%d links promoted)\n",
		res.Solver.Solves, perSolve, res.Solver.Components, res.Solver.MaxComponentFlows,
		res.Solver.Refills, res.Solver.Promoted)
	mem := res.Solver.Mem
	fmt.Fprintf(w, "solver memory       : %d flow slots (%d live, %d free), %d links, arenas %d B paths + %d B members, %d B scratch\n",
		mem.FlowSlots, mem.LiveFlows, mem.FreeFlows, mem.LinkSlots,
		mem.PathArenaBytes, mem.MemberArenaBytes, mem.ScratchBytes)
	if res.MeanPathLatency > 0 {
		fmt.Fprintf(w, "path latency        : %v rate-weighted mean one-way\n", res.MeanPathLatency)
	}
	if len(res.CaptureFiles) > 0 {
		fmt.Fprintf(w, "capture             : %s (inspect with Wireshark or cmd/pcapcheck)\n",
			strings.Join(res.CaptureFiles, " "))
	}
}

// summarizeWorkload covers the second half of the run (the same steady
// window SteadyAggregateRx uses): goodput tracking under capacity
// churn, and the min-host-rx floor distribution that incast bursts
// carve out.
func summarizeWorkload(w io.Writer, r spec.Run, res *horse.Result) {
	end := r.Until()
	half := end / 2
	rx := res.AggregateRx
	capacity := r.Capacity
	if capacity == "" {
		capacity = "none"
	}
	fmt.Fprintf(w, "workload            : traffic=%s capacity=%s (%d injections)\n",
		r.Traffic, capacity, res.Injections)
	fmt.Fprintf(w, "  goodput (2nd half): mean %v", horse.Rate(rx.MeanBetween(half, end)))
	if min, ok := rx.MinBetween(half, end); ok {
		fmt.Fprintf(w, ", min %v at %v", horse.Rate(min.Value), min.At)
	}
	fmt.Fprintln(w)
	if min, ok := res.MinHostRx.MinBetween(half, end); ok {
		p5, _ := res.MinHostRx.PercentileBetween(half, end, 0.05)
		med, _ := res.MinHostRx.PercentileBetween(half, end, 0.50)
		fmt.Fprintf(w, "  min host rx floor : %v at %v (p5 %v, median %v)\n",
			horse.Rate(min.Value), min.At, horse.Rate(p5), horse.Rate(med))
	}
}

// summarizeFailure quantifies a -fail run's dip and repair.
func summarizeFailure(w io.Writer, r spec.Run, res *horse.Result) {
	end := r.Until()
	failAt, healAt := failWindow(end)
	rx := res.AggregateRx
	pre := rx.MeanBetween(failAt-horse.Second, failAt)
	post := rx.MeanBetween(end-horse.Second, end)
	fmt.Fprintf(w, "failure injection   : %s <-> %s down @%v, up @%v (%d injections)\n",
		failFrom, failTo, failAt, healAt, res.Injections)
	rep, ok := rx.RepairAfter(failAt, healAt, stats.DefaultRepairFrac)
	if pre <= 0 || !ok {
		fmt.Fprintf(w, "  no pre-failure baseline: the control plane had not converged by %v; use a longer -dur\n", failAt)
		return
	}
	fmt.Fprintf(w, "  pre-failure rate  : %v\n", horse.Rate(pre))
	fmt.Fprintf(w, "  dip               : %v at %v (-%.1f%%)\n",
		horse.Rate(rep.Dip.Value), rep.Dip.At, 100*(pre-rep.Dip.Value)/pre)
	if rep.Recovered {
		fmt.Fprintf(w, "  repaired          : %v at %v (%v after failure, before link-up)\n",
			horse.Rate(rep.Rec.Value), rep.Rec.At, rep.Latency)
	}
	fmt.Fprintf(w, "  degraded steady   : %v (%.1f%% of pre-failure)\n", horse.Rate(rep.Degraded), 100*rep.Degraded/pre)
	fmt.Fprintf(w, "  post-repair rate  : %v (%.1f%% of pre-failure)\n", horse.Rate(post), 100*post/pre)
}
