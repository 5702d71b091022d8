// Command bench is the repo's benchmark: four end-to-end Horse workloads
// measured from outside the program, plus one traced repetition per
// workload and isolated probes of each layer. See README.md.
//
// Given one -workload and a -trace of 0 or 1 it runs that workload in this
// process and ends its output with one JSON line, which is how the driver
// named in BENCHMARK.json calls it. Otherwise it runs each requested
// workload in a fresh child process per -trace value, so that peak RSS and
// GC state do not leak from one workload into the next.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir holds the span traces and the campaign scratch space, relative to
// the checkout root the benchmark runs from.
const outDir = "bench/out"

// A run sets its workload up at least setupPasses times, and for at least
// setupSampling, to sample setup_s: some set-ups take under a millisecond,
// and the median of 25 of those still moves by a third from run to run.
const (
	setupPasses   = 25
	setupSampling = time.Second
)

type options struct {
	seed    int64
	seconds float64 // how long a workload's timed repetitions run, times its share
	reps    int     // untraced repetitions; 0 fits them to seconds
	trace   bool
	smoke   bool
	outDir  string
}

// metricValue is one reported number, with all the digits it was measured
// with.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		names     = flag.String("workload", "", "workload `NAME[,NAME]`; empty runs all of them")
		seed      = flag.Int64("seed", 1, "seed of every generated input (2 is held out for later claims)")
		seconds   = flag.Float64("seconds", 25, "how long a workload's timed repetitions run, times the workload's share (0.8 to 1.6, averaging 1)")
		reps      = flag.Int("reps", 0, "untraced repetitions per workload; 0 fits them to -seconds")
		trace     = flag.Int("trace", -1, "0: untraced repetitions, end-to-end metrics; 1: a traced repetition and the layer probes, per-layer metrics; -1: both")
		smokeSize = flag.Bool("smoke", false, "tiny sizes: fattree:4, 500 prefixes, 2000 flows, 3 campaign runs")
		jsonOnly  = flag.Bool("json", false, "print only the JSON document")
		selfcheck = flag.Bool("selfcheck", false, "run two untraced sets and compare their medians against each metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < -1 || *trace > 1 || *reps < 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if len(selected) == 1 && *trace >= 0 && !*selfcheck {
		o := options{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace == 1, smoke: *smokeSize, outDir: outDir}
		rep, err := runSet(selected[0], o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		return
	}

	// Children get every flag but -workload and -trace passed through.
	pass := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", fmt.Sprint(*seconds), "-reps", strconv.Itoa(*reps)}
	if *smokeSize {
		pass = append(pass, "-smoke")
	}
	text := io.Writer(os.Stdout)
	if *jsonOnly {
		text = io.Discard
	}
	if *selfcheck {
		err = runSelfcheck(selected, pass, text)
	} else {
		traces := []int{0, 1}
		if *trace >= 0 {
			traces = []int{*trace}
		}
		err = runAll(selected, traces, pass, text)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
next:
	for _, name := range strings.Split(names, ",") {
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}

// runSet runs one workload in this process: a smoke-size repetition to page
// the binary in, then the untraced timed repetitions; with o.trace one more
// repetition under the tracer and the layer probes follow. Every repetition
// builds a fresh experiment, because users pay topology build, wiring and
// teardown on every run.
func runSet(w workload, o options, log io.Writer) (report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return report{}, err
	}
	s := &set{w: w, o: o, log: log, sz: full,
		e:   env{seed: o.seed, dir: filepath.Join(o.outDir, "campaign-"+w.name)},
		rep: report{Metrics: make(map[string]metricValue)}}
	sizeName := "full"
	if o.smoke {
		s.sz, sizeName = smoke, "smoke"
	}
	fmt.Fprintf(log, "# %s seed=%d trace=%v sizes=%s nproc=%d GOMAXPROCS=%d\n",
		w.name, o.seed, o.trace, sizeName, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if !o.smoke { // at smoke size the first repetition is its own warm-up
		if warm := w.rep(s.e, smoke, nil); warm.failedOps > 0 {
			fmt.Fprintf(log, "# %s warm-up: %s\n", w.name, strings.Join(warm.failures, "; "))
		}
	}

	// A traced run needs one untraced repetition, the reference for
	// bench.trace_overhead_s; an untraced run repeats until the workload's
	// share of -seconds is used up.
	reps := o.reps
	if o.trace && reps == 0 {
		reps = 1
	}
	budget := time.Duration(o.seconds * w.share * float64(time.Second))
	var spent, last time.Duration
	for i := 0; ; i++ {
		if reps > 0 && i == reps {
			break
		}
		// Another repetition if it ends nearer the budget than stopping here does.
		if reps == 0 && i > 0 && spent+last/2 >= budget {
			break
		}
		last = s.run(nil).cost.wall
		spent += last
	}
	var err error
	if o.trace {
		err = s.reportPerLayer()
	} else {
		err = s.reportEndToEnd()
	}
	s.rep.Correct = s.rep.Failed == 0
	return s.rep, err
}

// set is one workload's run in progress: what its repetitions cost so far
// and the report being filled in.
type set struct {
	w   workload
	o   options
	e   env
	sz  sizes
	log io.Writer

	costs   []cost     // of the untraced repetitions
	digests [][]string // of every repetition
	rep     report
}

// run does one more repetition, untraced when tr is nil, and books it.
func (s *set) run(tr *tracer) repOutput {
	out := s.w.rep(s.e, s.sz, tr)
	kind := "traced"
	if tr == nil {
		kind = "untraced"
		s.costs = append(s.costs, out.cost)
	}
	s.digests = append(s.digests, out.digests)
	s.rep.Attempted += out.ops
	s.rep.Failed += out.failedOps
	n := len(s.digests)
	fmt.Fprintf(s.log, "# %s rep %d (%s): wall=%.3fs cpu=%.3fs alloc=%.0fMB failed=%d/%d\n",
		s.w.name, n, kind, out.cost.wall.Seconds(), out.cost.cpu.Seconds(), out.cost.allocMB, out.failedOps, out.ops)
	for _, f := range out.failures {
		fmt.Fprintf(s.log, "FAIL %s rep %d: %s\n", s.w.name, n, f)
	}
	return out
}

// reportEndToEnd fills in the median of every end-to-end metric.
func (s *set) reportEndToEnd() error {
	samples := make(map[string][]float64)
	for _, c := range s.costs {
		samples["run_wall_s"] = append(samples["run_wall_s"], c.wall.Seconds())
		samples["cpu_s"] = append(samples["cpu_s"], c.cpu.Seconds())
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], c.peakRSSMB)
		samples["alloc_mb"] = append(samples["alloc_mb"], c.allocMB)
	}
	// Set-up takes milliseconds, so it is sampled on its own, many times,
	// after the repetitions that each paid it once.
	sampling := setupSampling
	if s.o.smoke {
		sampling = 0
	}
	for start := time.Now(); len(samples["setup_s"]) < setupPasses || time.Since(start) < sampling; {
		d, err := s.w.setUp(s.e, s.sz)
		if err != nil {
			return fmt.Errorf("%s: set-up pass: %w", s.w.name, err)
		}
		samples["setup_s"] = append(samples["setup_s"], d.Seconds())
	}
	for _, m := range endToEnd {
		v := samples[m.Name]
		lo, hi := minMax(v)
		s.rep.Metrics[m.Name] = metricValue{median(v), m.Unit}
		fmt.Fprintf(s.log, "%s %s %.6g %s n=%d min=%.6g max=%.6g\n", s.w.name, m.Name, median(v), m.Unit, len(v), lo, hi)
	}
	return nil
}

// reportPerLayer runs the traced repetition and the layer probes, fills in
// every per-layer metric and writes the span trace.
func (s *set) reportPerLayer() error {
	tr := newTracer(s.w.name)
	tr.rep = len(s.digests) + 1
	traced := s.run(tr)
	layers := traced.layers
	if layers == nil {
		layers = make(map[string]float64) // the traced repetition failed before it had any
	}
	var walls []float64
	for _, c := range s.costs {
		walls = append(walls, c.wall.Seconds())
	}
	layers["bench.trace_overhead_s"] = traced.cost.wall.Seconds() - median(walls)
	for n, d := range s.digests[1:] {
		for i := range d {
			if i >= len(s.digests[0]) || d[i] != s.digests[0][i] {
				layers["spec.digest_mismatches"]++
				fmt.Fprintf(s.log, "DIFF %s rep %d run %d: fingerprint digest differs from rep 1\n", s.w.name, n+2, i)
			}
		}
	}
	if err := runProbes(tr, s.o, layers); err != nil {
		return err
	}
	known := make(map[string]bool)
	for _, m := range perLayer {
		known[m.Name] = true
		v := layers[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: %s is %v", s.w.name, m.Name, v)
		}
		s.rep.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(s.log, "%s %s %.6g %s n=1\n", s.w.name, m.Name, v, m.Unit)
	}
	for name := range layers {
		if !known[name] {
			return fmt.Errorf("%s: layer metric %s is not declared in metrics.go", s.w.name, name)
		}
	}
	return writeTrace(filepath.Join(s.o.outDir, "trace-"+s.w.name+".json"), s.w.name, s.o.seed, tr.finish())
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	buf, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runChild runs one workload at one -trace value in a fresh process,
// copying what it prints to text, and returns its closing report.
func runChild(w workload, trace int, pass []string, text io.Writer) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := append([]string{"-workload", w.name, "-trace", strconv.Itoa(trace)}, pass...)
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return report{}, err
	}
	if err := cmd.Start(); err != nil {
		return report{}, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20) // the closing report of a traced run is one long line
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(text, last)
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return report{}, fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
	}
	if err := sc.Err(); err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return report{}, fmt.Errorf("%s -trace %d: closing line is not a report: %w", w.name, trace, err)
	}
	return rep, nil
}

// runAll runs the workloads one child at a time and prints everything they
// reported as one JSON document.
func runAll(selected []workload, traces []int, pass []string, text io.Writer) error {
	type perWorkload struct {
		EndToEnd *report `json:"end_to_end,omitempty"`
		PerLayer *report `json:"per_layer,omitempty"`
	}
	doc := struct {
		NProc      int                    `json:"nproc"`
		GOMAXPROCS int                    `json:"gomaxprocs"`
		Workloads  map[string]perWorkload `json:"workloads"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), make(map[string]perWorkload)}
	for _, w := range selected {
		var pw perWorkload
		for _, t := range traces {
			rep, err := runChild(w, t, pass, text)
			if err != nil {
				return err
			}
			if t == 0 {
				pw.EndToEnd = &rep
			} else {
				pw.PerLayer = &rep
			}
		}
		doc.Workloads[w.name] = pw
	}
	buf, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// runSelfcheck runs two complete untraced sets of this binary and holds
// the second set's medians against the first's, by each metric's bound.
func runSelfcheck(selected []workload, pass []string, text io.Writer) error {
	var sets [2]map[string]report
	for i := range sets {
		sets[i] = make(map[string]report)
		for _, w := range selected {
			start := time.Now()
			rep, err := runChild(w, 0, pass, text)
			if err != nil {
				return err
			}
			sets[i][w.name] = rep
			fmt.Fprintf(text, "# set %d %s took %.1fs\n", i+1, w.name, time.Since(start).Seconds())
		}
	}
	for _, w := range selected {
		for _, m := range endToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			worse := (b - a) / a // every end-to-end metric is better lower
			verdict := "PASS"
			if worse > m.Bound {
				verdict = "FAIL"
			}
			fmt.Printf("selfcheck %s %s first=%.6g second=%.6g %s diff=%+.2f%% bound=%.0f%% %s\n",
				w.name, m.Name, a, b, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
		for i, set := range sets {
			if rep := set[w.name]; rep.Failed > 0 {
				fmt.Printf("selfcheck %s set %d failed %d of %d runs\n", w.name, i+1, rep.Failed, rep.Attempted)
			}
		}
	}
	return nil
}
