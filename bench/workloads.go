package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	horse "repro"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/topo"
)

// sizes scales every workload. full is what the benchmark measures; smoke
// pages the binary in before the timed repetitions and is what the test
// runs.
type sizes struct {
	sdnK          int           // sdn-install fat-tree arity
	wanPrefixes   int           // wan-fulltable synthetic /24s
	churnK        int           // des-churn fat-tree arity
	churnFlows    int           // des-churn heavy-tail arrivals
	campaignK     int           // campaign-sweep fat-tree arity
	campaignSeeds int           // campaign-sweep seeds; × 3 scenarios = runs
	dur           time.Duration // virtual duration of all but des-churn
	pacing        float64       // FTI pacing of the single-experiment workloads
}

var (
	full  = sizes{sdnK: 10, wanPrefixes: 100000, churnK: 8, churnFlows: 60000, campaignK: 8, campaignSeeds: 8, dur: 10 * time.Second, pacing: 1}
	smoke = sizes{sdnK: 4, wanPrefixes: 500, churnK: 4, churnFlows: 2000, campaignK: 4, campaignSeeds: 1, dur: 2 * time.Second, pacing: 50}
)

const (
	// churnDur is des-churn's virtual duration: under a second of
	// convergence, then DES for the rest.
	churnDur = 60 * time.Second
	// campaignPacing is what campaigns/mrai-dampening-tier1.json uses; it
	// makes the sweep's runs compute-bound.
	campaignPacing = 40
)

// wanASes and wanPoPs shape wan-fulltable's topology: few sessions, many
// prefixes.
const wanASes, wanPoPs = 2, 4

// env is what a repetition needs besides its sizes.
type env struct {
	seed int64
	dir  string // scratch space for campaign artifacts, emptied after each repetition
}

// workload is one named benchmark input: a single experiment, or (with no
// experiment) the campaign sweep.
type workload struct {
	name, why string
	// share is the multiple of -seconds the timed repetitions run for. The
	// shares average 1, so a set of runs takes what -seconds says it does.
	// Repetitions of sdn-install scatter three times as much as the others'
	// (125 agents, the controller, the engine and the collector race for 2
	// cores), and only more of them steady its median; the others move
	// with the machine, which repeating does not help. See README.md.
	share      float64
	experiment func(e env, sz sizes) experiment
}

var workloads = []workload{
	{"sdn-install", "proactive ECMP on fattree:10: controller, topo path computation, openflow, flowtable and batched fluid solves; bgp and fib idle", 1.6, sdnInstall},
	{"wan-fulltable", "2 ASes x 4 PoPs carrying 100000 prefixes with two eBGP link flaps: bgp, emu pipes, cm route application and fib; openflow idle; the memory workload", 0.8, wanFullTable},
	{"des-churn", "60000 heavy-tail flow arrivals on a converged fattree:8: fluid incremental solves and the DES event heap; control plane under 5 percent", 0.8, desChurn},
	{"campaign-sweep", "24 compute-bound runs of the three-TE demo suite through campaign.Runner at concurrency 2 with capture on: campaign, capture, spec, per-run setup and teardown", 0.8, nil},
}

// rep runs one complete repetition: a fresh experiment (or campaign)
// built, run, torn down and checked.
func (w workload) rep(e env, sz sizes, tr *tracer) repOutput {
	if w.experiment == nil {
		return runCampaign(e, sz, tr)
	}
	return runExperiment(tr, w.experiment(e, sz))
}

// setUp turns the workload's specification into ready-to-run experiments,
// once, and reports how long that took: validation (for the campaign,
// expansion into its runs) and spec.Run.Experiment() for every run, which
// generates the topology and the traffic. It stops short of
// Experiment.Run, whose wiring phase can only be had together with a whole
// run and its teardown.
func (w workload) setUp(e env, sz sizes) (time.Duration, error) {
	if w.experiment != nil {
		ex := w.experiment(e, sz)
		start := time.Now()
		_, _, err := ex.prepare(nil, -1)
		return time.Since(start), err
	}
	start := time.Now()
	c, err := campaign.NewCampaign("setup", sweepSpec(e, sz))
	if err != nil {
		return 0, err
	}
	for _, r := range c.Status().Runs {
		if _, err := r.Spec.Experiment(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// expect is what a finished run's outcome must show.
type expect struct {
	dur              time.Duration
	hosts            int
	forwarders       int    // switches + routers
	flows            int    // scheduled flows
	persistent       bool   // flows never stop, so every one is active at the end
	minFlowMods      uint64 // FLOW_MODs applied
	minRouteInstalls uint64
	injections       uint64
	minSolves        int
}

// fatTreeExpect is the closed form of a k-ary fat-tree carrying one
// persistent flow per host.
func fatTreeExpect(k int, dur time.Duration) expect {
	ft := topo.FatTreeExpected(k)
	return expect{dur: dur, hosts: ft.Hosts, forwarders: ft.Switches, flows: ft.Hosts, persistent: true}
}

// experiment is one single-run workload instance: the spec, the injections
// scripted onto it, and what its outcome must show.
type experiment struct {
	run    spec.Run
	script func(exp *horse.Experiment) error
	want   expect
}

func sdnInstall(e env, sz sizes) experiment {
	want := fatTreeExpect(sz.sdnK, sz.dur)
	want.minFlowMods = uint64(want.forwarders * want.hosts) // one rule per destination host on every switch
	return experiment{
		run: spec.Run{
			Topo: fmt.Sprintf("fattree:%d", sz.sdnK), Scenario: "ecmp5",
			Traffic: fmt.Sprintf("permutation:%d", e.seed), RateGbps: 1,
			Dur: spec.Duration(sz.dur), Pacing: sz.pacing,
		},
		want: want,
	}
}

func wanFullTable(e env, sz sizes) experiment {
	run := spec.Run{
		Topo: fmt.Sprintf("wan:multi:11:%d:%d:%d", wanASes, wanPoPs, sz.wanPrefixes), Scenario: "bgp-rr",
		Traffic: fmt.Sprintf("permutation:%d", e.seed), RateGbps: 0.2,
		AdvertiseDelay: spec.Duration(10 * time.Millisecond),
		Dur:            spec.Duration(sz.dur), Pacing: sz.pacing,
	}
	routers := wanASes * wanPoPs
	// Found here, before the repetition's clock starts: a user scripting
	// the failure already knows the cable names.
	cables, err := peeringCables(run.Topo)
	return experiment{
		run: run,
		// Fail and repair the first eBGP peering cable, then the second,
		// so withdrawal and re-announcement run beside the initial
		// announcement.
		script: func(exp *horse.Experiment) error {
			if err != nil {
				return err
			}
			if len(cables) < 2 {
				return fmt.Errorf("%s has %d eBGP peering cables, want 2", run.Topo, len(cables))
			}
			at := func(percent int) *horse.InjectionPoint {
				return exp.At(core.FromDuration(sz.dur * time.Duration(percent) / 100))
			}
			for i, c := range cables[:2] {
				if err := at(30+30*i).LinkDown(c[0], c[1]); err != nil {
					return err
				}
				if err := at(45+30*i).LinkUp(c[0], c[1]); err != nil {
					return err
				}
			}
			return nil
		},
		want: expect{
			dur: sz.dur, hosts: routers, forwarders: routers, flows: routers, persistent: true,
			// Each edge AS originates half the table; every router installs
			// at least the other half.
			minRouteInstalls: uint64(routers * sz.wanPrefixes / 2),
			injections:       4,
		},
	}
}

// peeringCables lists, in link order, the cables whose two router ends sit
// in different ASes. The experiment keeps its topology to itself, so the
// same spec is built a second time to read the names off it.
func peeringCables(topoSpec string) ([][2]string, error) {
	ts, err := spec.ParseTopo(topoSpec)
	if err != nil {
		return nil, err
	}
	g, err := ts.Build(true, 1)
	if err != nil {
		return nil, err
	}
	var out [][2]string
	for _, l := range g.Links {
		if l.ID > l.Reverse {
			continue // the cable's other direction
		}
		a, b := g.Node(l.From), g.Node(l.To)
		if a.Kind == topo.Router && b.Kind == topo.Router && a.ASN != b.ASN {
			out = append(out, [2]string{a.Name, b.Name})
		}
	}
	return out, nil
}

func desChurn(e env, sz sizes) experiment {
	ft := topo.FatTreeExpected(sz.churnK)
	return experiment{
		run: spec.Run{
			Topo: fmt.Sprintf("fattree:%d", sz.churnK), Scenario: "bgp-ecmp",
			Traffic: fmt.Sprintf("pareto:%d:%d", e.seed, sz.churnFlows), RateGbps: 1,
			Dur: spec.Duration(churnDur), Pacing: sz.pacing,
		},
		want: expect{dur: churnDur, hosts: ft.Hosts, forwarders: ft.Switches,
			flows: sz.churnFlows, minSolves: sz.churnFlows},
	}
}

// repOutput is what one repetition cost and produced.
type repOutput struct {
	cost      cost
	ops       int      // experiment runs attempted
	failedOps int      // runs that errored or failed an output check
	failures  []string // one line per failed check
	digests   []string // fingerprint digest per run, compared across repetitions
	layers    map[string]float64
}

// prepare validates the spec and builds the experiment, injections
// scripted, reporting how long the build took.
func (ex experiment) prepare(tr *tracer, parent int) (exp *horse.Experiment, build time.Duration, err error) {
	tr.timed("spec.parse", parent, func() { err = ex.run.Validate() })
	if err != nil {
		return nil, 0, fmt.Errorf("spec: %w", err)
	}
	build = tr.timed("horse.build", parent, func() {
		if exp, err = ex.run.Experiment(); err == nil && ex.script != nil {
			err = ex.script(exp)
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	return exp, build, nil
}

// runExperiment is one repetition of a single-run workload, through the
// same calls cmd/horse makes: validate the spec, build the experiment, run
// it (setup, engine and teardown), project the outcome.
func runExperiment(tr *tracer, ex experiment) (out repOutput) {
	out.ops = 1
	root := tr.begin("rep", -1)
	m := startMeter()
	fail := func(format string, args ...any) repOutput {
		out.cost = m.stop()
		out.failedOps = 1
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
		return out
	}
	defer func() {
		if p := recover(); p != nil {
			out = fail("panic: %v", p)
		}
		tr.end(root)
	}()

	exp, build, err := ex.prepare(tr, root)
	if err != nil {
		return fail("%v", err)
	}
	runStart := time.Now()
	res, err := exp.Run(ex.run.Until())
	runEnd := time.Now()
	if err != nil {
		return fail("run: %v", err)
	}
	var oc *spec.Outcome
	outcome := tr.timed("horse.outcome", root, func() {
		oc = spec.NewOutcome(ex.run, res)
		out.digests = []string{oc.Fingerprint.Digest()}
	})
	out.cost = m.stop()

	if tr != nil {
		// Experiment.Run reports how long its phases took, not when; lay
		// them end to end inside the call. What is left after setup and
		// the engine is teardown: final accounting and stopping every
		// emulated process.
		run := tr.add("horse.run", root, runStart, runEnd)
		setupEnd := runStart.Add(res.SetupWall)
		ftiEnd := setupEnd.Add(res.Sim.WallFTI)
		engineEnd := setupEnd.Add(res.Sim.WallTotal)
		tr.add("horse.setup", run, runStart, setupEnd)
		tr.add("engine.fti", run, setupEnd, ftiEnd)
		tr.add("engine.des", run, ftiEnd, engineEnd)
		tr.add("horse.teardown", run, engineEnd, runEnd)
		out.layers = experimentLayers(res, exp.Manager(), out.cost, ex.run.Pacing,
			build, runEnd.Sub(engineEnd), outcome)
	}
	if failed := checkOutcome(oc, ex.want); len(failed) > 0 {
		out.failedOps = 1
		out.failures = failed
	}
	return out
}

// checkOutcome returns one line per output check the run fails.
func checkOutcome(oc *spec.Outcome, want expect) []string {
	var failed []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failed = append(failed, fmt.Sprintf(format, args...))
		}
	}
	fp, w := oc.Fingerprint, oc.Wall
	check(fp.SteadyRxRate() > 0, "steady aggregate rx is %v, want > 0", fp.SteadyRxRate())
	check(w.VirtualEnd.Duration() == want.dur, "virtual end %v, want %v", w.VirtualEnd.Duration(), want.dur)
	check(fp.Hosts == want.hosts && fp.Switches+fp.Routers == want.forwarders,
		"%d hosts, %d switches+routers, want %d and %d", fp.Hosts, fp.Switches+fp.Routers, want.hosts, want.forwarders)
	check(len(fp.Flows) == want.flows, "%d flows scheduled, want %d", len(fp.Flows), want.flows)
	if want.persistent {
		inactive := 0
		for _, f := range fp.Flows {
			if f.State != "active" {
				inactive++
			}
		}
		check(inactive == 0, "%d of %d persistent flows not active at the end", inactive, len(fp.Flows))
	}
	check(w.FlowModsApplied >= want.minFlowMods, "%d FLOW_MODs applied, want >= %d", w.FlowModsApplied, want.minFlowMods)
	check(w.RouteInstalls >= want.minRouteInstalls, "%d routes installed, want >= %d", w.RouteInstalls, want.minRouteInstalls)
	check(w.Injections == want.injections, "%d injections applied, want %d", w.Injections, want.injections)
	check(w.Solves >= want.minSolves, "%d solves, want >= %d", w.Solves, want.minSolves)
	return failed
}

// sweepSpec is campaign-sweep's submission: the three TE approaches of the
// paper's demo crossed with a seed sweep.
func sweepSpec(e env, sz sizes) campaign.Spec {
	seeds := make([]int64, sz.campaignSeeds)
	for i := range seeds {
		seeds[i] = e.seed*8 + int64(i)
	}
	return campaign.Spec{
		Name:      "bench",
		Topos:     []string{fmt.Sprintf("fattree:%d", sz.campaignK)},
		Scenarios: []string{"bgp-ecmp", "hedera", "ecmp5"},
		Traffics:  []string{"permutation"},
		Seeds:     seeds,
		Base:      spec.Run{Dur: spec.Duration(sz.dur), Pacing: campaignPacing},
		Timeout:   spec.Duration(2 * time.Minute),
		Capture:   true,
	}
}

// runCampaign is one repetition of campaign-sweep: the paper's three-TE
// demo suite over a seed sweep, drained by campaign.Runner two runs at a
// time into a fresh directory, with capture on.
func runCampaign(e env, sz sizes, tr *tracer) (out repOutput) {
	cs := sweepSpec(e, sz)
	want := fatTreeExpect(sz.campaignK, sz.dur)
	out.ops = len(cs.Scenarios) * len(cs.Seeds)
	const id = "sweep"
	rn := &campaign.Runner{Dir: e.dir, Concurrency: 2}

	root := tr.begin("rep", -1)
	defer tr.end(root)
	m := startMeter()
	fail := func(format string, args ...any) repOutput {
		out.cost = m.stop()
		out.failedOps = out.ops
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
		return out
	}
	// A result.json left by an earlier repetition would pass for this one's.
	if err := os.RemoveAll(rn.CampaignDir(id)); err != nil {
		return fail("clearing campaign directory: %v", err)
	}
	defer os.RemoveAll(rn.CampaignDir(id)) // best effort: the next repetition clears it again and checks
	var (
		c   *campaign.Campaign
		err error
	)
	tr.timed("campaign.new", root, func() { c, err = campaign.NewCampaign(id, cs) })
	if err != nil {
		return fail("campaign: %v", err)
	}
	runStart := time.Now()
	err = rn.Run(context.Background(), c)
	runEnd := time.Now()
	out.cost = m.stop()
	if err != nil {
		return fail("campaign run: %v", err)
	}

	outcomes := make(map[int]*spec.Outcome)
	for i := 0; i < out.ops; i++ {
		oc, err := rn.Outcome(id, i)
		if err != nil {
			out.failedOps++
			out.failures = append(out.failures, fmt.Sprintf("run %d: no result.json: %v", i, err))
			out.digests = append(out.digests, "")
			continue
		}
		outcomes[i] = oc
		out.digests = append(out.digests, oc.Fingerprint.Digest())
		failed := checkOutcome(oc, want)
		if len(oc.CaptureFiles) == 0 {
			failed = append(failed, "no capture_files listed")
		}
		if len(failed) > 0 {
			out.failedOps++
			for _, f := range failed {
				out.failures = append(out.failures, fmt.Sprintf("run %d (%s): %s", i, oc.Spec, f))
			}
		}
	}
	if last, err := lastEvent(filepath.Join(rn.CampaignDir(id), "events.jsonl")); err != nil {
		return fail("events.jsonl: %v", err)
	} else if last != campaign.EvCampaignDone {
		return fail("events.jsonl ends in %q, want %q", last, campaign.EvCampaignDone)
	}

	if tr != nil {
		events, _ := c.Events(0, 0) // the campaign is over: the whole log replays
		run := tr.add("campaign.run", root, runStart, runEnd)
		started := make(map[int]time.Time)
		for _, ev := range events {
			switch ev.Type {
			case campaign.EvRunStarted:
				started[ev.Run.Index] = ev.Time
			case campaign.EvRunSucceeded:
				tr.add(fmt.Sprintf("campaign.run.%04d", ev.Run.Index), run, started[ev.Run.Index], ev.Time)
			}
		}
		out.layers, err = campaignLayers(rn.CampaignDir(id), outcomes, len(events), runEnd.Sub(runStart))
		if err != nil {
			return fail("campaign artifacts: %v", err)
		}
	}
	return out
}

// lastEvent returns the type of the last event in a campaign's JSONL log.
func lastEvent(path string) (campaign.EventType, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	lines := bytes.Split(bytes.TrimSpace(buf), []byte("\n"))
	var ev campaign.Event
	if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil {
		return "", err
	}
	return ev.Type, nil
}
