package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/hedera"
	"repro/internal/openflow"
	"repro/internal/spec"
	"repro/internal/topo"
)

// campaignProbes are the layers campaign-sweep adds around its runs: the
// runner's pool, event bus and persistence with the experiment stubbed out,
// the analysis over the outcomes, the capture writer and reader, the spec
// grammar, and Hedera's scheduler.
var campaignProbes = []probe{
	{"campaign", probeCampaign},
	{"capture", probeCapture},
	{"spec.parse", probeSpecParse},
	{"hedera", probeHedera},
}

func probeCampaign(p *probeCtx) error {
	cs := sweepSpec(env{seed: p.seed}, p.sz)
	runs, err := cs.Expand()
	if err != nil {
		return err
	}
	// One canned outcome of the sweep's size stands in for every run.
	flows := make([]spec.FlowPrint, topo.FatTreeExpected(p.sz.campaignK).Hosts)
	for i := range flows {
		flows[i] = spec.FlowPrint{Tuple: fmt.Sprintf("10.0.0.%d:1->10.1.0.%d:2/udp", i, i), State: "active", Rate: "1Gbps"}
	}
	canned := func(r spec.Run) (*spec.Outcome, error) {
		return &spec.Outcome{
			Spec:        r,
			Fingerprint: spec.Fingerprint{Hosts: len(flows), Switches: 80, SteadyRx: "100Gbps", Flows: flows},
			Wall:        spec.WallStats{Setup: spec.Duration(10 * time.Millisecond), Exec: spec.Duration(time.Second), Solves: 40},
			Axes:        r.Axes(),
		}, nil
	}
	rn := &campaign.Runner{Dir: p.dir, Concurrency: 2, Exec: canned}
	perCampaign := p.perCall(func() {
		var c *campaign.Campaign
		if c, err = campaign.NewCampaign("stub", cs); err == nil {
			err = rn.Run(context.Background(), c)
		}
	})
	if err != nil {
		return err
	}
	if err := os.RemoveAll(rn.CampaignDir("stub")); err != nil {
		return err
	}
	p.set("campaign.overhead_ms_per_run", ms(perCampaign/time.Duration(len(runs))))

	outcomes := make(map[int]*spec.Outcome, len(runs))
	for i, r := range runs {
		if outcomes[i], err = canned(r); err != nil {
			return err
		}
	}
	p.set("campaign.analyze_ms", ms(p.perCall(func() { sink = campaign.Analyze("stub", campaign.Done, outcomes) })))
	return nil
}

// probeCapture writes 1 KB OpenFlow messages through one capture session,
// then reads the file back and re-parses every message.
func probeCapture(p *probeCtx) error {
	dir := filepath.Join(p.dir, "capture")
	defer os.RemoveAll(dir) // scratch; a leftover is overwritten by the next run
	c, err := capture.New(dir)
	if err != nil {
		return err
	}
	sess, err := c.Session("probe",
		capture.Endpoint{Name: "switch", MAC: core.MACFromUint64(1), IP: core.IPv4FromUint32(0xAC100001)},
		capture.Endpoint{Name: "controller", MAC: core.MACFromUint64(2), IP: core.IPv4FromUint32(0xAC10FFFE), Port: capture.PortOpenFlow})
	if err != nil {
		return err
	}
	msg := openflow.EncodeEcho(1, false, make([]byte, 1016))
	n := p.scaled(50000)
	start := time.Now()
	for i := 0; i < n; i++ {
		sess.Data(capture.AtoB, msg, core.Time(i)*core.Microsecond)
	}
	files := c.Files() // Close forgets them
	if err := c.Close(); err != nil {
		return err
	}
	mb := float64(n*len(msg)) / 1e6
	p.set("capture.write_mb_per_s", mb/time.Since(start).Seconds())

	start = time.Now()
	tr, err := capture.ReadFile(files[0])
	if err != nil {
		return err
	}
	msgs, err := capture.Decode(tr)
	if err != nil {
		return err
	}
	p.set("capture.parse_mb_per_s", mb/time.Since(start).Seconds())
	if len(msgs) != n {
		return fmt.Errorf("read back %d messages, wrote %d", len(msgs), n)
	}
	return nil
}

func probeSpecParse(p *probeCtx) error {
	run := wanFullTable(env{seed: p.seed}, p.sz).run
	var err error
	p.set("spec.parse_us", us(p.perCall(func() {
		if _, e := spec.ParseTopo(run.Topo); e != nil {
			err = e
		}
		if _, e := spec.ParseScenario(run.Scenario); e != nil {
			err = e
		}
		if _, e := spec.ParseTraffic(run.Traffic); e != nil {
			err = e
		}
		if e := run.Validate(); e != nil {
			err = e
		}
	})))
	return err
}

// probeHedera runs the scheduler's two steps over one flow per host of the
// campaign's fat-tree: demand estimation, then Global First Fit over each
// flow's equal-cost paths.
func probeHedera(p *probeCtx) error {
	g, err := topo.FatTree(topo.FatTreeOpts{K: p.sz.campaignK})
	if err != nil {
		return err
	}
	hosts := g.Hosts()
	index := make(map[core.NodeID]int, len(hosts))
	for i, h := range hosts {
		index[h.ID] = i
	}
	pairs := hostPairs(g, p.seed, len(hosts))
	flows := make([]*hedera.Flow, len(pairs))
	paths := make([][][]core.LinkID, len(pairs))
	for i, pr := range pairs {
		flows[i] = &hedera.Flow{ID: i, Src: index[pr[0].ID], Dst: index[pr[1].ID]}
		paths[i] = g.AllShortestPaths(pr[0].ID, pr[1].ID)
	}
	p.set("hedera.estimate_ms", ms(p.perCall(func() { sink = hedera.EstimateDemands(flows) })))
	p.set("hedera.gff_ms", ms(p.perCall(func() {
		sink = hedera.GlobalFirstFit(flows,
			func(f *hedera.Flow) core.Rate { return core.Rate(f.Demand) * core.Gbps },
			func(f *hedera.Flow) [][]core.LinkID { return paths[f.ID] },
			func(l core.LinkID) core.Rate { return g.Link(l).Rate() },
			make(map[core.LinkID]core.Rate))
	})))
	return nil
}
