package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	horse "repro"
	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/fluid"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// desProbes are the layers des-churn leans on once the control plane has
// gone quiet: the incremental rate solver, flow start and stop through the
// FIBs, the event engine in both clock modes, and the generator and outcome
// projection that bracket a 60000-flow run.
var desProbes = []probe{
	{"fluid", probeFluid},
	{"netmodel.flow_churn", probeFlowChurn},
	{"sim", probeEngine},
	{"traffic.pareto", probePareto},
	{"spec.outcome", probeOutcome},
}

// probeFluid holds churnFlows flows live on the des-churn fat-tree and
// times the solver's mutations one at a time, each followed by its
// incremental re-solve.
func probeFluid(p *probeCtx) error {
	k := p.sz.churnK
	g, err := topo.FatTree(topo.FatTreeOpts{K: k})
	if err != nil {
		return err
	}
	paths, err := topo.NewFatTreePaths(g, k)
	if err != nil {
		return err
	}
	s := fluid.NewSet(func(l core.LinkID) core.Rate { return g.Link(l).Rate() })
	rng := rand.New(rand.NewSource(p.seed))
	flows := make([]*fluid.Flow, p.sz.churnFlows)
	s.Defer()
	for i, pr := range hostPairs(g, p.seed, len(flows)) {
		path, err := paths.Path(pr[0].ID, pr[1].ID, rng.Uint64())
		if err != nil {
			return err
		}
		flows[i] = &fluid.Flow{ID: fluid.FlowID(i + 1), Src: pr[0].ID, Dst: pr[1].ID,
			Demand: core.Gbps, Path: path, State: fluid.Active}
		s.Add(flows[i], 0)
	}
	s.Resume(0)
	if s.AggregateRx() <= 0 {
		return fmt.Errorf("no traffic delivered with %d flows live", len(flows))
	}

	i := 0
	p.set("fluid.churn_op_us", us(p.perCall(func() {
		f := flows[i%len(flows)]
		i++
		s.Remove(f.ID, 0)
		f.Path, err = paths.AppendPath(f.Path[:0], f.Src, f.Dst, rng.Uint64())
		f.State = fluid.Active
		s.Add(f, 0)
	})))
	if err != nil {
		return err
	}
	if s.Len() != len(flows) {
		return fmt.Errorf("flow count drifted to %d", s.Len())
	}

	uplink := g.Hosts()[0].Ports[0].Link
	p.set("fluid.set_capacity_us", us(p.perCall(func() {
		i++
		s.SetCapacity(uplink, core.Rate(500+i%2*500)*core.Mbps, 0)
	})))
	now := core.Time(0)
	p.set("fluid.integrate_us", us(p.perCall(func() {
		now += core.Millisecond
		s.Integrate(now)
	})))
	rx := make(map[core.NodeID]core.Rate)
	p.set("fluid.rx_by_dst_us", us(p.perCall(func() { rx = s.RxRateByDst(rx) })))
	return nil
}

// liveFlows is how many flows des-churn has in flight at a time.
const liveFlows = 240

// probeFlowChurn starts and stops flows through netmodel on a fat-tree of
// routers whose FIBs already hold the converged routes, keeping liveFlows
// in flight as des-churn does.
func probeFlowChurn(p *probeCtx) error {
	g, err := topo.FatTree(topo.FatTreeOpts{K: p.sz.churnK, Routers: true})
	if err != nil {
		return err
	}
	n := netmodel.New(g)
	n.AutoReroute = false
	shortestNextHops(g, func(node, host *topo.Node, ports []core.PortID) {
		hops := make([]fib.NextHop, len(ports))
		for i, port := range ports {
			hops[i] = fib.NextHop{Port: port, Via: g.Node(g.Port(node.ID, port).Peer).IP}
		}
		if e := n.InstallRoute(node.ID, fib.Route{Prefix: netip.PrefixFrom(host.IP, 32), NextHops: hops}, 0); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	ops := p.scaled(5000)
	pairs := hostPairs(g, p.seed, ops+liveFlows)
	flow := func(i int) *fluid.Flow {
		return &fluid.Flow{ID: fluid.FlowID(i + 1), Tuple: tupleOf(pairs[i][0], pairs[i][1], i),
			Src: pairs[i][0].ID, Dst: pairs[i][1].ID, Demand: core.Gbps}
	}
	for i := 0; i < liveFlows; i++ {
		n.StartFlow(flow(i), 0)
	}
	if n.Flows.AggregateRx() <= 0 {
		return fmt.Errorf("no flow found a route through the pre-installed FIBs")
	}
	var starting, stopping time.Duration
	for i := liveFlows; i < len(pairs); i++ {
		f := flow(i)
		t0 := time.Now()
		n.StartFlow(f, 0)
		t1 := time.Now()
		n.StopFlow(fluid.FlowID(i+1-liveFlows), 0)
		starting += t1.Sub(t0)
		stopping += time.Since(t1)
	}
	p.set("netmodel.start_flow_us", us(starting/time.Duration(ops)))
	p.set("netmodel.stop_flow_us", us(stopping/time.Duration(ops)))
	return nil
}

func probeEngine(p *probeCtx) error {
	// DES: one self-rescheduling event, the fast path between control events.
	events := p.scaled(2000000)
	e := sim.New(sim.Config{MaxIdleWall: time.Second})
	count := 0
	var tick func()
	tick = func() {
		if count++; count < events {
			e.After(core.Millisecond, tick)
		} else {
			e.Stop()
		}
	}
	e.Schedule(0, tick)
	st := e.Run(core.MaxTime)
	if count < events {
		return fmt.Errorf("engine ran %d of %d events", count, events)
	}
	p.set("sim.des_events_per_s", float64(events)/st.WallTotal.Seconds())

	// A call from an emulated process into an idle engine and back.
	e = sim.New(sim.Config{MaxIdleWall: time.Minute})
	finished := make(chan struct{})
	go func() {
		e.Run(core.MaxTime)
		close(finished)
	}()
	ok := true
	p.set("sim.post_roundtrip_us", us(p.perCall(func() {
		_, delivered := sim.Call(e, false, func() int { return 0 })
		ok = ok && delivered
	})))
	e.Stop()
	<-finished
	if !ok {
		return fmt.Errorf("the engine stopped taking calls")
	}

	// Idle FTI with pacing so high that no step sleeps: what one
	// increment costs the engine itself.
	steps := p.scaled(1000000)
	until := core.Time(steps) * core.Millisecond
	e = sim.New(sim.Config{StartInFTI: true, Pacing: 1e6, QuietTimeout: until + 1})
	st = e.Run(until)
	if st.VirtualFTI != until {
		return fmt.Errorf("engine left FTI at %v of %v", st.VirtualFTI, until)
	}
	p.set("sim.fti_step_overhead_us", us(st.WallTotal/time.Duration(steps)))
	return nil
}

func probePareto(p *probeCtx) error {
	hosts := topo.FatTreeExpected(p.sz.churnK).Hosts
	horizon := core.FromDuration(churnDur)
	p.set("traffic.pareto_gen_ms", ms(p.perCall(func() {
		sink = traffic.Pareto(p.seed, p.sz.churnFlows, core.Gbps, horizon)(hosts)
	})))
	return nil
}

// probeOutcome projects a finished des-churn-sized result into its
// serializable outcome and digests the fingerprint.
func probeOutcome(p *probeCtx) error {
	ex := desChurn(env{seed: p.seed}, p.sz)
	until := ex.run.Until()
	res := &horse.Result{
		Topology:    topo.FatTreeExpected(p.sz.churnK),
		AggregateRx: &stats.Series{Name: "aggregate-rx"},
		MinHostRx:   &stats.Series{Name: "min-host-rx"},
		Flows:       make([]horse.FlowResult, p.sz.churnFlows),
	}
	res.Sim.VirtualEnd = until
	for t := core.Time(0); t <= until; t += 100 * core.Millisecond {
		res.AggregateRx.Add(t, 40e9)
		res.MinHostRx.Add(t, 1e8)
	}
	src, dst := netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.3.1.2")
	for i := range res.Flows {
		res.Flows[i] = horse.FlowResult{
			Tuple: core.FiveTuple{Src: src, Dst: dst, Proto: core.ProtoUDP, SrcPort: uint16(1024 + i%60000), DstPort: 1024},
			Bytes: uint64(i) * 1500, State: "done",
		}
	}
	var digest string
	p.set("spec.outcome_ms", ms(p.perCall(func() { digest = spec.NewOutcome(ex.run, res).Fingerprint.Digest() })))
	if digest == "" {
		return fmt.Errorf("empty fingerprint digest")
	}
	return nil
}
