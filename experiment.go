package horse

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bgp"
	"repro/internal/capture"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// BGPOptions configures the BGP control plane. It is the Connection
// Manager's own configuration, passed down unchanged.
type BGPOptions = cm.BGPConfig

// Dampening re-exports the BGP route flap dampening parameters.
type Dampening = bgp.Dampening

// Experiment is a single Horse run: a topology, a control plane scenario
// and a workload.
type Experiment struct {
	cfg        Config
	captureDir string
	logf       func(format string, args ...any)
	g          *Topology
	// wire starts the control plane UseBGP or UseSDN chose; nil until
	// one is called.
	wire       func(m *cm.Manager) error
	flows      []traffic.Spec
	injections []injection // scheduled failure/dynamics events

	mgr *cm.Manager // set by Run
}

// NewExperiment creates an experiment with the given clock configuration.
func NewExperiment(cfg Config) *Experiment {
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 100 * Millisecond
	}
	return &Experiment{cfg: cfg}
}

// SetTopology assigns the experiment topology. Flows and injections are
// scoped to a topology (flows hold host indices, injections hold
// resolved links and nodes), so replacing it discards any already
// scripted — script the workload and the failure scenario after the
// final SetTopology.
func (e *Experiment) SetTopology(g *Topology) {
	if e.g != nil && e.g != g {
		e.flows = nil
		e.injections = nil
	}
	e.g = g
}

// SetLogf installs a logger that receives debug logging from every
// subsystem during Run.
func (e *Experiment) SetLogf(logf func(format string, args ...any)) {
	e.logf = logf
}

// CaptureTo records the run's control plane as one pcapng trace,
// dir/control.pcapng: one capture interface per session (BGP session or
// switch-controller connection, named after its speaker pair), every
// message framed as a synthesized TCP conversation and stamped with its
// *delivery* virtual time — on WAN links that is
// write time plus propagation delay, so UPDATE arrival times in the
// trace are the convergence timeline. Run creates the directory before
// it builds anything else, so a Run that fails to create it may be
// retried; Result.CaptureFiles lists what was written. An empty dir
// records nothing.
func (e *Experiment) CaptureTo(dir string) {
	e.captureDir = dir
}

// UseBGP selects an emulated BGP control plane (requires a topology whose
// forwarding nodes are routers).
func (e *Experiment) UseBGP(opts BGPOptions) {
	e.wire = func(m *cm.Manager) error { return m.WireBGP(opts) }
}

// UseSDN selects an emulated OpenFlow control plane running the given app
// (requires a topology whose forwarding nodes are switches).
func (e *Experiment) UseSDN(app App) {
	e.wire = func(m *cm.Manager) error { return m.WireSDN(app.build()) }
}

// AddFlow schedules one flow between two named hosts.
func (e *Experiment) AddFlow(src, dst string, rate Rate, start, duration Time) error {
	if e.g == nil {
		return fmt.Errorf("horse: set a topology before adding flows")
	}
	hosts := e.g.Hosts()
	idx := func(name string) int {
		for i, h := range hosts {
			if h.Name == name {
				return i
			}
		}
		return -1
	}
	si, di := idx(src), idx(dst)
	if si < 0 || di < 0 {
		return fmt.Errorf("horse: unknown host %q or %q", src, dst)
	}
	e.flows = append(e.flows, traffic.Spec{
		SrcHost: si, DstHost: di, Rate: rate, Start: start, Duration: duration,
		Proto:   core.ProtoUDP,
		SrcPort: uint16(10000 + len(e.flows)),
		DstPort: uint16(20000 + len(e.flows)),
	})
	return nil
}

// AddTraffic applies a workload pattern over the topology's hosts.
func (e *Experiment) AddTraffic(p traffic.Pattern) error {
	if e.g == nil {
		return fmt.Errorf("horse: set a topology before adding traffic")
	}
	e.flows = append(e.flows, p(len(e.g.Hosts()))...)
	return nil
}

// SendPermutation applies the paper's demo workload: every host sends one
// UDP flow at the given rate to a distinct random destination.
func (e *Experiment) SendPermutation(seed int64, rate Rate, start, duration Time) error {
	return e.AddTraffic(traffic.Permutation(seed, rate, start, duration))
}

// Run executes the experiment until the given virtual time and returns
// the results: build, wire, schedule, run the engine, collect. An
// Experiment runs once: link and node state live on the topology, so a
// second Run would start from wherever the first run's injections left
// it, and is refused instead. A Run that failed before anything was
// built (validation, or the capture directory) may be retried.
func (e *Experiment) Run(until Time) (*Result, error) {
	if e.mgr != nil {
		return nil, fmt.Errorf("horse: Run called twice; build a new Experiment (and a new topology) per run")
	}
	if e.g == nil {
		return nil, fmt.Errorf("horse: no topology")
	}
	if e.wire == nil {
		return nil, fmt.Errorf("horse: no control plane scenario (UseBGP or UseSDN)")
	}
	if err := e.g.Validate(); err != nil {
		return nil, fmt.Errorf("horse: invalid topology: %w", err)
	}

	setupStart := time.Now()
	pcap, err := e.build()
	if err != nil {
		return nil, err
	}
	// These cover the error paths; collect stops and closes explicitly,
	// and a second call of either is a no-op.
	defer e.mgr.Stop()
	if pcap != nil {
		defer pcap.Close()
	}
	// Wire launches the emulated processes, like Horse booting its daemons:
	// their first messages are queued control activity before the clock moves.
	if err := e.wire(e.mgr); err != nil {
		return nil, err
	}
	rs := &runState{until: until, pcap: pcap, setupWall: time.Since(setupStart)}
	e.schedule(rs)
	return e.collect(rs, e.mgr.Engine.Run(until))
}

// runState is what one Run gathers for its Result: written by schedule's
// events on the engine goroutine, read by collect after the engine
// returned.
type runState struct {
	until     Time
	pcap      *capture.Capture
	setupWall time.Duration
	// flows keeps the scheduled flows for final reporting; finals
	// records each stopped flow's last snapshot (the flow set recycles
	// the slot on StopFlow, so the stop event is the only chance to read
	// its delivered bytes).
	flows        []*fluid.Flow
	finals       map[fluid.FlowID]fluid.Flow
	aggRx, minRx stats.Series
}

// build creates the capture, the engine, the network model and the
// Connection Manager. The capture directory comes first: it is the one
// step that can fail, and failing before e.mgr is set leaves the
// Experiment retryable.
func (e *Experiment) build() (pcap *capture.Capture, err error) {
	if e.captureDir != "" {
		if pcap, err = capture.New(e.captureDir); err != nil {
			return nil, fmt.Errorf("horse: capture to %s: %w", e.captureDir, err)
		}
	}
	engine := sim.New(sim.Config{
		Pacing: e.cfg.Pacing,
		// The emulated control plane boots in wall time at experiment
		// start; begin in FTI so DES cannot outrun it (paper §2).
		StartInFTI: true,
	})
	e.mgr = cm.New(engine, netmodel.New(e.g), e.logf)
	if pcap != nil {
		e.mgr.SetCapture(pcap)
	}
	return pcap, nil
}

// schedule posts the run's events: flow starts and stops, then the
// injections, then the sampler. Events due at the same instant run in
// the order they were scheduled, so an injection at t sees the flows
// that start at t, and the sampler's tick at t sees both.
func (e *Experiment) schedule(rs *runState) {
	m := e.mgr
	hosts := e.g.Hosts()
	rs.finals = make(map[fluid.FlowID]fluid.Flow)
	rs.aggRx.Name, rs.minRx.Name = "aggregate-rx", "min-host-rx"
	m.Engine.PostData(func() {
		for i, spec := range e.flows {
			if spec.SrcHost >= len(hosts) || spec.DstHost >= len(hosts) {
				continue
			}
			src, dst := hosts[spec.SrcHost], hosts[spec.DstHost]
			f := &fluid.Flow{
				ID: fluid.FlowID(i + 1),
				Tuple: core.FiveTuple{
					Src: src.IP, Dst: dst.IP, Proto: spec.Proto,
					SrcPort: spec.SrcPort, DstPort: spec.DstPort,
				},
				Src: src.ID, Dst: dst.ID, Demand: spec.Rate,
			}
			rs.flows = append(rs.flows, f)
			m.Engine.Schedule(spec.Start, func() {
				m.Net.StartFlow(f, m.Engine.Now())
			})
			if spec.Duration > 0 {
				m.Engine.Schedule(spec.Start+spec.Duration, func() {
					if final, ok := m.Net.StopFlow(f.ID, m.Engine.Now()); ok {
						rs.finals[f.ID] = final
					}
				})
			}
		}
		// Failure & dynamics injections. Each injection the control plane
		// reacts to marks control activity inside the applying method, so
		// the clock is already in FTI when the emulated plane starts
		// reacting.
		for _, inj := range e.injections {
			apply := inj.apply
			m.Engine.Schedule(inj.at, func() { apply(m) })
		}
		// Aggregate receive rate sampling. RxRateByDst refills the
		// network's reused per-destination map each tick (no per-tick
		// allocation); its minimum is the fairness floor series.
		var sample func()
		sample = func() {
			now := m.Engine.Now()
			rx := m.Net.RxRateByDst(now) // integrates up to now
			rs.aggRx.Add(now, float64(m.Net.Flows.AggregateRx()))
			if len(rx) > 0 {
				minRx := math.Inf(1)
				for _, r := range rx {
					if float64(r) < minRx {
						minRx = float64(r)
					}
				}
				rs.minRx.Add(now, minRx)
			}
			if now < rs.until {
				m.Engine.After(e.cfg.SampleInterval, sample)
			}
		}
		m.Engine.Schedule(0, sample)
	})
}

// collect turns the finished run into its Result: it integrates, snapshots
// the flows and reads the counters, and only then tears the emulated plane
// down, timed, so the sessions' closing messages are not booked to the run.
func (e *Experiment) collect(rs *runState, simStats sim.Stats) (*Result, error) {
	m := e.mgr
	flows := m.Net.Flows
	flows.Integrate(simStats.VirtualEnd)
	res := &Result{
		Topology:        e.g.Size(),
		Sim:             simStats,
		SetupWall:       rs.setupWall,
		AggregateRx:     &rs.aggRx,
		MinHostRx:       &rs.minRx,
		PerHostRxBytes:  make(map[string]uint64),
		MeanPathLatency: flows.MeanPathLatency(),
		Solver:          flows.Totals(),
		Injections:      m.Stats.Injections.Load(),
		ControlBytes:    m.Stats.ControlBytes.Load(),
		ControlWrites:   m.Stats.ControlWrites.Load(),
		RouteInstalls:   m.Stats.RouteInstalls.Load(),
		RouteWithdraws:  m.Stats.RouteWithdraws.Load(),
		FlowModsApplied: m.Stats.FlowModsApplied.Load(),
		PacketIns:       m.Stats.PacketIns.Load(),
		StatsQueries:    m.Stats.StatsQueries.Load(),
		Drops:           m.Net.Drops(),
	}
	for _, f := range flows.Flows() {
		if dst := e.g.Node(f.Dst); dst != nil {
			res.PerHostRxBytes[dst.Name] += f.Bytes
		}
	}
	for _, f := range rs.flows {
		snap, live := flows.Flow(f.ID)
		if !live {
			// Stopped mid-run (final snapshot recorded at the stop
			// event) or never started (zero value: pending, no bytes).
			snap = rs.finals[f.ID]
		}
		fr := FlowResult{
			Tuple: f.Tuple,
			Bytes: snap.Bytes,
			Rate:  snap.Rate,
			State: snap.State.String(),
		}
		if rs.until > 0 {
			fr.AvgRate = Rate(float64(snap.Bytes*8) / rs.until.Seconds())
		}
		if lat, ok := flows.PathLatency(f.ID); ok {
			fr.PathLatency = lat
		}
		res.Flows = append(res.Flows, fr)
	}
	teardownStart := time.Now()
	m.Stop()
	res.TeardownWall = time.Since(teardownStart)
	if rs.pcap != nil {
		res.CaptureFiles = rs.pcap.Files()
		if err := rs.pcap.Close(); err != nil {
			return res, fmt.Errorf("horse: closing capture: %w", err)
		}
	}
	return res, nil
}

// Manager exposes the Connection Manager; nil before Run.
func (e *Experiment) Manager() *cm.Manager { return e.mgr }

// Result is the outcome of one run.
type Result struct {
	Topology  topo.Stats
	Sim       sim.Stats
	SetupWall time.Duration
	// TeardownWall is the wall time spent stopping the emulated control
	// plane after the engine finished — paid by every run, inside Run,
	// outside Sim.WallTotal.
	TeardownWall time.Duration

	// AggregateRx is the demo's headline series: total rate arriving at
	// all hosts over virtual time.
	AggregateRx *stats.Series

	// MinHostRx is the fairness floor: per sampling tick, the lowest
	// receive rate among destinations currently receiving anything.
	// Destinations whose flows are all blackholed or stopped do not
	// contribute (the series is empty while nothing flows).
	MinHostRx *stats.Series

	// PerHostRxBytes maps destination host name to bytes received by
	// flows still live at the end of the run.
	PerHostRxBytes map[string]uint64

	Flows []FlowResult

	// Solver aggregates per-solve statistics (solves, dirty-region sizes,
	// independent components, speculation misses), accumulated once per
	// solve regardless of Defer/Resume batching. Reroute storms are
	// batched, so Solver.Solves tracks control plane event granularity
	// rather than per-flow mutations.
	Solver fluid.Totals

	// MeanPathLatency is the rate-weighted mean one-way propagation
	// latency of the active flows' final paths — nonzero only on
	// topologies with link delay (WANs). The latency an average
	// delivered bit experienced at the end of the run.
	MeanPathLatency Time

	ControlBytes    uint64
	ControlWrites   uint64
	RouteInstalls   uint64
	RouteWithdraws  uint64
	FlowModsApplied uint64
	PacketIns       uint64
	StatsQueries    uint64
	Drops           uint64

	// Injections counts one per cable whose liveness an outage injection
	// (LinkDown, LinkUp, NodeDown, NodeUp, flaps) changed, plus one per
	// SetLinkRate: a NodeDown on a node with three live cables counts 3,
	// a LinkDown on a cable already dead counts 0.
	Injections uint64

	// CaptureFiles lists the pcapng trace the run wrote, control.pcapng
	// in the capture directory (empty unless CaptureTo was called).
	CaptureFiles []string
}

// FlowResult summarizes one flow.
type FlowResult struct {
	Tuple core.FiveTuple
	Bytes uint64
	// Rate is the flow's final allocated rate — the converged max–min
	// share, zero for stopped or blackholed flows. Unlike Bytes (which
	// integrates through the wall-jittery convergence window) the final
	// rate is a deterministic function of the converged topology and
	// paths; internal/spec fingerprints it bit-for-bit.
	Rate    Rate
	AvgRate Rate
	State   string
	// PathLatency is the one-way propagation latency of the flow's
	// final path (zero for blackholed flows and delay-free topologies).
	PathLatency Time
}

// ConvergedAt reports the virtual time at which the aggregate receive
// rate first reached frac (e.g. 0.95) of its steady value — the
// experiment's convergence time. On WANs with LinkLatency this grows
// with propagation delay, which is the latency-aware convergence metric
// docs/WAN.md describes. ok is false when the run never converged (or
// delivered nothing).
func (r *Result) ConvergedAt(frac float64) (Time, bool) {
	steady := r.SteadyAggregateRx()
	if steady <= 0 {
		return 0, false
	}
	sample, ok := r.AggregateRx.FirstAtLeast(0, frac*float64(steady))
	if !ok {
		return 0, false
	}
	return sample.At, true
}

// SteadyAggregateRx reports the mean aggregate receive rate over the
// second half of the run — a convergence-insensitive summary.
func (r *Result) SteadyAggregateRx() Rate {
	if r.AggregateRx.Len() == 0 {
		return 0
	}
	half := r.Sim.VirtualEnd / 2
	return Rate(r.AggregateRx.MeanAfter(half))
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("hosts=%d switches=%d routers=%d wall=%v (setup %v) %s steady-rx=%v",
		r.Topology.Hosts, r.Topology.Switches, r.Topology.Routers,
		r.Sim.WallTotal.Round(time.Millisecond), r.SetupWall.Round(time.Millisecond),
		r.Sim.String(), r.SteadyAggregateRx())
}
