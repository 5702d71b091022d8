// Package horse is a Go reproduction of Horse ("Faster Control Plane
// Experimentation with Horse", SIGCOMM 2019 demo): a hybrid network
// experimentation tool with an emulated control plane (real BGP speakers
// and real OpenFlow controllers exchanging real wire-format messages in
// wall time) and a simulated data plane (an event-driven fluid traffic
// model).
//
// The hybrid clock runs the experiment in Fixed Time Increment (FTI) mode
// — real-time paced — while the control plane is active, and falls back to
// Discrete Event Simulation (DES) fast-forward once it is quiescent. The
// paper infers that from a quiet period; here the emulated plane is
// in-process, so the work in flight (unread control messages, readers
// still deciding, running timer callbacks) is counted and the clock leaves
// FTI when the count reads zero, with the quiet period kept as an upper
// bound; the timers that code arms (BGP's advertisement window, keepalive
// and hold time included) are deadlines on the virtual clock, which DES
// jumps to. Experiments therefore pay
// wall-clock time only for control plane activity, which is where Horse's
// speedup over full emulation (e.g. Mininet) comes from.
//
// A minimal experiment:
//
//	topo, _ := horse.FatTree(4, horse.SDN())
//	exp := horse.NewExperiment(horse.Config{})
//	exp.SetTopology(topo)
//	exp.UseSDN(horse.AppECMP5())
//	exp.SendPermutation(42, 1*horse.Gbps, 0, 0)
//	res, _ := exp.Run(10 * horse.Second)
//	fmt.Println(res.AggregateRx.Mean())
package horse

import (
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/topo"
)

// Time is virtual time in nanoseconds since experiment start.
type Time = core.Time

// Common virtual durations.
const (
	Microsecond = core.Microsecond
	Millisecond = core.Millisecond
	Second      = core.Second
)

// Rate is a traffic rate in bits per second.
type Rate = core.Rate

// Common rates.
const (
	Kbps = core.Kbps
	Mbps = core.Mbps
	Gbps = core.Gbps
)

// Topology is an experiment topology graph.
type Topology = topo.Graph

// Config is what a run chooses about its clock and its measurement: two
// fields. Where a run's traces and debug log go is not clock
// configuration: see Experiment.CaptureTo and Experiment.SetLogf. The
// rest of the hybrid clock is not a setting. The FTI increment (1ms) and
// the wall-time bound on waiting for control plane activity with an empty
// event queue (2s) are the engine's defaults; how long the clock stays in
// FTI is decided by evidence — no control plane work left in flight —
// and the bound a leaked in-flight count degrades to is the engine's own
// as well (500ms, sim.Config.QuietTimeout); Result.Sim counts the exits
// of each kind.
type Config struct {
	// Pacing is the virtual:wall ratio in FTI mode. 1.0 (default) is
	// paper-faithful real time; larger values accelerate experiments
	// at the cost of compressing control plane timing. Results taken
	// with Pacing != 1 must be reported as such.
	Pacing float64
	// SampleInterval is the aggregate-rate sampling period
	// (default 100ms).
	SampleInterval Time
}

// TopoOption adjusts topology generation.
type TopoOption func(*topoOpts)

type topoOpts struct {
	routers    bool
	delayScale float64
	fullTable  int
}

// wan is what the three WAN generators take from the options.
func (o topoOpts) wan() topo.WANOpts {
	return topo.WANOpts{DelayScale: o.delayScale, ZeroLatency: o.delayScale == 0}
}

// DelayScale multiplies the geographic propagation delays of WAN
// topologies (WAN, WANMesh); 0 zeroes them — the zero-latency ablation
// used by the parity tests. Non-WAN generators ignore it.
func DelayScale(f float64) TopoOption { return func(o *topoOpts) { o.delayScale = f } }

// FullTable originates n synthetic /24 prefixes (from 20.0.0.0) at the
// edge ASes of a WANMultiAS topology, modelling stub networks injecting
// an Internet-scale table into the transit core. Other generators
// ignore it.
func FullTable(n int) TopoOption { return func(o *topoOpts) { o.fullTable = n } }

// BGP makes the generated forwarding nodes BGP routers.
func BGP() TopoOption { return func(o *topoOpts) { o.routers = true } }

// SDN makes the generated forwarding nodes OpenFlow switches (default).
func SDN() TopoOption { return func(o *topoOpts) { o.routers = false } }

// FatTree builds the k-ary fat-tree of the paper's demonstration
// (k pods, k^3/4 hosts).
func FatTree(k int, opts ...TopoOption) (*Topology, error) {
	o := applyTopoOpts(opts)
	return topo.FatTree(topo.FatTreeOpts{K: k, Routers: o.routers})
}

// Linear builds a chain of n forwarding nodes with one host each.
func Linear(n int, opts ...TopoOption) (*Topology, error) {
	o := applyTopoOpts(opts)
	kind := topo.Switch
	if o.routers {
		kind = topo.Router
	}
	return topo.Linear(n, kind, topo.LANRate, topo.LANDelay)
}

// Star builds a single forwarding node with n hosts.
func Star(n int, opts ...TopoOption) (*Topology, error) {
	o := applyTopoOpts(opts)
	kind := topo.Switch
	if o.routers {
		kind = topo.Router
	}
	return topo.Star(n, kind, topo.LANRate, topo.LANDelay)
}

// TwoRouters builds the paper's Figure 1 scenario: two BGP routers with
// one host each.
func TwoRouters() (*Topology, error) {
	return topo.TwoRouters(topo.LANRate, topo.LANDelay)
}

// WANRing builds a ring of n BGP routers with chords every chord hops.
func WANRing(n, chord int) (*Topology, error) {
	return topo.WANRing(n, chord, topo.LANRate, topo.LANDelay)
}

// WAN builds one of the embedded measured WAN backbones ("abilene",
// "tier1"; see topo.WANNames): one single-AS BGP router plus host per
// PoP, link latency from great-circle city distance, and a route
// reflector hierarchy chosen as a connected dominating set. Run it with
// BGPOptions{RouteReflection: true, LinkLatency: true}. Delay comes
// from geography, scaled by DelayScale.
func WAN(name string, opts ...TopoOption) (*Topology, error) {
	return topo.WANNamed(name, applyTopoOpts(opts).wan())
}

// WANMesh generates a seeded Rocketfuel-style WAN of pops PoPs:
// degree-weighted, distance-penalized preferential attachment with
// shortcut chords, latency from geographic distance. The same seed
// reproduces the identical topology. Delay comes from geography, scaled
// by DelayScale.
func WANMesh(pops int, seed int64, opts ...TopoOption) (*Topology, error) {
	w := applyTopoOpts(opts).wan()
	w.PoPs, w.Seed = pops, seed
	return topo.WANGraph(w)
}

// WANMultiAS composes ases WANMesh-style backbones (pops PoPs each)
// into a chain of eBGP-peered autonomous systems — ASNs 65000, 65001, …
// joined by redundant peering links between their closest border PoPs.
// With FullTable(n), the two edge ASes originate n synthetic /24s
// between them, so the transit core carries full-table-sized RIBs. Run
// it with BGPOptions{RouteReflection: true, LinkLatency: true}: same-AS
// adjacencies are iBGP with per-AS reflector hierarchies, cross-AS ones
// are eBGP. Delay comes from geography, scaled by DelayScale.
func WANMultiAS(ases, pops int, seed int64, opts ...TopoOption) (*Topology, error) {
	o := applyTopoOpts(opts)
	w := o.wan()
	w.PoPs, w.Seed = pops, seed
	return topo.WANMultiAS(topo.MultiASOpts{WANOpts: w, ASes: ases, FullTablePrefixes: o.fullTable})
}

func applyTopoOpts(opts []TopoOption) topoOpts {
	o := topoOpts{delayScale: 1}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// App selects the SDN controller application.
type App struct {
	build func() controller.App
	name  string
}

// AppECMP5 is the proactive 5-tuple-hash ECMP application (the demo's TE
// approach iii).
func AppECMP5() App {
	return App{name: "ecmp5", build: func() controller.App { return &controller.ECMPApp{} }}
}

// AppHedera is the Hedera scheduler (TE approach ii): reactive path setup
// plus demand estimation and Global First Fit every poll interval
// (default and paper value: 5s).
func AppHedera(poll Time) App {
	return App{name: "hedera", build: func() controller.App { return &controller.HederaApp{PollInterval: poll} }}
}

// AppReactive pins each flow to a shortest path chosen by 5-tuple hash,
// with no periodic scheduling.
func AppReactive() App {
	return App{name: "reactive", build: func() controller.App { return &controller.ReactiveApp{} }}
}

// Name reports the application's name.
func (a App) Name() string { return a.name }
