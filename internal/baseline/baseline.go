// Package baseline implements the packet-level, real-time emulator Horse
// is compared against in the paper's Figure 3 (there: Mininet).
//
// Substitution note (see DESIGN.md): Mininet is a Linux-container
// emulator and cannot be embedded here, so the baseline reproduces the
// two cost terms that dominate Mininet's execution time:
//
//  1. topology setup cost that grows with node and link count (network
//     namespaces and veth pairs in Mininet; goroutines, channels, routing
//     state and a calibrated per-element delay here); and
//  2. real-time execution: emulated traffic is actual packet tokens
//     forwarded hop by hop by per-node processes, so an experiment lasting
//     T seconds costs at least T seconds of wall clock, per TE run.
//
// Horse's advantage in Figure 3 — DES fast-forward while the control
// plane is quiet — is exactly what this baseline cannot do, which is the
// paper's point.
package baseline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Config tunes the emulator.
type Config struct {
	// TokenBytes is the payload one packet token represents. Larger
	// tokens lower the per-second event count the emulator must keep
	// up with in real time (Mininet has the same knob via MTU/offload).
	// Default 1.25 MB (100 tokens/s per 1 Gbps flow).
	TokenBytes int
	// PerNodeSetup is the emulated cost of creating one node
	// (netns+interfaces in Mininet). Default 2ms.
	PerNodeSetup time.Duration
	// PerLinkSetup is the emulated cost of one cable (veth pair).
	// Default 500µs.
	PerLinkSetup time.Duration
	// RepairDelay is the emulated control plane's reconvergence time
	// after a failure injection: tokens forwarded into a dead cable drop
	// immediately, and this long afterwards the routing tables are
	// recomputed over the surviving topology. It stands in for the
	// Mininet controller/daemon repair latency the paper's baseline
	// would pay in real time. Default 200ms.
	RepairDelay time.Duration
}

const (
	// queueTokens is the per-port queue depth; tokens beyond it drop
	// (UDP has no congestion control).
	queueTokens = 16
	// sampleInterval is the delivered-bytes sampling period during Run
	// (used to measure dip depth and repair latency).
	sampleInterval = 25 * time.Millisecond
)

func (c *Config) setDefaults() {
	if c.TokenBytes <= 0 {
		c.TokenBytes = 1_250_000
	}
	if c.PerNodeSetup <= 0 {
		c.PerNodeSetup = 2 * time.Millisecond
	}
	if c.PerLinkSetup <= 0 {
		c.PerLinkSetup = 500 * time.Microsecond
	}
	if c.RepairDelay <= 0 {
		c.RepairDelay = 200 * time.Millisecond
	}
}

// token is one emulated packet.
type token struct {
	tuple core.FiveTuple
	dst   core.NodeID
	bytes int
}

// ecmpTables holds, per forwarding node and destination (both indexed by
// NodeID; host rows stay nil), the candidate egress ports. Tables are
// immutable once published; repairs build a fresh set and swap the
// pointer, so forwarding loops read lock-free.
type ecmpTables [][][]core.PortID

// Emulator is a running emulated network.
type Emulator struct {
	cfg Config
	g   *topo.Graph

	// ecmp holds the current routing tables (see ecmpTables).
	ecmp atomic.Pointer[ecmpTables]
	// in[node] is the node process's ingress queue.
	in map[core.NodeID]chan token

	delivered atomic.Uint64 // bytes received at destination hosts
	dropped   atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	timers []*time.Timer // pending repair/injection timers

	SetupTime time.Duration
}

// New builds the emulated network, paying the per-element setup costs —
// this is the "time required to create the topology" the demo displays.
func New(g *topo.Graph, cfg Config) (*Emulator, error) {
	cfg.setDefaults()
	start := time.Now()
	e := &Emulator{
		cfg:  cfg,
		g:    g,
		in:   make(map[core.NodeID]chan token),
		stop: make(chan struct{}),
	}
	// Routing state: ECMP next hops per (forwarding node, destination
	// host) — the converged network Mininet would reach after its own
	// control plane set up. Setup pays the per-element costs; repairs
	// (rebuildTables) do not.
	for _, n := range g.Nodes {
		time.Sleep(cfg.PerNodeSetup)
		e.in[n.ID] = make(chan token, queueTokens)
	}
	e.rebuildTables()
	for range g.Links {
		time.Sleep(cfg.PerLinkSetup / 2) // half per direction
	}
	// Node processes.
	for _, n := range g.Nodes {
		n := n
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.nodeProc(n)
		}()
	}
	e.SetupTime = time.Since(start)
	return e, nil
}

// rebuildTables recomputes the ECMP routing state over the surviving
// (live-link) topology and publishes it atomically. New calls it during
// setup; SetCableState schedules it RepairDelay after an injection, the
// emulated control plane's reconvergence.
func (e *Emulator) rebuildTables() {
	g := e.g
	tables := make(ecmpTables, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind != topo.Host {
			tables[n.ID] = g.NextHopPorts(n.ID)
		}
	}
	e.ecmp.Store(&tables)
}

// SetCableState mirrors netmodel.SetCableState for the packet-level
// baseline: it fails (down=true) or restores (down=false) the cable
// containing the directed link ab. Tokens forwarded into a dead cable
// drop immediately (the throughput dip); RepairDelay later the routing
// tables are recomputed over the surviving topology (the emulated
// control plane's repair). It reports whether the state changed.
func (e *Emulator) SetCableState(ab core.LinkID, down bool) bool {
	l := e.g.Link(ab)
	if l == nil {
		return false
	}
	rev := e.g.Link(l.Reverse)
	if l.Down() == down && rev.Down() == down {
		return false
	}
	l.SetDown(down)
	rev.SetDown(down)
	e.afterFunc(e.cfg.RepairDelay, e.rebuildTables)
	return true
}

// afterFunc schedules f unless the emulator is closed, tracking the
// timer so Close can cancel it.
func (e *Emulator) afterFunc(d time.Duration, f func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.stop:
		return
	default:
	}
	e.timers = append(e.timers, time.AfterFunc(d, func() {
		select {
		case <-e.stop:
			return
		default:
		}
		f()
	}))
}

// nodeProc is one emulated node's forwarding loop.
func (e *Emulator) nodeProc(n *topo.Node) {
	inCh := e.in[n.ID]
	for {
		select {
		case <-e.stop:
			return
		case tk := <-inCh:
			if n.Kind == topo.Host {
				if tk.dst == n.ID {
					e.delivered.Add(uint64(tk.bytes))
				} else {
					e.dropped.Add(uint64(tk.bytes))
				}
				continue
			}
			var ports []core.PortID
			if next := (*e.ecmp.Load())[n.ID]; int(tk.dst) < len(next) {
				ports = next[tk.dst]
			}
			if len(ports) == 0 {
				e.dropped.Add(uint64(tk.bytes))
				continue
			}
			h := tk.tuple.Hash()
			port := ports[int(h%uint32(len(ports)))]
			p := e.g.Port(n.ID, port)
			if p == nil || !e.g.LinkAlive(p.Link) {
				// Dead cable: the token is lost until the emulated
				// control plane repairs the tables.
				e.dropped.Add(uint64(tk.bytes))
				continue
			}
			select {
			case e.in[p.Peer] <- tk:
			default:
				e.dropped.Add(uint64(tk.bytes)) // queue overflow
			}
		}
	}
}

// FlowSpec is one constant-rate UDP flow.
type FlowSpec struct {
	Tuple core.FiveTuple
	Src   core.NodeID
	Dst   core.NodeID
	Rate  core.Rate
}

// PermutationFlows is the demo's workload for the emulator: the seeded
// random permutation traffic.Permutation draws over g's hosts, each flow
// at 1 Gbps.
func PermutationFlows(g *topo.Graph, seed int64) []FlowSpec {
	hosts := g.Hosts()
	specs := traffic.Permutation(seed, 1*core.Gbps, 0, 0)(len(hosts))
	out := make([]FlowSpec, 0, len(specs))
	for _, s := range specs {
		src := hosts[s.SrcHost]
		dst := hosts[s.DstHost]
		out = append(out, FlowSpec{
			Tuple: core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: s.Proto,
				SrcPort: s.SrcPort, DstPort: s.DstPort},
			Src: src.ID, Dst: dst.ID, Rate: s.Rate,
		})
	}
	return out
}

// Injection schedules a cable state change At into a Run — the baseline
// mirror of horse's LinkDown/LinkUp scripting, so Horse-vs-baseline
// comparisons can cover failure scenarios.
type Injection struct {
	At   time.Duration // offset from Run start, in REAL time
	Link core.LinkID   // either direction of the cable
	Down bool
}

// Sample is one point of the delivered-bytes timeline Run records.
type Sample struct {
	At             time.Duration
	DeliveredBytes uint64
}

// Run emulates the given flows for duration of REAL time (emulation runs
// 1:1 with the wall clock, which is the whole point of the comparison),
// applying any scheduled injections, and returns the delivered bytes
// plus a sampled delivery timeline.
func (e *Emulator) Run(flows []FlowSpec, duration time.Duration, injs ...Injection) RunStats {
	start := time.Now()
	for _, inj := range injs {
		inj := inj
		e.afterFunc(inj.At, func() { e.SetCableState(inj.Link, inj.Down) })
	}
	var senders sync.WaitGroup
	stopSend := make(chan struct{})
	for _, f := range flows {
		f := f
		src := e.g.Node(f.Src)
		if src == nil || len(src.Ports) == 0 {
			continue
		}
		access := src.Ports[0]
		interval := time.Duration(float64(e.cfg.TokenBytes*8) / float64(f.Rate) * float64(time.Second))
		if interval <= 0 {
			interval = time.Millisecond
		}
		senders.Add(1)
		go func() {
			defer senders.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stopSend:
					return
				case <-tick.C:
					tk := token{tuple: f.Tuple, dst: f.Dst, bytes: e.cfg.TokenBytes}
					if !e.g.LinkAlive(access.Link) {
						e.dropped.Add(uint64(tk.bytes))
						continue
					}
					select {
					case e.in[access.Peer] <- tk:
					default:
						e.dropped.Add(uint64(tk.bytes))
					}
				}
			}
		}()
	}
	// Delivery timeline sampling, for dip/repair measurement.
	var (
		samples  []Sample
		sampleWG sync.WaitGroup
	)
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(sampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-stopSend:
				return
			case <-tick.C:
				samples = append(samples, Sample{At: time.Since(start), DeliveredBytes: e.delivered.Load()})
			}
		}
	}()
	timer := time.NewTimer(duration)
	<-timer.C
	close(stopSend)
	senders.Wait()
	sampleWG.Wait()
	elapsed := time.Since(start)
	return RunStats{
		Wall:           elapsed,
		DeliveredBytes: e.delivered.Load(),
		DroppedBytes:   e.dropped.Load(),
		Samples:        samples,
	}
}

// Close shuts the emulated network down.
func (e *Emulator) Close() {
	close(e.stop)
	e.mu.Lock()
	for _, t := range e.timers {
		t.Stop()
	}
	e.timers = nil
	e.mu.Unlock()
	e.wg.Wait()
}

// RunStats is the outcome of one Run.
type RunStats struct {
	Wall           time.Duration
	DeliveredBytes uint64
	DroppedBytes   uint64
	// Samples is the delivered-bytes timeline (cumulative), recorded
	// every 25ms.
	Samples []Sample
}

// RateSeries converts the sampled cumulative-bytes timeline into a
// delivered-rate series (one point per sampling interval, stamped at the
// interval's end).
func (s RunStats) RateSeries() *stats.Series {
	out := &stats.Series{Name: "baseline-rx"}
	for i := 1; i < len(s.Samples); i++ {
		a, b := s.Samples[i-1], s.Samples[i]
		if b.At <= a.At {
			continue
		}
		r := float64((b.DeliveredBytes-a.DeliveredBytes)*8) / (b.At - a.At).Seconds()
		out.Add(core.FromDuration(b.At), r)
	}
	return out
}

// RepairLatency measures, from the sampled timeline, how long after the
// failure at failAt the delivered rate recovered. It delegates to
// stats.Series.RepairAfter — the same dip/degraded/recovery extraction
// cmd/horse applies to Horse's aggregate-rx series — so the
// two systems' repair numbers use one definition. ok is false when the
// timeline is too sparse or the rate never recovered before healAt.
func (s RunStats) RepairLatency(failAt, healAt time.Duration, frac float64) (time.Duration, bool) {
	if len(s.Samples) < 3 || healAt <= failAt {
		return 0, false
	}
	rep, ok := s.RateSeries().RepairAfter(core.FromDuration(failAt), core.FromDuration(healAt), frac)
	if !ok || !rep.Recovered {
		return 0, false
	}
	return rep.Latency.Duration(), true
}

// AggregateRx converts delivered bytes over the run into a mean rate.
func (s RunStats) AggregateRx() core.Rate {
	if s.Wall <= 0 {
		return 0
	}
	return core.Rate(float64(s.DeliveredBytes*8) / s.Wall.Seconds())
}

func (s RunStats) String() string {
	return fmt.Sprintf("wall=%v delivered=%dB dropped=%dB rx=%v",
		s.Wall.Round(time.Millisecond), s.DeliveredBytes, s.DroppedBytes, s.AggregateRx())
}
