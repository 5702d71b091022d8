// Package cm implements Horse's Connection Manager (CM), "the bridge
// between the emulation and simulation" (paper, Figure 2). The CM:
//
//   - wires emulated control plane processes (BGP speakers, OpenFlow
//     agents, the SDN controller) to each other over tapped channels;
//   - observes every control plane byte and notifies the hybrid engine,
//     which is what triggers DES->FTI transitions;
//   - keeps the ledger of control plane work in flight (unread channel
//     deliveries, running clock callbacks), which is what lets the engine
//     go back FTI->DES on evidence instead of waiting out the quiet
//     period;
//   - applies control plane decisions (BGP RIB changes, FLOW_MODs) to the
//     simulated data plane on the engine goroutine;
//   - answers data plane queries (port/flow statistics) for the emulated
//     side; and
//   - hands emulated apps a virtual-time clock for periodic work.
package cm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/capture"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/fib"
	"repro/internal/flowtable"
	"repro/internal/netmodel"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Stats counts what crossed the emulation boundary.
type Stats struct {
	ControlBytes    atomic.Uint64
	ControlWrites   atomic.Uint64
	RouteInstalls   atomic.Uint64
	RouteWithdraws  atomic.Uint64
	FlowModsApplied atomic.Uint64
	PacketIns       atomic.Uint64
	StatsQueries    atomic.Uint64
	// Injections counts one per cable whose liveness an outage injection
	// changed (notifyCable) plus one per CableRate.
	Injections atomic.Uint64
}

// Manager is the Connection Manager.
type Manager struct {
	Engine *sim.Engine
	Net    *netmodel.Network
	G      *topo.Graph
	Logf   func(string, ...any)

	Stats Stats

	// ledger counts the control plane work in flight; the engine reads it
	// to leave FTI (sim.Engine.SetInFlight). Its tokens are held by the
	// channels (tappedPipe) and by running clock callbacks (clock.After).
	// Deliberately not counted, because they are events in the engine's own
	// queue that MarkControl when due: every armed clock deadline — a
	// speaker's advertisement window, keepalive tick and hold deadline, a
	// dampening reuse, a controller poll — and delayed tap deliveries.
	// Capture records are neither: the tap writes them as it goes.
	ledger emu.Ledger

	stops    []func() // Stop of every speaker and agent, in start order
	speakers map[core.NodeID]*bgp.Speaker
	agents   map[core.NodeID]*openflow.Agent
	ctl      *controller.Controller
	bgpCfg   BGPConfig // retained for re-peering after link repair

	// cap, when set, records every control plane session as a pcapng
	// trace stamped with delivery virtual time (see tap).
	cap *capture.Capture

	// flushArmed coalesces reroute flushes; engine goroutine only. flush
	// is the armed flush, bound once: a closure per arming would allocate.
	flushArmed bool
	flush      func()

	// routes is where every speaker's Loc-RIB changes wait for the engine
	// goroutine (applyRoute, drainRoutes).
	routes drainQueue[[]routeEntry]
	// flowMods is where every agent's FLOW_MODs wait for it
	// (dataPlane.ApplyFlowMod, drainFlowMods).
	flowMods flowModLog
}

// New creates a Connection Manager bridging the given engine and
// simulated network.
func New(engine *sim.Engine, net *netmodel.Network, logf func(string, ...any)) *Manager {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m := &Manager{
		Engine:   engine,
		Net:      net,
		G:        net.G,
		Logf:     logf,
		speakers: make(map[core.NodeID]*bgp.Speaker),
		agents:   make(map[core.NodeID]*openflow.Agent),
	}
	m.routes.drain = m.drainRoutes
	m.flowMods.drain = m.drainFlowMods
	m.flush = func() {
		m.flushArmed = false
		m.Net.FlushReroutes(m.Engine.Now())
	}
	engine.SetInFlight(m.ledger.InFlight)
	net.OnPacketIn = m.handlePacketIn
	// The CM coalesces reroutes: control plane bursts (a fat-tree BGP
	// convergence installs tens of thousands of routes) mutate
	// forwarding state immediately, and flows re-path once per flush
	// interval rather than after every install.
	net.AutoReroute = false
	return m
}

// flushDelay is the reroute coalescing interval: one FTI step's worth of
// virtual time, i.e. the data plane reflects control plane changes at
// FTI resolution.
const flushDelay = core.Millisecond

// scheduleFlush arranges a coalesced reroute; engine goroutine only.
func (m *Manager) scheduleFlush() {
	if m.flushArmed {
		return
	}
	m.flushArmed = true
	m.Engine.After(flushDelay, m.flush)
}

// Stop terminates every emulated process: speakers and agents in reverse
// start order, then the controller. Every speaker is told it is stopping
// before the first session closes, so none of them reacts to its peers
// going away: stopping is CEASE, close, wait, and each Loc-RIB is left as
// the run left it.
func (m *Manager) Stop() {
	for _, sp := range m.speakers {
		sp.BeginStop()
	}
	for i := len(m.stops) - 1; i >= 0; i-- {
		m.stops[i]()
	}
	m.stops = nil
	if m.ctl != nil {
		m.ctl.Stop()
	}
}

// Controller returns the SDN controller (nil in BGP scenarios).
func (m *Manager) Controller() *controller.Controller { return m.ctl }

// SetCapture attaches a pcapng capture sink. Must be called before
// WireBGP/WireSDN; each session wired afterwards is recorded as a
// synthesized TCP conversation whose packets carry the *delivery*
// virtual time — for latency-delayed channels that is write time plus
// the link's propagation delay, which is when the receiver actually
// sees the bytes (docs/WAN.md "The latency model").
func (m *Manager) SetCapture(c *capture.Capture) { m.cap = c }

// Speaker returns the BGP speaker of a router (nil in SDN scenarios).
func (m *Manager) Speaker(n core.NodeID) *bgp.Speaker { return m.speakers[n] }

// ---------------------------------------------------------------------------
// Channel taps
// ---------------------------------------------------------------------------

// tap is one end of a control channel: an emu pipe end (on the manager's
// ledger, so what it delivers counts as in flight until the reader has
// dealt with it) whose writes are counted, wake the hybrid clock into FTI
// mode, cross the link's propagation delay (when there is one) and are
// recorded by the capture session (when there is one) — tap -> optional
// delay -> capture. Like the pipe's, its Write never blocks; reads and
// Close pass through.
//
// Undelayed, the bytes are readable at the peer when Write returns, and
// the writer records them itself, stamped with the engine's virtual time
// at the write (NowExternal): delivery is the write.
//
// Delayed, a write is counted as control activity immediately (the
// sender is active now), but the bytes become readable at the peer only
// after the delay in virtual time. Delivery is an engine event that
// itself marks control activity, so the hybrid clock stays in (or
// returns to) FTI while a delayed message lands and the receiver
// reacts — a convergence wave crossing a continental WAN holds the
// clock for every RTT it takes. The engine's post queue is FIFO and its
// event heap breaks timestamp ties by insertion order, so two writes on
// the same direction always deliver in write order — BGP's framing
// survives.
type tap struct {
	io.ReadWriteCloser
	m     *Manager
	delay core.Time
	sess  *capture.Session
	dir   capture.Dir
}

func (t tap) Write(p []byte) (int, error) {
	m, end, sess, dir := t.m, t.ReadWriteCloser, t.sess, t.dir
	if t.delay <= 0 {
		n, err := end.Write(p)
		if n > 0 {
			m.Stats.ControlBytes.Add(uint64(n))
			m.Stats.ControlWrites.Add(1)
			if sess != nil {
				sess.Data(dir, p[:n], m.Engine.NowExternal())
			}
			m.Engine.NotifyControl()
		}
		return n, err
	}
	cp := append([]byte(nil), p...)
	m.Stats.ControlBytes.Add(uint64(len(p)))
	m.Stats.ControlWrites.Add(1)
	m.Engine.Post(func() {
		m.Engine.After(t.delay, func() {
			m.Engine.MarkControl()
			// A closed pipe (session torn down while the message was in
			// flight) just swallows it, like a packet arriving at a dead
			// interface — in which case the capture, standing in for the
			// receiver's NIC, never sees the packet either.
			if _, err := end.Write(cp); err == nil && sess != nil {
				// The capture stamp is delivery time: write time plus the
				// link's propagation delay, read off the engine clock
				// inside the delivery event itself.
				sess.Data(dir, cp, m.Engine.Now())
			}
		})
	})
	return len(p), nil
}

// tappedPipe returns a duplex channel pair whose writes (either
// direction) notify the engine of control activity, with per-direction
// propagation delays and an optional capture session; writes on the
// first end are recorded as AtoB.
func (m *Manager) tappedPipe(delayAB, delayBA core.Time, sess *capture.Session) (io.ReadWriteCloser, io.ReadWriteCloser) {
	a, b := m.ledger.Pipe()
	return tap{a, m, delayAB, sess, capture.AtoB}, tap{b, m, delayBA, sess, capture.BtoA}
}

// ---------------------------------------------------------------------------
// Virtual clock for emulated apps
// ---------------------------------------------------------------------------

// clock implements core.Clock on top of the engine.
type clock struct{ m *Manager }

func (c clock) Now() core.Time { return c.m.Engine.NowExternal() }

func (c clock) After(d core.Time, fn func()) {
	// The callback runs on its own goroutine so emulated code never
	// executes on the engine goroutine. Firing the timer IS control
	// plane activity: the woken app is about to send messages, so the
	// clock must hold in FTI while it does (paper §2: the CM "sends
	// events that trigger a change to the FTI mode") — entered by
	// MarkControl, held by a ledger token taken before the goroutine
	// starts and returned when the callback does.
	c.m.Engine.PostData(func() {
		c.m.Engine.After(d, func() {
			c.m.Engine.MarkControl()
			c.m.ledger.Hold()
			go func() {
				defer c.m.ledger.Release()
				fn()
			}()
		})
	})
}

// Clock exposes the virtual-time clock for emulated applications.
func (m *Manager) Clock() core.Clock { return clock{m} }

// ---------------------------------------------------------------------------
// BGP scenario wiring
// ---------------------------------------------------------------------------

// BGPConfig parameterizes WireBGP. The root package re-exports it as
// horse.BGPOptions, so this is the one struct a BGP decision is written
// in from the CLI flag down to the speakers.
type BGPConfig struct {
	// ECMP enables multipath best path selection (the demo's "BGP plus
	// ECMP path selection by hashing of IP source and destination").
	ECMP bool
	// AdvertiseDelay is the MRAI-style batching window: route changes
	// accumulate for this long before the speaker packs them into
	// attribute-grouped UPDATE messages (default 2ms of virtual time, like
	// every speaker timer: the clock leaves FTI while a window is open and
	// DES jumps to its end). Longer windows trade convergence latency for
	// fewer, fuller UPDATEs — the axis the MRAI campaign sweeps.
	AdvertiseDelay time.Duration

	// LinkLatency delivers control plane messages with each cable's
	// propagation delay in virtual time: a BGP UPDATE crossing a 2000km
	// WAN span arrives 10ms of virtual time after it was sent, so
	// convergence ripples across the topology at fiber speed instead of
	// instantaneously. Cables with zero delay keep the undelayed path —
	// a zero-latency topology behaves identically with or without this
	// flag (see TestWANZeroLatencyParity).
	LinkLatency bool
	// RouteReflection enables RFC 4456 route reflection on iBGP
	// sessions (same-AS adjacencies are always iBGP; different-AS ones
	// are always eBGP): a reflector (topo.Node.RouteReflector) treats
	// its neighbors as clients — including neighboring reflectors, so a
	// connected reflector backbone forms a hierarchical mutually-client
	// mesh with CLUSTER_LIST breaking reflection cycles. Without this
	// flag, same-AS adjacencies run plain non-client iBGP, which never
	// re-advertises iBGP-learned routes and therefore only converges on
	// full-mesh or two-router single-AS topologies — the ablation that
	// shows why reflection exists.
	RouteReflection bool
	// Dampening, when non-nil, enables per-(peer,prefix) route flap
	// dampening on every speaker (zero fields take RFC 2439-flavoured
	// defaults; see bgp.Dampening). Decay and reuse run on the
	// experiment's virtual clock — a 15s HalfLife spans 15s of the
	// experiment timeline regardless of pacing or DES fast-forward — so
	// size it against the scenario's flap cadence, not the wall clock.
	Dampening *bgp.Dampening
}

// WireBGP launches one BGP speaker per Router node, peers them across
// every router-router link, originates each router's host subnets, and
// installs connected host routes into the simulated FIBs (as Quagga's
// "connected" routes would be). Same-AS adjacencies become iBGP
// (reflector-aware when cfg.RouteReflection is set); different-AS
// adjacencies are eBGP.
func (m *Manager) WireBGP(cfg BGPConfig) error {
	routers := m.G.Routers()
	if len(routers) == 0 {
		return fmt.Errorf("cm: topology has no routers")
	}
	m.bgpCfg = cfg
	for _, r := range routers {
		node := r.ID
		speaker, err := bgp.NewSpeaker(bgp.Config{
			Name:           r.Name,
			ASN:            r.ASN,
			RouterID:       r.IP,
			Multipath:      cfg.ECMP,
			AdvertiseDelay: cfg.AdvertiseDelay,
			Dampening:      cfg.Dampening,
			Clock:          m.Clock(),
			Networks:       m.originatedPrefixes(r),
			Logf:           m.Logf,
			OnRoute: func(ev bgp.RouteEvent) {
				m.applyRoute(node, ev)
			},
		})
		if err != nil {
			return fmt.Errorf("cm: speaker for %s: %w", r.Name, err)
		}
		m.speakers[r.ID] = speaker
		m.stops = append(m.stops, speaker.Stop)
		m.installConnectedRoutes(r)
	}
	// Peer across every router-router cable (one session per cable,
	// from the lower-numbered directed link).
	for _, l := range m.G.Links {
		if l.ID > l.Reverse {
			continue
		}
		if err := m.peerCable(l); err != nil {
			return err
		}
	}
	return nil
}

// peerCable opens one BGP session across a router-router cable over a
// fresh tapped transport (latency-delayed when BGPConfig.LinkLatency is
// set); used at wiring time and again when a failed link is repaired.
// Non-router cables are ignored.
func (m *Manager) peerCable(l *topo.Link) error {
	from := m.G.Node(l.From)
	to := m.G.Node(l.To)
	if from.Kind != topo.Router || to.Kind != topo.Router {
		return nil
	}
	var delayAB, delayBA core.Time
	if m.bgpCfg.LinkLatency {
		delayAB = l.Delay
		if rev := m.G.Link(l.Reverse); rev != nil {
			delayBA = rev.Delay
		}
	}
	pa := m.G.Port(l.From, l.FromPort)
	pb := m.G.Port(l.To, l.ToPort)
	var sess *capture.Session
	if m.cap != nil {
		// One capture interface per session, labelled with the speaker
		// pair; a re-peer after link repair opens a fresh session (new
		// interface, new ephemeral port). The higher-named side
		// passively listens on TCP/179, the lower actively opens from
		// an ephemeral port.
		var err error
		sess, err = m.cap.Session(
			fmt.Sprintf("bgp-%s-%s", from.Name, to.Name),
			capture.Endpoint{Name: from.Name, MAC: pa.MAC, IP: pa.IP},
			capture.Endpoint{Name: to.Name, MAC: pb.MAC, IP: pb.IP, Port: capture.PortBGP},
		)
		if err != nil {
			return err
		}
	}
	ca, cb := m.tappedPipe(delayAB, delayBA, sess)
	// A same-AS adjacency is iBGP by definition (an eBGP session would
	// prepend the shared AS and every receiver would reject the routes
	// as loops); RouteReflection additionally honors the topology's
	// reflector roles so sparse single-AS WANs converge.
	ibgp := from.ASN == to.ASN
	rr := ibgp && m.bgpCfg.RouteReflection
	if err := m.speakers[from.ID].AddPeer(bgp.PeerConfig{
		Conn: ca, LocalAddr: pa.IP, RemoteAddr: pb.IP,
		RemoteAS: to.ASN, Port: pa.ID,
		IBGP: ibgp, RRClient: rr && from.RouteReflector,
	}); err != nil {
		return err
	}
	if err := m.speakers[to.ID].AddPeer(bgp.PeerConfig{
		Conn: cb, LocalAddr: pb.IP, RemoteAddr: pa.IP,
		RemoteAS: from.ASN, Port: pb.ID,
		IBGP: ibgp, RRClient: rr && to.RouteReflector,
	}); err != nil {
		return err
	}
	return nil
}

// originatedPrefixes returns the prefixes a router announces: its
// host-facing subnet plus any synthetic origination the topology
// assigned (topo.Node.Originate — the multi-AS WAN generator's
// full-table /24s).
func (m *Manager) originatedPrefixes(r *topo.Node) []netip.Prefix {
	out := make([]netip.Prefix, 0, 1+len(r.Originate))
	if r.Prefix.IsValid() {
		out = append(out, r.Prefix)
	}
	return append(out, r.Originate...)
}

// installConnectedRoutes installs one /32 per attached host into the
// router's simulated FIB (Quagga's "connected" routes).
func (m *Manager) installConnectedRoutes(r *topo.Node) {
	node := r.ID
	for i := range r.Ports {
		p := &r.Ports[i]
		peer := m.G.Node(p.Peer)
		if peer == nil || peer.Kind != topo.Host {
			continue
		}
		route := connectedRoute(p, peer)
		m.Engine.PostData(func() {
			_ = m.Net.InstallRoute(node, route, m.Engine.Now())
			m.scheduleFlush()
		})
	}
}

// connectedRoute is the /32 a router holds for a directly attached host.
func connectedRoute(p *topo.Port, host *topo.Node) fib.Route {
	return fib.Route{
		Prefix:   netip.PrefixFrom(host.IP, 32),
		NextHops: []fib.NextHop{{Port: p.ID, Via: host.IP}},
	}
}

// drainQueue is where the changes the emulated processes emit wait for the
// engine goroutine, in arrival order, in a log of type L. The first append
// since the last drain posts one drain, which applies however many changes
// have gathered by the time it runs — a full-table burst or a whole
// proactive install is a few thousand posts, not one per change — and the
// log swaps with a spare at each drain, so after the first bursts nothing
// is allocated.
//
// The clock cannot leave FTI with changes unapplied: a non-empty log always
// has its drain in the inbox (posted is set with the first append and
// cleared only by the take that empties the log), the goroutine appending
// still holds its channel's ledger token, and the engine calls a quiet plane
// quiescent only with the ledger at zero and the inbox empty. (Once the run
// has ended the engine drops posts, so what is appended then stays in the
// log, unapplied.)
type drainQueue[L any] struct {
	mu     sync.Mutex
	log    L
	posted bool // a drain post is in the engine's inbox

	// drain is the Manager's drain method, bound once: a method value made
	// per post would allocate.
	drain func()
	spare L // the last drained log; engine goroutine only
}

// lock takes the queue for an append to the log it returns.
func (q *drainQueue[L]) lock() *L {
	q.mu.Lock()
	return &q.log
}

// unlock ends an append, posting the drain if none is in the inbox.
func (q *drainQueue[L]) unlock(e *sim.Engine) {
	post := !q.posted
	q.posted = true
	q.mu.Unlock()
	if post {
		e.Post(q.drain)
	}
}

// take hands the drain the log and puts the spare in its place; engine
// goroutine only. The drain hands the emptied log back through recycle.
func (q *drainQueue[L]) take() L {
	q.mu.Lock()
	log := q.log
	q.log = q.spare
	q.posted = false
	q.mu.Unlock()
	return log
}

// recycle keeps a drained log as the next spare; engine goroutine only.
func (q *drainQueue[L]) recycle(log L) { q.spare = log }

// routeEntry is one queued change: an IPv4 prefix on a node and its next
// hops (none withdraws). The hops are the slice the speaker handed over,
// not a copy.
type routeEntry struct {
	node core.NodeID
	addr uint32
	bits uint8
	hops []fib.NextHop
}

// applyRoute queues a BGP Loc-RIB change for the simulated FIB. Runs on
// the speaker's goroutine; the engine goroutine applies it (drainQueue).
// Route installs are control plane activity (they correspond to kernel
// route installs in the original Horse), so the drain is posted as such. A
// change to a prefix that is not IPv4 fits no entry and no FIB takes it: it
// is counted and reported here.
func (m *Manager) applyRoute(node core.NodeID, ev bgp.RouteEvent) {
	a := ev.Prefix.Addr()
	if !a.Is4() {
		if len(ev.NextHops) == 0 {
			m.Stats.RouteWithdraws.Add(1)
		} else {
			m.Stats.RouteInstalls.Add(1)
		}
		m.Logf("cm: route %v on %v not applied: not an IPv4 prefix", ev.Prefix, node)
		return
	}
	log := m.routes.lock()
	if len(*log) == cap(*log) {
		// Twice the room, not append's quarter more: a full table's burst
		// is copied twice over on the way up instead of five times.
		*log = slices.Grow(*log, max(len(*log), 64))
	}
	*log = append(*log, routeEntry{node: node, addr: core.IPv4ToUint32(a), bits: uint8(ev.Prefix.Bits()), hops: ev.NextHops})
	m.routes.unlock(m.Engine)
}

// drainRoutes applies the queued route changes to the simulated FIBs in
// arrival order and counts them in Stats, once per drain; engine goroutine
// only. A change the network refuses (a node without a FIB) is counted all
// the same, and reported here, or it would vanish without a trace.
func (m *Manager) drainRoutes() {
	log := m.routes.take()
	now := m.Engine.Now()
	var installs, withdraws uint64
	for _, e := range log {
		prefix := netip.PrefixFrom(core.IPv4FromUint32(e.addr), int(e.bits))
		var err error
		if len(e.hops) == 0 {
			withdraws++
			err = m.Net.WithdrawRoute(e.node, fib.Route{Prefix: prefix}, now)
		} else {
			installs++
			err = m.Net.InstallRoute(e.node, fib.Route{Prefix: prefix, NextHops: e.hops}, now)
		}
		if err != nil {
			m.Logf("cm: route %v on %v not applied: %v", prefix, e.node, err)
		}
	}
	clear(log) // the spare buffer pins no next-hop slice
	m.routes.recycle(log[:0])
	m.Stats.RouteInstalls.Add(installs)
	m.Stats.RouteWithdraws.Add(withdraws)
	m.scheduleFlush()
}

// ---------------------------------------------------------------------------
// SDN scenario wiring
// ---------------------------------------------------------------------------

// WireSDN launches the controller with the given app and one OpenFlow
// agent per Switch node, wiring each over a tapped channel.
func (m *Manager) WireSDN(app controller.App) error {
	switches := m.G.Switches()
	if len(switches) == 0 {
		return fmt.Errorf("cm: topology has no switches")
	}
	m.ctl = controller.New(m.G, m.Clock(), app, m.Logf)
	for _, sw := range switches {
		node := sw.ID
		var sess *capture.Session
		if m.cap != nil {
			// The OpenFlow management network is not part of the
			// simulated topology, so fabricate one: the switch actively
			// opens from a per-node management address to the controller
			// on TCP/6633, exactly as a real deployment's control
			// network would look in a capture.
			var err error
			sess, err = m.cap.Session(
				fmt.Sprintf("openflow-%s", sw.Name),
				capture.Endpoint{Name: sw.Name, MAC: mgmtMAC(uint64(node) + 1), IP: mgmtIP(uint32(node) + 1)},
				capture.Endpoint{Name: "controller", MAC: mgmtMAC(0xC0), IP: mgmtIP(0xFFFE), Port: capture.PortOpenFlow},
			)
			if err != nil {
				return err
			}
		}
		swEnd, ctlEnd := m.tappedPipe(0, 0, sess)
		var ports []openflow.PhyPort
		for _, p := range sw.Ports {
			ports = append(ports, openflow.PhyPort{
				PortNo: uint16(p.ID),
				HWAddr: p.MAC,
				Name:   fmt.Sprintf("%s-p%d", sw.Name, p.ID),
				Curr:   1 << 6, // 1GbE full duplex
			})
		}
		agent := openflow.NewAgent(controller.DPIDOf(node), ports, swEnd, &dataPlane{m: m, node: node}, m.Logf)
		m.agents[node] = agent
		agent.Start()
		m.stops = append(m.stops, agent.Stop)
		if err := m.ctl.Connect(node, controller.DPIDOf(node), ctlEnd); err != nil {
			return err
		}
	}
	return nil
}

// mgmtIP synthesizes an address on the fabricated 172.16/12 OpenFlow
// management network for capture framing.
func mgmtIP(host uint32) netip.Addr {
	return core.IPv4FromUint32(0xAC10_0000 | host&0xFFFF)
}

// mgmtMAC synthesizes a management-network MAC for capture framing.
func mgmtMAC(v uint64) core.MAC {
	return core.MACFromUint64(0x0F_0000_0000 | v)
}

// ---------------------------------------------------------------------------
// Failure & dynamics injection
// ---------------------------------------------------------------------------
//
// The injection methods apply a scripted event to the simulated data
// plane and notify the emulated control plane exactly as the real event
// would: a BGP router loses its session the moment the link drops
// (interface-down, not hold-timer expiry), an OpenFlow switch reports
// PORT_STATUS. Every injection is a control plane event, so the hybrid
// clock enters FTI and the emulated processes react in wall time.
// Engine goroutine only (injections are scheduled simulation events).

// The four outage injections — CableDown, CableUp, NodeDown, NodeUp —
// flip one flag in the topology (netmodel.SetCableState/SetNodeState)
// and notify the control plane of each cable whose liveness that
// changed. The CM keeps no outage state of its own.

// CableDown fails the cable containing the directed link ab.
func (m *Manager) CableDown(ab *topo.Link) { m.setCable(ab, true) }

// CableUp repairs the cable containing ab: capacity returns, BGP
// sessions re-peer over a fresh transport, switches report the port up.
func (m *Manager) CableUp(ab *topo.Link) { m.setCable(ab, false) }

func (m *Manager) setCable(ab *topo.Link, down bool) {
	m.Engine.MarkControl()
	if m.Net.SetCableState(ab.ID, down, m.Engine.Now()) {
		m.notifyCable(ab, down)
	}
	m.scheduleFlush()
}

// CableRate changes the capacity of the cable containing ab (both
// directions) — a pure data plane dynamics event: allocations re-solve
// over the dirty region, no session or port state changes, no message is
// sent, so unlike the other injections it does not mark control activity
// (a capacity walk runs in DES).
func (m *Manager) CableRate(ab *topo.Link, rate core.Rate) {
	m.Stats.Injections.Add(1)
	m.Net.SetCableRate(ab.ID, rate, m.Engine.Now())
}

// NodeDown fails a node: it stops forwarding and every live attached
// cable dies with it (sessions reset, PORT_STATUS from the surviving
// neighbors). The node's emulated process keeps running but is isolated,
// like a router whose every interface lost carrier.
func (m *Manager) NodeDown(id core.NodeID) { m.setNode(id, true) }

// NodeUp restores a node and with it every attached cable whose far end
// is up and which no LinkDown holds; BGP sessions re-peer and the control
// plane re-converges.
func (m *Manager) NodeUp(id core.NodeID) { m.setNode(id, false) }

func (m *Manager) setNode(id core.NodeID, down bool) {
	m.Engine.MarkControl()
	for _, l := range m.Net.SetNodeState(id, down, m.Engine.Now()) {
		m.notifyCable(l, down)
	}
	m.scheduleFlush()
}

// notifyCable counts a cable whose liveness changed as one injection and
// delivers the control plane's view of it.
func (m *Manager) notifyCable(ab *topo.Link, down bool) {
	m.Stats.Injections.Add(1)
	from := m.G.Node(ab.From)
	to := m.G.Node(ab.To)
	pa := m.G.Port(ab.From, ab.FromPort)
	pb := m.G.Port(ab.To, ab.ToPort)
	// A repaired host access link brings the router's connected /32 back
	// (interface-up re-adds what the interface-down prune removed).
	if !down {
		if from.Kind == topo.Router && to.Kind == topo.Host {
			_ = m.Net.InstallRoute(from.ID, connectedRoute(pa, to), m.Engine.Now())
		}
		if to.Kind == topo.Router && from.Kind == topo.Host {
			_ = m.Net.InstallRoute(to.ID, connectedRoute(pb, from), m.Engine.Now())
		}
	}
	// BGP: the routing daemons react to the interface change at once.
	if from.Kind == topo.Router && to.Kind == topo.Router {
		if down {
			if sp := m.speakers[from.ID]; sp != nil {
				sp.ResetPeer(pb.IP)
			}
			if sp := m.speakers[to.ID]; sp != nil {
				sp.ResetPeer(pa.IP)
			}
		} else if m.speakers[from.ID] != nil && m.speakers[to.ID] != nil {
			l := ab
			if l.ID > l.Reverse {
				l = m.G.Link(l.Reverse)
			}
			if err := m.peerCable(l); err != nil {
				m.Logf("cm: re-peering %s-%s: %v", from.Name, to.Name, err)
			}
		}
	}
	// SDN: the switch agents report carrier loss/return to the
	// controller as real PORT_STATUS messages.
	if agent := m.agents[from.ID]; agent != nil {
		agent.SetPortDown(uint16(ab.FromPort), down)
	}
	if agent := m.agents[to.ID]; agent != nil {
		agent.SetPortDown(uint16(ab.ToPort), down)
	}
}

// handlePacketIn runs on the engine goroutine when the simulated data
// plane punts a table miss; it emits a real PACKET_IN through the
// switch's agent.
func (m *Manager) handlePacketIn(pi netmodel.PacketIn) {
	agent := m.agents[pi.Node]
	if agent == nil {
		return
	}
	srcHost, ok := m.G.HostByIP(pi.Tuple.Src)
	var srcMAC, dstMAC core.MAC
	if ok {
		srcMAC = srcHost.MAC
	}
	if dstHost, ok := m.G.HostByIP(pi.Tuple.Dst); ok {
		dstMAC = dstHost.MAC
	}
	frame, err := wire.BuildFlowFrame(srcMAC, dstMAC, pi.Tuple, nil)
	if err != nil {
		m.Logf("cm: cannot build packet-in frame: %v", err)
		return
	}
	m.Stats.PacketIns.Add(1)
	// The punt is a control plane event: hold the clock in FTI while
	// the controller reacts. Sending is one write on the tapped channel,
	// which never blocks; safe from the engine goroutine. An agent not
	// yet Ready holds the PACKET_IN until its FEATURES_REPLY, and the
	// clock stays in FTI meanwhile: WireSDN's Connect wrote HELLO and
	// FEATURES_REQUEST before the engine ran, so the switch's inbound
	// direction keeps its ledger token until the agent has handled
	// FEATURES_REQUEST and written what it held.
	m.Engine.MarkControl()
	agent.SendPacketIn(uint16(pi.InPort), frame)
}

// dataPlane adapts one switch's simulated state to openflow.DataPlane.
// Methods run on the agent's reader goroutine and marshal to the engine.
type dataPlane struct {
	m    *Manager
	node core.NodeID
	rec  []byte // ApplyFlowMod's record buffer; the agent's reader's alone
}

// ApplyFlowMod implements openflow.DataPlane: it copies fm into the CM's
// FLOW_MOD log, which the engine goroutine drains in arrival order
// (drainQueue). A command the switch does not serve is refused here,
// before anything is queued.
func (d *dataPlane) ApplyFlowMod(fm openflow.FlowMod) error {
	if _, err := flowModKind(fm.Command); err != nil {
		return err
	}
	d.rec = binary.BigEndian.AppendUint32(d.rec[:0], uint32(d.node))
	d.rec = openflow.AppendFlowMod(d.rec, 0, fm)
	d.m.Stats.FlowModsApplied.Add(1)
	d.m.flowMods.lock().Write(d.rec)
	d.m.flowMods.unlock(d.m.Engine)
	return nil
}

// flowModLog is the CM's FLOW_MOD queue: one pointer-free log of records,
// each a switch's node ID (4 bytes) and the FLOW_MOD in its wire form,
// held in the pooled chunks of an emu.FIFO. A whole proactive install
// waits there for the engine goroutine without a per-message allocation.
type flowModLog struct {
	drainQueue[emu.FIFO]

	// The drain's buffers; engine goroutine only.
	rec     []byte
	fm      openflow.FlowMod
	actions []flowtable.Action
}

// nodeLen is the length of a record's node ID.
const nodeLen = 4

// next reads the log's next record into the drain's FlowMod and reports
// its switch and data plane command; log is the non-empty log the drain
// took. Only a record ApplyFlowMod wrote is in the log, so an error means
// the log is corrupt.
func (q *flowModLog) next(log *emu.FIFO) (core.NodeID, netmodel.FlowModKind, error) {
	const head = nodeLen + 8 // node ID, then the FLOW_MOD's ofp_header
	q.rec = slices.Grow(q.rec[:0], head)[:head]
	log.Read(q.rec)
	h, err := openflow.DecodeHeader(q.rec[nodeLen:])
	if err != nil {
		return 0, 0, err
	}
	q.rec = slices.Grow(q.rec, int(h.Length))[:nodeLen+int(h.Length)]
	log.Read(q.rec[head:])
	if err := openflow.DecodeFlowModInto(&q.fm, q.rec[nodeLen:]); err != nil {
		return 0, 0, err
	}
	kind, err := flowModKind(q.fm.Command)
	return core.NodeID(binary.BigEndian.Uint32(q.rec)), kind, err
}

// drainFlowMods applies the queued FLOW_MODs to the switches' tables in
// arrival order, then schedules one coalesced reroute; engine goroutine
// only. The tables copy what they keep, so the drain decodes every record
// into the same buffers.
func (m *Manager) drainFlowMods() {
	q := &m.flowMods
	log := q.take()
	now := m.Engine.Now()
	for log.Len() > 0 {
		node, kind, err := q.next(&log)
		if err != nil {
			panic(fmt.Sprintf("cm: FLOW_MOD log corrupt: %v", err))
		}
		mod := translateFlowMod(kind, q.fm, q.actions[:0])
		q.actions = mod.Entry.Actions
		if err := m.Net.ApplyFlowMod(node, mod, now); err != nil {
			m.Logf("cm: flow mod on %v: %v", node, err)
		}
	}
	q.recycle(log)
	m.scheduleFlush()
}

// FlowStats implements openflow.DataPlane.
func (d *dataPlane) FlowStats() []openflow.FlowStatsEntry {
	d.m.Stats.StatsQueries.Add(1)
	entries, _ := sim.Call(d.m.Engine, true, func() []openflow.FlowStatsEntry {
		now := d.m.Engine.Now()
		stats := d.m.Net.FlowStatsOf(d.node, now)
		out := make([]openflow.FlowStatsEntry, 0, len(stats))
		for _, s := range stats {
			out = append(out, openflow.FlowStatsEntry{
				Match:     openflow.MatchFromTable(s.Match),
				Priority:  s.Priority,
				ByteCount: s.Bytes,
				DurationS: uint32((now - s.Installed) / core.Second),
			})
		}
		return out
	})
	return entries
}

// flowModKind is the data plane command of a FLOW_MOD command: the two
// the switch serves.
func flowModKind(cmd uint16) (netmodel.FlowModKind, error) {
	switch cmd {
	case openflow.FCAdd:
		return netmodel.FlowModAdd, nil
	case openflow.FCDeleteStrict:
		return netmodel.FlowModDeleteStrict, nil
	}
	return 0, fmt.Errorf("cm: unknown flow mod command %d", cmd)
}

// translateFlowMod converts a wire FLOW_MOD whose command flowModKind has
// made kind into the data plane form, appending its actions to actions.
// The entry borrows fm's groups.
func translateFlowMod(kind netmodel.FlowModKind, fm openflow.FlowMod, actions []flowtable.Action) netmodel.FlowMod {
	for _, a := range fm.Actions {
		switch {
		case len(a.Group) > 0:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionSelectGroup, Group: a.Group})
		case a.ToCtrl:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionController})
		default:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionOutput, Port: core.PortID(a.Output)})
		}
	}
	return netmodel.FlowMod{
		Kind: kind,
		Entry: flowtable.Entry{
			Priority: fm.Priority,
			Match:    fm.Match.ToTable(),
			Actions:  actions,
		},
	}
}
