// Package netmodel glues the simulated data plane together: it owns the
// per-node forwarding state (router FIBs, OpenFlow tables), routes fluid
// flows across the topology, answers flow statistics, and punts
// table-misses to the emulated controller as PACKET_IN events.
//
// It corresponds to the "Simulated Data Plane" box of the paper's Figure 2
// (topology, per-node models, network statistics and state).
package netmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/flowtable"
	"repro/internal/fluid"
	"repro/internal/topo"
)

// maxHops bounds path walks; anything longer is a forwarding loop.
const maxHops = 64

// PacketIn describes a table-miss punted to the controller.
type PacketIn struct {
	Node   core.NodeID
	InPort core.PortID
	Tuple  core.FiveTuple
}

// Network is the simulated data plane. Not safe for concurrent use; all
// access happens on the simulation engine goroutine.
type Network struct {
	G      *topo.Graph
	Flows  *fluid.Set
	fibs   map[core.NodeID]*fib.Table
	tables map[core.NodeID]*flowtable.Table

	// OnPacketIn, when set, receives table-miss punts (the Connection
	// Manager forwards them to the emulated controller as real
	// PACKET_IN messages). If nil, misses blackhole the flow.
	OnPacketIn func(PacketIn)

	// punted deduplicates outstanding PACKET_INs per (node, tuple) so a
	// pending flow does not re-punt on every reroute: for each tuple, the
	// nodes that punted it and have not seen it routed since.
	punted map[core.FiveTuple][]core.NodeID

	// rxDrop counts flows blackholed for lack of forwarding state.
	rxDrop uint64

	// AutoReroute controls whether forwarding-state mutations reroute
	// flows immediately (default). The Connection Manager disables it
	// during control plane storms and coalesces reroutes with
	// FlushReroutes — a BGP convergence burst at fat-tree k=8 installs
	// tens of thousands of routes, and rerouting every flow after each
	// one is quadratic.
	AutoReroute bool

	rerouteNeeded bool
	reroutes      uint64

	// Reused hot-path scratch (engine-goroutine only, like everything
	// else here): route() appends the walked path into pathBuf, the
	// reroute pass snapshots flows into flowBuf, and RxRateByDst refills
	// rxByDst — none of them allocate in steady state.
	pathBuf []core.LinkID
	flowBuf []fluid.Flow
	rxByDst map[core.NodeID]core.Rate
}

// New builds the data plane for a topology: a FIB per router, a flow
// table per switch, and a fluid flow set sized by the links' rates.
func New(g *topo.Graph) *Network {
	n := &Network{
		G:           g,
		fibs:        make(map[core.NodeID]*fib.Table),
		tables:      make(map[core.NodeID]*flowtable.Table),
		punted:      make(map[core.FiveTuple][]core.NodeID),
		AutoReroute: true,
	}
	for _, node := range g.Nodes {
		switch node.Kind {
		case topo.Router:
			n.fibs[node.ID] = fib.New()
		case topo.Switch:
			n.tables[node.ID] = flowtable.New()
		}
	}
	n.Flows = fluid.NewSet(func(l core.LinkID) core.Rate { return n.effectiveRate(l) })
	n.Flows.SetDelayOf(func(l core.LinkID) core.Time {
		if link := g.Link(l); link != nil {
			return link.Delay
		}
		return 0
	})
	return n
}

// effectiveRate is the capacity a link offers the fluid model: its
// configured rate, or zero while the link (or either endpoint node) is
// down.
func (n *Network) effectiveRate(l core.LinkID) core.Rate {
	link := n.G.Link(l)
	if link == nil || !n.G.LinkAlive(l) {
		return 0
	}
	return link.Rate()
}

// FIB returns the router's forwarding table (nil for non-routers).
func (n *Network) FIB(id core.NodeID) *fib.Table { return n.fibs[id] }

// Table returns the switch's flow table (nil for non-switches).
func (n *Network) Table(id core.NodeID) *flowtable.Table { return n.tables[id] }

// StartFlow routes and activates a flow at virtual time now. If the first
// hop switch punts to the controller, the flow is added in Pending state
// and will come alive on the next successful reroute. The spec's Path and
// State are filled in before it is copied into the flow set (route walks
// into the network's scratch buffer, so the spec gets its own copy).
func (n *Network) StartFlow(f *fluid.Flow, now core.Time) {
	path, status := n.route(f.Src, f.Tuple, true)
	switch status {
	case routeOK:
		f.Path = append([]core.LinkID(nil), path...)
		f.State = fluid.Active
	default:
		f.State = fluid.Pending
		f.Path = nil
	}
	n.Flows.Add(f, now)
}

// StopFlow removes a flow, returning its final snapshot (state Done,
// bytes integrated up to now) — the last chance to read its delivered
// byte count. ok is false if the flow did not exist.
func (n *Network) StopFlow(id fluid.FlowID, now core.Time) (final fluid.Flow, ok bool) {
	if f, exists := n.Flows.Flow(id); exists {
		n.clearPunts(f.Tuple)
	}
	return n.Flows.Remove(id, now)
}

type routeStatus int

const (
	routeOK routeStatus = iota
	routePunted
	routeDropped
)

// route walks the topology from src following FIBs and flow tables.
// punt controls whether table-misses may generate PACKET_INs. The
// returned path aliases the network's scratch buffer: it is valid until
// the next route call, and callers that retain it must copy (StartFlow
// does; the reroute pass hands it straight to SetPath, which copies into
// the flow store).
func (n *Network) route(src core.NodeID, ft core.FiveTuple, punt bool) ([]core.LinkID, routeStatus) {
	path, status := n.walkRoute(n.pathBuf[:0], src, ft, punt)
	n.pathBuf = path // keep the grown backing
	if status != routeOK {
		return nil, status
	}
	return path, status
}

func (n *Network) walkRoute(path []core.LinkID, src core.NodeID, ft core.FiveTuple, punt bool) ([]core.LinkID, routeStatus) {
	cur := n.G.Node(src)
	if cur == nil {
		return path, routeDropped
	}
	inPort := core.PortNone
	for hops := 0; hops < maxHops; hops++ {
		if cur.Down() {
			// A dead node neither originates, sinks nor forwards.
			n.rxDrop++
			return path, routeDropped
		}
		if cur.Kind == topo.Host {
			if cur.IP == ft.Dst {
				return path, routeOK // delivered
			}
			if hops > 0 {
				// Arrived at the wrong host: drop.
				n.rxDrop++
				return path, routeDropped
			}
			// Source host: single homed, forward up its only link.
			if len(cur.Ports) == 0 {
				return path, routeDropped
			}
			p := cur.Ports[0]
			if !n.G.LinkAlive(p.Link) {
				n.rxDrop++
				return path, routeDropped
			}
			path = append(path, p.Link)
			inPort = p.PeerPort
			cur = n.G.Node(p.Peer)
			continue
		}
		egress, status := n.forwardAt(cur, inPort, ft, punt)
		if status != routeOK {
			return path, status
		}
		p := n.G.Port(cur.ID, egress)
		if p == nil {
			return path, routeDropped
		}
		if !n.G.LinkAlive(p.Link) {
			// Forwarding state still points into a dead link (e.g. a
			// select group whose hash lands on a failed member): the flow
			// blackholes until the control plane repairs the state.
			n.rxDrop++
			return path, routeDropped
		}
		path = append(path, p.Link)
		inPort = p.PeerPort
		cur = n.G.Node(p.Peer)
	}
	// Forwarding loop.
	n.rxDrop++
	return path, routeDropped
}

// forwardAt decides the egress port of ft at a forwarding node.
func (n *Network) forwardAt(node *topo.Node, inPort core.PortID, ft core.FiveTuple, punt bool) (core.PortID, routeStatus) {
	switch node.Kind {
	case topo.Router:
		t := n.fibs[node.ID]
		// BGP ECMP hashes source and destination IP, per the demo.
		nh, ok := t.LookupHash(ft.Dst, ft.HashSrcDst())
		if !ok {
			n.rxDrop++
			return core.PortNone, routeDropped
		}
		return nh.Port, routeOK
	case topo.Switch:
		t := n.tables[node.ID]
		e, ok := t.Lookup(inPort, ft)
		if !ok {
			if punt {
				n.punt(node.ID, inPort, ft)
				return core.PortNone, routePunted
			}
			n.rxDrop++
			return core.PortNone, routeDropped
		}
		for _, a := range e.Actions {
			switch a.Type {
			case flowtable.ActionOutput:
				return a.Port, routeOK
			case flowtable.ActionSelectGroup:
				if len(a.Group) == 0 {
					return core.PortNone, routeDropped
				}
				// 5-tuple hash select, salted per node so that
				// consecutive hops make independent choices.
				h := ft.Hash() ^ uint32(node.ID)*0x9E3779B9
				return a.Group[int(h%uint32(len(a.Group)))], routeOK
			case flowtable.ActionController:
				if punt {
					n.punt(node.ID, inPort, ft)
					return core.PortNone, routePunted
				}
				return core.PortNone, routeDropped
			}
		}
		return core.PortNone, routeDropped
	default:
		return core.PortNone, routeDropped
	}
}

func (n *Network) punt(node core.NodeID, inPort core.PortID, ft core.FiveTuple) {
	nodes := n.punted[ft]
	for _, at := range nodes {
		if at == node {
			return
		}
	}
	n.punted[ft] = append(nodes, node)
	if n.OnPacketIn != nil {
		n.OnPacketIn(PacketIn{Node: node, InPort: inPort, Tuple: ft})
	}
}

func (n *Network) clearPunts(ft core.FiveTuple) { delete(n.punted, ft) }

// ReRouteAll recomputes the path of every live flow after forwarding
// state changed (FIB install, FLOW_MOD, link state). Pending flows whose
// forwarding state is now complete become active; active flows whose
// state disappeared become pending again. The whole pass runs as one
// deferred solver batch: a convergence burst that re-paths thousands of
// flows pays for a single rate solve instead of one per SetPath.
func (n *Network) ReRouteAll(now core.Time) {
	n.reroutes++
	n.Flows.Defer()
	defer n.Flows.Resume(now)
	// Snapshot the flow list into the reused buffer (SetPath mutates the
	// store mid-iteration); PathEqual compares against the stored route
	// without copying it out.
	n.flowBuf = n.Flows.AppendFlows(n.flowBuf[:0])
	for _, f := range n.flowBuf {
		path, status := n.route(f.Src, f.Tuple, true)
		switch status {
		case routeOK:
			n.clearPunts(f.Tuple)
			if f.State != fluid.Active || !n.Flows.PathEqual(f.ID, path) {
				n.Flows.SetPath(f.ID, path, now)
			}
		default:
			if f.State == fluid.Active {
				n.Flows.SetPath(f.ID, nil, now)
			}
		}
	}
}

// maybeReroute reroutes immediately in AutoReroute mode, otherwise marks
// the network dirty for the next FlushReroutes.
func (n *Network) maybeReroute(now core.Time) {
	if n.AutoReroute {
		n.ReRouteAll(now)
		return
	}
	n.rerouteNeeded = true
}

// FlushReroutes recomputes flow paths if any forwarding state changed
// since the last flush. It reports whether a reroute ran.
func (n *Network) FlushReroutes(now core.Time) bool {
	if !n.rerouteNeeded {
		return false
	}
	n.rerouteNeeded = false
	n.ReRouteAll(now)
	return true
}

// Reroutes reports how many full reroute passes have run.
func (n *Network) Reroutes() uint64 { return n.reroutes }

// RxRateByDst reports the current receive rate per destination host,
// integrated up to now. The returned map is owned by the network and
// refilled on every call — the sampling tick reads it each interval
// without a per-tick allocation; callers must not retain it.
func (n *Network) RxRateByDst(now core.Time) map[core.NodeID]core.Rate {
	n.Flows.Integrate(now)
	n.rxByDst = n.Flows.RxRateByDst(n.rxByDst)
	return n.rxByDst
}

// ---------------------------------------------------------------------------
// Failure & dynamics injection
// ---------------------------------------------------------------------------

// Outage state is two flags and one predicate: a cable's link flags
// record LinkDown/LinkUp, a node's flag NodeDown/NodeUp, and
// Graph.LinkAlive composes them, so a LinkDown outlives a NodeUp and a
// cable between two crashed nodes waits for the second NodeUp.
// SetCableState and SetNodeState apply the data plane consequences to
// exactly the cables whose liveness changed; control plane notifications
// are the Connection Manager's job.

// SetCableState records a LinkDown (down=true) or LinkUp (down=false) on
// the cable containing the directed link ab. It reports whether the
// cable's liveness changed; only then are the consequences applied (see
// applyLiveness).
func (n *Network) SetCableState(ab core.LinkID, down bool, now core.Time) bool {
	l := n.G.Link(ab)
	if l == nil {
		return false
	}
	was := n.G.LinkAlive(ab)
	l.SetDown(down)
	n.G.Link(l.Reverse).SetDown(down)
	if n.G.LinkAlive(ab) == was {
		return false
	}
	n.applyLiveness([]*topo.Link{l}, now)
	return true
}

// SetCableRate changes the capacity of both directions of the cable
// containing ab — the "explicit reaction to capacity change" experiment
// class. Paths are unaffected; only allocations re-solve (confined to
// the dirty region around the cable).
func (n *Network) SetCableRate(ab core.LinkID, rate core.Rate, now core.Time) {
	l := n.G.Link(ab)
	if l == nil || rate < 0 {
		return
	}
	rev := n.G.Link(l.Reverse)
	l.SetRate(rate)
	rev.SetRate(rate)
	n.Flows.Defer()
	n.Flows.SetCapacity(l.ID, n.effectiveRate(l.ID), now)
	n.Flows.SetCapacity(rev.ID, n.effectiveRate(rev.ID), now)
	n.Flows.Resume(now)
}

// SetNodeState records a NodeDown (down=true) or NodeUp (down=false). It
// returns the node's cables whose liveness changed, as the directed links
// leaving it, in port order (nil if the node was already in that state):
// those alive with the node up. A cable failed by its own LinkDown, or
// whose far end is down, is not among them.
func (n *Network) SetNodeState(id core.NodeID, down bool, now core.Time) []*topo.Link {
	node := n.G.Node(id)
	if node == nil || node.Down() == down {
		return nil
	}
	// Read liveness with the node up: a failing node still is, a restored
	// one ends up so, and concurrent readers never see another state.
	node.SetDown(false)
	var changed []*topo.Link
	for _, p := range node.Ports {
		if n.G.LinkAlive(p.Link) {
			changed = append(changed, n.G.Link(p.Link))
		}
	}
	node.SetDown(down)
	n.applyLiveness(changed, now)
	return changed
}

// applyLiveness brings the data plane in line with cables whose liveness
// just changed, in one solve batch:
//
//   - both directions' capacity is set to their effective rate: zero on a
//     dead cable, the configured rate on a live one (a dirty-region solve
//     via fluid.SetCapacity);
//   - on a dead cable, the forwarding state over it is invalidated at both
//     ends: routers prune FIB next hops through the dead port
//     (kernel-style interface-down cleanup), switches drop exact/output
//     entries into it (their flows re-punt to the controller for repair);
//
// then flows are rerouted (immediately, or on the next FlushReroutes when
// the Connection Manager coalesces).
func (n *Network) applyLiveness(cables []*topo.Link, now core.Time) {
	n.Flows.Defer()
	for _, l := range cables {
		rev := n.G.Link(l.Reverse)
		n.Flows.SetCapacity(l.ID, n.effectiveRate(l.ID), now)
		n.Flows.SetCapacity(rev.ID, n.effectiveRate(rev.ID), now)
		if !n.G.LinkAlive(l.ID) {
			n.invalidatePort(l.From, l.FromPort)
			n.invalidatePort(rev.From, rev.FromPort)
		}
	}
	n.Flows.Resume(now)
	n.maybeReroute(now)
}

// invalidatePort removes forwarding state through a dead port on one
// adjacent node.
func (n *Network) invalidatePort(node core.NodeID, port core.PortID) {
	if t := n.fibs[node]; t != nil {
		t.PrunePort(port)
	}
	if t := n.tables[node]; t != nil {
		t.PrunePort(port)
	}
}

// InstallRoute installs (or replaces) a route in a router's FIB and
// reroutes. Called by the Connection Manager when the emulated BGP daemon
// updates its RIB.
func (n *Network) InstallRoute(node core.NodeID, r fib.Route, now core.Time) error {
	t := n.fibs[node]
	if t == nil {
		return fmt.Errorf("netmodel: %v is not a router", node)
	}
	if err := t.Insert(r.Prefix, r.NextHops); err != nil {
		return err
	}
	n.maybeReroute(now)
	return nil
}

// WithdrawRoute removes a route from a router's FIB and reroutes.
func (n *Network) WithdrawRoute(node core.NodeID, r fib.Route, now core.Time) error {
	t := n.fibs[node]
	if t == nil {
		return fmt.Errorf("netmodel: %v is not a router", node)
	}
	t.Remove(r.Prefix)
	n.maybeReroute(now)
	return nil
}

// FlowModKind is what a FLOW_MOD does to a switch's table: the two
// OpenFlow commands the switch serves.
type FlowModKind int

const (
	FlowModAdd FlowModKind = iota
	FlowModDeleteStrict
)

// FlowMod is the data-plane-facing form of an OpenFlow FLOW_MOD.
type FlowMod struct {
	Kind  FlowModKind
	Entry flowtable.Entry
}

// ApplyFlowMod mutates a switch's table per the mod and reroutes.
func (n *Network) ApplyFlowMod(node core.NodeID, mod FlowMod, now core.Time) error {
	t := n.tables[node]
	if t == nil {
		return fmt.Errorf("netmodel: %v is not a switch", node)
	}
	switch mod.Kind {
	case FlowModAdd:
		t.Add(mod.Entry, now)
	case FlowModDeleteStrict:
		t.DeleteStrict(mod.Entry.Match, mod.Entry.Priority)
	}
	n.maybeReroute(now)
	return nil
}

// FlowStat is an OpenFlow-style flow entry statistic.
type FlowStat struct {
	Priority  uint16
	Match     flowtable.Match
	Bytes     uint64
	Installed core.Time
}

// FlowStatsOf reports per-entry byte counts for a switch: for each entry,
// the delivered bytes of the live flows it currently matches (first-match
// semantics). Hedera's demand estimation polls this every 5 seconds.
func (n *Network) FlowStatsOf(node core.NodeID, now core.Time) []FlowStat {
	t := n.tables[node]
	if t == nil {
		return nil
	}
	n.Flows.Integrate(now)
	entries := t.Entries()
	out := make([]FlowStat, 0, len(entries))
	slot := make(map[*flowtable.Entry]int, len(entries))
	for i, e := range entries {
		out = append(out, FlowStat{Priority: e.Priority, Match: e.Match, Installed: e.InstalledAt})
		slot[e] = i
	}
	// One pass over the flows (instead of one per entry): each active
	// flow crossing the node charges its bytes to the entry that wins its
	// lookup (first-match semantics, as the old per-entry scan had).
	n.flowBuf = n.Flows.AppendFlows(n.flowBuf[:0])
	for _, f := range n.flowBuf {
		if f.State != fluid.Active {
			continue
		}
		n.pathBuf = n.Flows.AppendPath(n.pathBuf[:0], f.ID)
		inPort, crosses := n.ingressAt(node, n.pathBuf)
		if !crosses {
			continue
		}
		if winner, ok := t.Lookup(inPort, f.Tuple); ok {
			if i, tracked := slot[winner]; tracked {
				out[i].Bytes += f.Bytes
			}
		}
	}
	return out
}

// ingressAt reports the port through which a flow following path enters
// node, if the path crosses it.
func (n *Network) ingressAt(node core.NodeID, path []core.LinkID) (core.PortID, bool) {
	for _, lid := range path {
		l := n.G.Link(lid)
		if l != nil && l.To == node {
			return l.ToPort, true
		}
	}
	return core.PortNone, false
}

// Drops reports how many route walks ended in a blackhole so far.
func (n *Network) Drops() uint64 { return n.rxDrop }
