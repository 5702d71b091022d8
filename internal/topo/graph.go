// Package topo models experiment topologies: nodes (hosts, OpenFlow
// switches, BGP routers), ports, and directed links, plus generators for
// the topologies used in the paper's demonstration (fat-trees), in
// examples (linear, star, WAN rings), and for WAN scenarios (seeded
// Rocketfuel-style meshes and embedded measured backbones with
// geographic link latency and route reflector roles — see wan.go and
// docs/WAN.md).
//
// The graph is plane-agnostic: the simulated data plane walks it to route
// fluid flows, and the emulation harness walks it to wire up control plane
// sessions (one BGP session per router-router link, one OpenFlow session
// per switch).
package topo

import (
	"fmt"
	"math"
	"math/bits"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Kind classifies a node by which plane drives its forwarding state.
type Kind int

const (
	// Host originates and sinks traffic; it does not forward.
	Host Kind = iota
	// Switch forwards according to an OpenFlow table programmed by an
	// emulated controller.
	Switch
	// Router forwards according to a FIB programmed by an emulated
	// routing daemon (BGP).
	Router
)

// String names the kind ("host", "switch", "router").
func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	case Router:
		return "router"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// Layer labels for fat-tree roles; stored on Node.Layer.
const (
	LayerHost = "host"
	LayerEdge = "edge"
	LayerAgg  = "agg"
	LayerCore = "core"
)

// Port is one attachment point of a node. Ports are numbered from 1, as in
// OpenFlow; index i of Node.Ports holds PortID i+1.
type Port struct {
	ID       core.PortID
	Link     core.LinkID // outgoing directed link
	Peer     core.NodeID
	PeerPort core.PortID
	MAC      core.MAC
	// IP is the interface address used by routing protocols on
	// point-to-point links (a /31 per link) or the gateway address on
	// host-facing subnets.
	IP     netip.Addr
	Prefix netip.Prefix
}

// Node is a vertex of the topology.
type Node struct {
	ID    core.NodeID
	Name  string
	Kind  Kind
	Ports []Port

	// IP is the host address (hosts) or the router ID (routers).
	IP  netip.Addr
	MAC core.MAC

	// Prefix is the subnet this node originates (hosts: their /32;
	// edge routers: their host-facing /24s are on the port instead).
	Prefix netip.Prefix

	// Layer, Pod and Idx carry generator-specific placement used by
	// traffic-engineering apps (e.g. Hedera path enumeration).
	Layer string
	Pod   int
	Idx   int

	// ASN is the autonomous system number for Router nodes in BGP
	// scenarios (assigned by the scenario builder; 0 if unset).
	ASN uint32

	// Originate lists extra prefixes this router injects into BGP
	// beyond its host-facing Prefix — the multi-AS WAN generator uses
	// it to originate synthetic full-table /24s at edge-AS routers
	// (see WANMultiAS). No host sits behind these prefixes; they exist
	// to exercise RIB and UPDATE volume at Internet scale.
	Originate []netip.Prefix

	// RouteReflector marks a router as an iBGP route reflector in WAN
	// scenarios (see topo.WANGraph and cm.BGPConfig.RouteReflection).
	// Reflector sets chosen by the WAN generators form a connected
	// dominating set, so every client router is physically adjacent to
	// at least one reflector and the reflector backbone is connected.
	RouteReflector bool

	// down records a NodeDown: the node neither forwards nor originates
	// traffic, and LinkAlive is false on every attached link. Atomic for
	// the same reason as Link's mutable state; mutated only through
	// netmodel.SetNodeState.
	down atomic.Bool
}

// Down reports whether the node is failed.
func (n *Node) Down() bool { return n.down.Load() }

// SetDown fails or restores the node. Callers outside this package must
// go through netmodel.SetNodeState.
func (n *Node) SetDown(v bool) { n.down.Store(v) }

// Link is a directed edge; every physical cable is two Links, one per
// direction, cross-referenced via Reverse.
//
// Rate and the down flag are the graph's only mutable state: failure
// injections change them mid-run on the engine goroutine while emulated
// controller apps concurrently read the graph (AllShortestPaths,
// capacity lookups) from their own goroutines, so both are atomics.
// Mutate them only through netmodel (SetCableState/SetCableRate) so the
// fluid solver's cached capacities stay consistent.
type Link struct {
	ID       core.LinkID
	From     core.NodeID
	FromPort core.PortID
	To       core.NodeID
	ToPort   core.PortID
	Delay    core.Time
	Reverse  core.LinkID

	rate atomic.Uint64 // math.Float64bits of the capacity
	down atomic.Bool
}

// Rate reports the link's configured capacity.
func (l *Link) Rate() core.Rate { return core.Rate(math.Float64frombits(l.rate.Load())) }

// SetRate changes the configured capacity. Callers outside this package
// must go through netmodel.SetCableRate.
func (l *Link) SetRate(r core.Rate) { l.rate.Store(math.Float64bits(float64(r))) }

// Down reports whether a LinkDown holds the link's cable (both directions
// carry the same flag). It is not liveness: a link whose endpoint node is
// down is dead with this flag clear. Readers that ask whether traffic
// can cross go through Graph.LinkAlive.
func (l *Link) Down() bool { return l.down.Load() }

// SetDown fails or restores the link. Callers outside this package must
// go through netmodel.SetCableState.
func (l *Link) SetDown(v bool) { l.down.Store(v) }

// Graph is a built topology. Node and link IDs are dense indexes into the
// respective slices.
type Graph struct {
	Nodes  []*Node
	Links  []*Link
	byName map[string]core.NodeID

	// byIP backs HostByIP; built on its first call, by which time the
	// graph is complete (nodes are never added after build).
	byIPOnce sync.Once
	byIP     map[netip.Addr]*Node

	macSeq uint64
	p2pSeq uint32 // allocator for point-to-point /31 subnets
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]core.NodeID)}
}

// AddNode appends a node of the given kind and returns it. Names must be
// unique; AddNode panics on duplicates (topology construction is
// programmer-driven, so this is a programming error, not runtime input).
func (g *Graph) AddNode(name string, kind Kind) *Node {
	if _, dup := g.byName[name]; dup {
		panic("topo: duplicate node name " + name)
	}
	g.macSeq++
	n := &Node{
		ID:   core.NodeID(len(g.Nodes)),
		Name: name,
		Kind: kind,
		MAC:  core.MACFromUint64(g.macSeq),
	}
	g.Nodes = append(g.Nodes, n)
	g.byName[name] = n.ID
	return n
}

// AddHost adds a node of kind Host.
func (g *Graph) AddHost(name string) *Node { return g.AddNode(name, Host) }

// AddSwitch adds a node of kind Switch.
func (g *Graph) AddSwitch(name string) *Node { return g.AddNode(name, Switch) }

// AddRouter adds a node of kind Router.
func (g *Graph) AddRouter(name string) *Node { return g.AddNode(name, Router) }

// Node returns the node with the given ID, or nil if out of range.
func (g *Graph) Node(id core.NodeID) *Node {
	if int(id) >= len(g.Nodes) {
		return nil
	}
	return g.Nodes[id]
}

// NodeByName looks a node up by name.
func (g *Graph) NodeByName(name string) (*Node, bool) {
	id, ok := g.byName[name]
	if !ok {
		return nil, false
	}
	return g.Nodes[id], true
}

// Link returns the directed link with the given ID, or nil.
func (g *Graph) Link(id core.LinkID) *Link {
	if int(id) >= len(g.Links) {
		return nil
	}
	return g.Links[id]
}

// addPort appends a port to n and returns a pointer to it.
func (g *Graph) addPort(n *Node) *Port {
	g.macSeq++
	n.Ports = append(n.Ports, Port{
		ID:  core.PortID(len(n.Ports) + 1),
		MAC: core.MACFromUint64(g.macSeq),
	})
	return &n.Ports[len(n.Ports)-1]
}

// Port returns node n's port p, or nil.
func (g *Graph) Port(n core.NodeID, p core.PortID) *Port {
	node := g.Node(n)
	if node == nil || p == core.PortNone || int(p) > len(node.Ports) {
		return nil
	}
	return &node.Ports[p-1]
}

// Connect joins a and b with a bidirectional cable of the given rate and
// per-direction propagation delay, allocating a port on each end and a /31
// point-to-point subnet (from 172.16.0.0/12) for router adjacencies. It
// returns the two directed links (a->b, b->a).
func (g *Graph) Connect(a, b *Node, rate core.Rate, delay core.Time) (*Link, *Link) {
	pa := g.addPort(a)
	pb := g.addPort(b)

	// Allocate the /31: even address to the lower node ID for determinism.
	base := uint32(0xAC10_0000) + g.p2pSeq*2 // 172.16.0.0 onward
	g.p2pSeq++
	ipa := core.IPv4FromUint32(base)
	ipb := core.IPv4FromUint32(base + 1)
	pa.IP, pb.IP = ipa, ipb
	pa.Prefix = netip.PrefixFrom(ipa, 31)
	pb.Prefix = netip.PrefixFrom(ipb, 31)

	ab := &Link{
		ID:   core.LinkID(len(g.Links)),
		From: a.ID, FromPort: pa.ID,
		To: b.ID, ToPort: pb.ID,
		Delay: delay,
	}
	ba := &Link{
		ID:   ab.ID + 1,
		From: b.ID, FromPort: pb.ID,
		To: a.ID, ToPort: pa.ID,
		Delay: delay,
	}
	ab.SetRate(rate)
	ba.SetRate(rate)
	ab.Reverse, ba.Reverse = ba.ID, ab.ID
	g.Links = append(g.Links, ab, ba)

	pa.Link, pa.Peer, pa.PeerPort = ab.ID, b.ID, pb.ID
	pb.Link, pb.Peer, pb.PeerPort = ba.ID, a.ID, pa.ID
	return ab, ba
}

// LinkAlive reports whether a directed link can carry traffic: the link
// itself and both endpoint nodes must be up. It is the only liveness
// there is; nothing stores it.
func (g *Graph) LinkAlive(id core.LinkID) bool {
	l := g.Link(id)
	if l == nil || l.Down() {
		return false
	}
	return !g.Nodes[l.From].Down() && !g.Nodes[l.To].Down()
}

// CableBetween finds the directed link a->b of the cable joining two
// nodes (its Reverse is b->a). It returns nil if the nodes are not
// directly connected.
func (g *Graph) CableBetween(a, b core.NodeID) *Link {
	na := g.Node(a)
	if na == nil {
		return nil
	}
	for _, p := range na.Ports {
		if p.Peer == b {
			return g.Link(p.Link)
		}
	}
	return nil
}

// Hosts returns all Host nodes in ID order.
func (g *Graph) Hosts() []*Node { return g.byKind(Host) }

// Switches returns all Switch nodes in ID order.
func (g *Graph) Switches() []*Node { return g.byKind(Switch) }

// Routers returns all Router nodes in ID order.
func (g *Graph) Routers() []*Node { return g.byKind(Router) }

func (g *Graph) byKind(k Kind) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// HostByIP finds the host owning addr (the lowest-ID one, should two
// hosts share an address).
func (g *Graph) HostByIP(addr netip.Addr) (*Node, bool) {
	g.byIPOnce.Do(func() {
		g.byIP = make(map[netip.Addr]*Node)
		for _, n := range g.Nodes {
			if n.Kind != Host {
				continue
			}
			if _, dup := g.byIP[n.IP]; !dup {
				g.byIP[n.IP] = n
			}
		}
	})
	n, ok := g.byIP[addr]
	return n, ok
}

// Validate performs structural sanity checks: ports reference existing
// links, links reference existing nodes/ports, reverse pointers pair up.
func (g *Graph) Validate() error {
	for _, l := range g.Links {
		if g.Node(l.From) == nil || g.Node(l.To) == nil {
			return fmt.Errorf("link %v references missing node", l.ID)
		}
		rev := g.Link(l.Reverse)
		if rev == nil || rev.Reverse != l.ID {
			return fmt.Errorf("link %v reverse pointer broken", l.ID)
		}
		if rev.From != l.To || rev.To != l.From {
			return fmt.Errorf("link %v reverse endpoints mismatch", l.ID)
		}
		p := g.Port(l.From, l.FromPort)
		if p == nil || p.Link != l.ID {
			return fmt.Errorf("link %v not referenced by its source port", l.ID)
		}
	}
	for _, n := range g.Nodes {
		for i := range n.Ports {
			p := &n.Ports[i]
			l := g.Link(p.Link)
			if l == nil {
				return fmt.Errorf("node %s port %v dangling", n.Name, p.ID)
			}
			if l.From != n.ID || l.FromPort != p.ID {
				return fmt.Errorf("node %s port %v link back-reference broken", n.Name, p.ID)
			}
		}
	}
	return nil
}

// AllShortestPaths returns every shortest path from src to dst as port
// sequences... each path is the list of directed LinkIDs to traverse.
// Hosts never appear as intermediate nodes: traffic is not switched
// through end hosts. Dead links and dead nodes (see LinkAlive) are
// excluded, so after a failure injection the controller apps recompute
// repairs over the surviving topology. Paths come in port order: the
// first differing hop of two paths decides, by the lower port.
//
// One BFS from dst, against link direction, gives every node its
// distance to dst; the walk from src then steps only to a neighbour one
// hop closer, so it visits the returned paths' links and no others.
func (g *Graph) AllShortestPaths(src, dst core.NodeID) [][]core.LinkID {
	if src == dst {
		return [][]core.LinkID{{}}
	}
	// transits reports whether n may forward: hosts never do, except
	// src, where every path starts.
	transits := func(n core.NodeID) bool { return n == src || g.Nodes[n].Kind != Host }
	const unseen = -1
	dist := make([]int32, len(g.Nodes))
	for i := range dist {
		dist[i] = unseen
	}
	dist[dst] = 0
	queue := make([]core.NodeID, 1, len(g.Nodes))
	queue[0] = dst
	// Only dst and nodes that transit are queued. Nodes nearer dst than
	// src are all labelled once src is: the BFS stops there.
	for head := 0; head < len(queue) && dist[src] == unseen; head++ {
		cur := queue[head]
		for _, p := range g.Nodes[cur].Ports {
			// p.Peer reaches cur over the reverse of p's link.
			if nxt := p.Peer; dist[nxt] == unseen && transits(nxt) && g.LinkAlive(g.Links[p.Link].Reverse) {
				dist[nxt] = dist[cur] + 1
				queue = append(queue, nxt)
			}
		}
	}
	if dist[src] == unseen {
		return nil
	}
	var paths [][]core.LinkID
	var walk func(cur core.NodeID, acc []core.LinkID)
	walk = func(cur core.NodeID, acc []core.LinkID) {
		if cur == dst {
			paths = append(paths, append([]core.LinkID(nil), acc...))
			return
		}
		for _, p := range g.Nodes[cur].Ports {
			if dist[p.Peer] == dist[cur]-1 && g.LinkAlive(p.Link) {
				walk(p.Peer, append(acc, p.Link))
			}
		}
	}
	walk(src, make([]core.LinkID, 0, dist[src]))
	return paths
}

// NextHopPorts returns, indexed by destination NodeID, the ports of from
// that start a shortest path to that destination, in ascending port
// order; nil for from itself and for unreachable nodes. It follows
// AllShortestPaths' rules (live links only, hosts never transit) but
// answers for every destination with one BFS: each node inherits the
// union of the first-hop ports of its predecessors on the shortest-path
// DAG, which BFS order has completed before the node is expanded.
// Callers must not modify the returned port lists.
func (g *Graph) NextHopPorts(from core.NodeID) [][]core.PortID {
	out := make([][]core.PortID, len(g.Nodes))
	src := g.Node(from)
	if src == nil || len(src.Ports) == 0 {
		return out
	}
	// One bitset over from's ports per node, words wide.
	words := (len(src.Ports) + 63) / 64
	sets := make([]uint64, len(g.Nodes)*words)
	const unseen = -1
	dist := make([]int32, len(g.Nodes))
	for i := range dist {
		dist[i] = unseen
	}
	dist[from] = 0
	queue := make([]core.NodeID, 1, len(g.Nodes))
	queue[0] = from
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		n := g.Nodes[cur]
		if cur != from && n.Kind == Host {
			continue // do not expand through hosts
		}
		for i, p := range n.Ports {
			if !g.LinkAlive(p.Link) {
				continue
			}
			nxt := p.Peer
			if dist[nxt] == unseen {
				dist[nxt] = dist[cur] + 1
				queue = append(queue, nxt)
			}
			if dist[nxt] != dist[cur]+1 {
				continue
			}
			set := sets[int(nxt)*words:][:words]
			if cur == from {
				set[i/64] |= 1 << (i % 64)
				continue
			}
			for w, v := range sets[int(cur)*words:][:words] {
				set[w] |= v
			}
		}
	}
	total := 0
	for _, v := range sets {
		total += bits.OnesCount64(v)
	}
	// All lists share one backing array, each capped at its own length.
	flat := make([]core.PortID, 0, total)
	for _, id := range queue[1:] {
		start := len(flat)
		for w, v := range sets[int(id)*words:][:words] {
			for ; v != 0; v &= v - 1 {
				flat = append(flat, src.Ports[w*64+bits.TrailingZeros64(v)].ID)
			}
		}
		out[id] = flat[start:len(flat):len(flat)]
	}
	return out
}

// Stats summarises graph size.
type Stats struct {
	Hosts, Switches, Routers int
	Cables                   int // undirected link count
}

// Size reports the graph's composition.
func (g *Graph) Size() Stats {
	var s Stats
	for _, n := range g.Nodes {
		switch n.Kind {
		case Host:
			s.Hosts++
		case Switch:
			s.Switches++
		case Router:
			s.Routers++
		}
	}
	s.Cables = len(g.Links) / 2
	return s
}
