package topo

import (
	"fmt"
	"net/netip"
	"strconv"

	"repro/internal/core"
)

// The links of the LAN generators: 1 Gbps with a 10µs propagation delay
// each way. FatTree uses them; the root package passes them to Linear,
// Star, TwoRouters and WANRing.
const (
	LANRate  = 1 * core.Gbps
	LANDelay = 10 * core.Microsecond
)

// FatTreeOpts parameterises FatTree.
type FatTreeOpts struct {
	// K is the fat-tree arity: K pods, (K/2)^2 core switches, K^3/4
	// hosts. K must be even and >= 2. The paper's demo uses K in
	// {4, 6, 8} with 1 Gbps links (LANRate, LANDelay).
	K int
	// Routers, when true, creates Router nodes (BGP scenario) instead
	// of OpenFlow Switch nodes (SDN scenario). ASNs are assigned
	// RFC 7938-style: one private ASN per switch, same ASN for all
	// core switches.
	Routers bool
}

// FatTree builds the k-ary fat-tree of Al-Fares et al. (SIGCOMM'08), the
// topology used throughout the paper's demonstration.
//
// Addressing follows the paper's scheme: the host at position h under edge
// switch e of pod p has address 10.p.e.(h+2)/24, with the edge switch
// holding 10.p.e.1 as the subnet gateway.
func FatTree(opts FatTreeOpts) (*Graph, error) {
	k := opts.K
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree arity must be even and >= 2, got %d", k)
	}
	if k > 254 {
		return nil, fmt.Errorf("topo: fat-tree arity %d exceeds addressing space", k)
	}
	g := New()
	half := k / 2
	// The counts are known up front; growing by append allocates about
	// twice what the graph keeps.
	size := FatTreeExpected(k)
	g.Nodes = make([]*Node, 0, size.Hosts+size.Switches)
	g.Links = make([]*Link, 0, 2*size.Cables)
	g.byName = make(map[string]core.NodeID, size.Hosts+size.Switches)

	swKind := Switch
	if opts.Routers {
		swKind = Router
	}
	// ASNs per RFC 7938 flavour: core shares one ASN so that valley
	// paths (core->agg->core) are rejected by AS-loop detection; every
	// edge and agg switch gets its own.
	const asnBase = 64512
	coreASN := uint32(asnBase)
	nextASN := coreASN + 1

	// Core switches: (k/2)^2, addressed 10.k.j.i per the original paper.
	cores := make([]*Node, 0, half*half)
	for j := 0; j < half; j++ {
		for i := 0; i < half; i++ {
			n := g.AddNode("core-"+strconv.Itoa(j)+"-"+strconv.Itoa(i), swKind)
			n.Ports = make([]Port, 0, k)
			n.Layer = LayerCore
			n.Pod = -1
			n.Idx = j*half + i
			n.IP = netip.AddrFrom4([4]byte{10, byte(k), byte(j + 1), byte(i + 1)})
			n.ASN = coreASN
			cores = append(cores, n)
		}
	}

	for p := 0; p < k; p++ {
		// Aggregation and edge switches of pod p.
		aggs := make([]*Node, half)
		edges := make([]*Node, half)
		for a := 0; a < half; a++ {
			n := g.AddNode("agg-"+strconv.Itoa(p)+"-"+strconv.Itoa(a), swKind)
			n.Ports = make([]Port, 0, k)
			n.Layer = LayerAgg
			n.Pod = p
			n.Idx = a
			n.IP = netip.AddrFrom4([4]byte{10, byte(p), byte(a + half), 1})
			n.ASN = nextASN
			nextASN++
			aggs[a] = n
		}
		for e := 0; e < half; e++ {
			n := g.AddNode("edge-"+strconv.Itoa(p)+"-"+strconv.Itoa(e), swKind)
			n.Ports = make([]Port, 0, k)
			n.Layer = LayerEdge
			n.Pod = p
			n.Idx = e
			n.IP = netip.AddrFrom4([4]byte{10, byte(p), byte(e), 1})
			n.ASN = nextASN
			nextASN++
			edges[e] = n
		}
		// Hosts: k/2 per edge switch.
		for e := 0; e < half; e++ {
			subnet := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(p), byte(e), 0}), 24)
			for h := 0; h < half; h++ {
				hn := g.AddHost("host-" + strconv.Itoa(p) + "-" + strconv.Itoa(e) + "-" + strconv.Itoa(h))
				hn.Layer = LayerHost
				hn.Pod = p
				hn.Idx = e*half + h
				hn.IP = netip.AddrFrom4([4]byte{10, byte(p), byte(e), byte(h + 2)})
				hn.Prefix = netip.PrefixFrom(hn.IP, 32)
				g.Connect(edges[e], hn, LANRate, LANDelay)
			}
			edges[e].Prefix = subnet
		}
		// Edge <-> agg full bipartite within the pod.
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				g.Connect(edges[e], aggs[a], LANRate, LANDelay)
			}
		}
		// Agg a connects to core group a (cores a*half .. a*half+half-1).
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				g.Connect(aggs[a], cores[a*half+c], LANRate, LANDelay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FatTreeExpected reports the node/link counts a k-ary fat-tree must have;
// used by tests and capacity planning.
func FatTreeExpected(k int) Stats {
	half := k / 2
	return Stats{
		Hosts:    k * k * k / 4,
		Switches: k*k + half*half, // k pods * k switches + cores
		Cables:   3 * k * k * k / 4,
	}
}
