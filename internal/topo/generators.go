package topo

import (
	"fmt"
	"net/netip"

	"repro/internal/core"
)

// Linear builds a chain of n forwarding nodes, each with one attached
// host: h0 - s0 - s1 - ... - s(n-1) - h(n-1). Behind the linear:N topology and tests.
func Linear(n int, kind Kind, rate core.Rate, delay core.Time) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: linear topology needs >= 1 node, got %d", n)
	}
	if n > 250 {
		return nil, fmt.Errorf("topo: linear topology larger than addressing space: %d", n)
	}
	g := New()
	var prev *Node
	for i := 0; i < n; i++ {
		s := g.AddNode(fmt.Sprintf("s%d", i), kind)
		s.Layer = LayerEdge
		s.Idx = i
		s.IP = netip.AddrFrom4([4]byte{10, 0, byte(i), 1})
		s.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
		s.ASN = 64512 + uint32(i)
		h := g.AddHost(fmt.Sprintf("h%d", i))
		h.Idx = i
		h.IP = netip.AddrFrom4([4]byte{10, 0, byte(i), 2})
		h.Prefix = netip.PrefixFrom(h.IP, 32)
		g.Connect(s, h, rate, delay)
		if prev != nil {
			g.Connect(prev, s, rate, delay)
		}
		prev = s
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Star builds one central forwarding node with n hosts attached.
func Star(n int, kind Kind, rate core.Rate, delay core.Time) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: star topology needs >= 1 host, got %d", n)
	}
	if n > 250 {
		return nil, fmt.Errorf("topo: star topology larger than addressing space: %d", n)
	}
	g := New()
	c := g.AddNode("s0", kind)
	c.IP = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	c.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 24)
	c.ASN = 64512
	for i := 0; i < n; i++ {
		h := g.AddHost(fmt.Sprintf("h%d", i))
		h.Idx = i
		h.IP = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 2)})
		h.Prefix = netip.PrefixFrom(h.IP, 32)
		g.Connect(c, h, rate, delay)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// TwoRouters builds the paper's Figure 1 scenario: two BGP routers R1 and
// R2 joined by one link, each with one host behind it.
func TwoRouters(rate core.Rate, delay core.Time) (*Graph, error) {
	g := New()
	r1 := g.AddRouter("r1")
	r1.IP = netip.AddrFrom4([4]byte{10, 0, 1, 1})
	r1.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 1, 0}), 24)
	r1.ASN = 65001
	r2 := g.AddRouter("r2")
	r2.IP = netip.AddrFrom4([4]byte{10, 0, 2, 1})
	r2.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 2, 0}), 24)
	r2.ASN = 65002
	h1 := g.AddHost("h1")
	h1.IP = netip.AddrFrom4([4]byte{10, 0, 1, 2})
	h1.Prefix = netip.PrefixFrom(h1.IP, 32)
	h2 := g.AddHost("h2")
	h2.IP = netip.AddrFrom4([4]byte{10, 0, 2, 2})
	h2.Prefix = netip.PrefixFrom(h2.IP, 32)
	g.Connect(r1, h1, rate, delay)
	g.Connect(r2, h2, rate, delay)
	g.Connect(r1, r2, rate, delay)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WANRing builds a ring of n BGP routers with chord links every `chord`
// hops (0 disables chords), one host per router. It approximates a small
// wide-area network, the "other types of networks" the paper mentions
// Horse also supports.
func WANRing(n, chord int, rate core.Rate, delay core.Time) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topo: WAN ring needs >= 3 routers, got %d", n)
	}
	if n > 250 {
		return nil, fmt.Errorf("topo: WAN ring larger than addressing space: %d", n)
	}
	g := New()
	routers := make([]*Node, n)
	for i := 0; i < n; i++ {
		r := g.AddRouter(fmt.Sprintf("r%d", i))
		r.Idx = i
		r.IP = netip.AddrFrom4([4]byte{10, 1, byte(i), 1})
		r.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i), 0}), 24)
		r.ASN = 65000 + uint32(i)
		routers[i] = r
		h := g.AddHost(fmt.Sprintf("h%d", i))
		h.Idx = i
		h.IP = netip.AddrFrom4([4]byte{10, 1, byte(i), 2})
		h.Prefix = netip.PrefixFrom(h.IP, 32)
		g.Connect(r, h, rate, delay)
	}
	for i := 0; i < n; i++ {
		g.Connect(routers[i], routers[(i+1)%n], rate, delay)
	}
	if chord > 1 {
		for i := 0; i < n; i++ {
			j := (i + chord) % n
			// Avoid duplicating ring edges and double-adding chords.
			if j != (i+1)%n && i < j {
				g.Connect(routers[i], routers[j], rate, delay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
