// Package fib implements the forwarding information base of simulated
// routers: an IPv4 longest-prefix-match binary trie whose entries carry
// ECMP next-hop groups.
//
// The emulated BGP control plane installs routes here through the
// Connection Manager, exactly where the original Horse intercepts Quagga's
// RIB-to-kernel route installs.
package fib

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/core"
)

// NextHop is one ECMP member: the local egress port and the neighbor
// address reached through it.
type NextHop struct {
	Port core.PortID
	Via  netip.Addr
}

func (nh NextHop) String() string { return fmt.Sprintf("%v via %v", nh.Port, nh.Via) }

// Route is a FIB entry: a destination prefix and its ECMP group. The
// next-hop slice is kept sorted (by Via, then Port) so that ECMP hashing is
// deterministic regardless of installation order — without this, two
// routers receiving the same paths in different orders would hash flows
// differently and tests would flake.
type Route struct {
	Prefix   netip.Prefix
	NextHops []NextHop
}

type node struct {
	children [2]*node
	route    *Route // non-nil when a prefix terminates here
}

// Table is an IPv4 LPM table. It is not safe for concurrent use; in Horse
// all FIB access happens on the simulation engine goroutine.
type Table struct {
	root  node
	count int
}

// New returns an empty table.
func New() *Table { return &Table{} }

// Len reports the number of installed prefixes.
func (t *Table) Len() int { return t.count }

func bit(v uint32, i int) int { return int(v>>(31-i)) & 1 }

// Insert installs (or replaces) prefix with the given ECMP group, which
// it copies. Empty next-hop groups are rejected: use Remove to delete a
// route.
func (t *Table) Insert(prefix netip.Prefix, hops []NextHop) error {
	if !prefix.Addr().Is4() {
		return fmt.Errorf("fib: non-IPv4 prefix %v", prefix)
	}
	if len(hops) == 0 {
		return fmt.Errorf("fib: empty next-hop group for %v", prefix)
	}
	prefix = prefix.Masked()
	v := core.IPv4ToUint32(prefix.Addr())
	cur := &t.root
	for i := 0; i < prefix.Bits(); i++ {
		b := bit(v, i)
		if cur.children[b] == nil {
			cur.children[b] = &node{}
		}
		cur = cur.children[b]
	}
	// A replace rewrites the installed group in place, as PrunePort does:
	// Lookup and Routes hand out copies of the Route struct, and nothing
	// keeps one across a table change.
	r := cur.route
	if r == nil {
		r = &Route{Prefix: prefix}
		cur.route = r
		t.count++
	}
	r.NextHops = append(r.NextHops[:0], hops...)
	if len(hops) > 1 { // a full table installs one-hop groups by the million
		sorted := r.NextHops
		sort.Slice(sorted, func(i, j int) bool {
			if c := sorted[i].Via.Compare(sorted[j].Via); c != 0 {
				return c < 0
			}
			return sorted[i].Port < sorted[j].Port
		})
	}
	return nil
}

// Remove deletes prefix; it reports whether the prefix was present. The
// nodes that led only to it go too: a withdrawn /24 would otherwise strand
// up to 24 of them, and a full table withdraws by the hundred thousand.
func (t *Table) Remove(prefix netip.Prefix) bool {
	if !prefix.Addr().Is4() {
		return false
	}
	v := core.IPv4ToUint32(prefix.Masked().Addr())
	var path [32]*node // path[i] is the node above bit i
	cur := &t.root
	for i := 0; i < prefix.Bits(); i++ {
		path[i] = cur
		if cur = cur.children[bit(v, i)]; cur == nil {
			return false
		}
	}
	if cur.route == nil {
		return false
	}
	cur.route = nil
	t.count--
	for i := prefix.Bits() - 1; i >= 0 && cur.empty(); i-- {
		path[i].children[bit(v, i)] = nil
		cur = path[i]
	}
	return true
}

// empty reports whether nothing hangs off n: no route, no children.
func (n *node) empty() bool {
	return n.route == nil && n.children[0] == nil && n.children[1] == nil
}

// Lookup returns the longest-prefix-match route for addr.
func (t *Table) Lookup(addr netip.Addr) (Route, bool) {
	if !addr.Is4() {
		return Route{}, false
	}
	v := core.IPv4ToUint32(addr)
	var best *Route
	cur := &t.root
	for i := 0; ; i++ {
		if cur.route != nil {
			best = cur.route
		}
		if i == 32 {
			break
		}
		next := cur.children[bit(v, i)]
		if next == nil {
			break
		}
		cur = next
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// LookupHash performs an LPM lookup and selects one ECMP member by hash
// (modulo group size). This is how the simulated data plane picks among
// equal-cost BGP paths: the paper's first TE approach hashes source and
// destination IP.
func (t *Table) LookupHash(addr netip.Addr, hash uint32) (NextHop, bool) {
	r, ok := t.Lookup(addr)
	if !ok {
		return NextHop{}, false
	}
	return r.NextHops[int(hash%uint32(len(r.NextHops)))], true
}

// PrunePort removes every next hop reached through the given port, the
// kernel-style cleanup a router performs when an interface goes down.
// Routes whose ECMP group empties are withdrawn from the table entirely.
// It reports how many routes were touched.
func (t *Table) PrunePort(port core.PortID) int {
	touched := 0
	// walk prunes below n and reports whether n is left empty, so its
	// parent unlinks it on the way back up.
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if r := n.route; r != nil {
			kept := r.NextHops[:0]
			for _, nh := range r.NextHops {
				if nh.Port != port {
					kept = append(kept, nh)
				}
			}
			if len(kept) != len(r.NextHops) {
				touched++
				r.NextHops = kept
				if len(kept) == 0 {
					n.route = nil
					t.count--
				}
			}
		}
		for b, c := range n.children {
			if c != nil && walk(c) {
				n.children[b] = nil
			}
		}
		return n.empty()
	}
	walk(&t.root)
	return touched
}

// Routes returns all installed routes sorted by prefix (address, then
// length): a stable order for tests and dumps.
func (t *Table) Routes() []Route {
	var out []Route
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.route != nil {
			out = append(out, *n.route)
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(&t.root)
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Prefix.Addr().Compare(out[j].Prefix.Addr()); c != 0 {
			return c < 0
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

// String renders the table like a routing table dump.
func (t *Table) String() string {
	var b strings.Builder
	for _, r := range t.Routes() {
		fmt.Fprintf(&b, "%v ->", r.Prefix)
		for _, nh := range r.NextHops {
			fmt.Fprintf(&b, " [%v]", nh)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
