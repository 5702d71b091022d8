// Package fib implements the forwarding information base of simulated
// routers: an IPv4 longest-prefix-match table of ECMP next-hop groups,
// held in the per-bit prefix trie the BGP RIB also uses (internal/ptrie).
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
	"repro/internal/ptrie"
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

// Table is an IPv4 LPM table. It is not safe for concurrent use; in Horse
// all FIB access happens on the simulation engine goroutine.
type Table struct {
	trie ptrie.Trie[Route]
}

// New returns an empty table.
func New() *Table { return &Table{} }

// Len reports the number of installed prefixes.
func (t *Table) Len() int { return t.trie.Len() }

// key is prefix in trie form; ok is false for anything but a valid IPv4
// prefix (netip.PrefixFrom keeps an out-of-range length, whose Masked is
// the zero Prefix).
func key(prefix netip.Prefix) (addr uint32, length uint8, ok bool) {
	if !prefix.IsValid() || !prefix.Addr().Is4() {
		return 0, 0, false
	}
	return core.IPv4ToUint32(prefix.Addr()), uint8(prefix.Bits()), true
}

// Insert installs (or replaces) prefix with the given ECMP group, which
// it copies. Empty next-hop groups are rejected: use Remove to delete a
// route.
func (t *Table) Insert(prefix netip.Prefix, hops []NextHop) error {
	addr, length, ok := key(prefix)
	if !ok {
		return fmt.Errorf("fib: not a valid IPv4 prefix: %v", prefix)
	}
	if len(hops) == 0 {
		return fmt.Errorf("fib: empty next-hop group for %v", prefix)
	}
	// A replace rewrites the installed group in place, as PrunePort does:
	// Lookup and Routes hand out copies of the Route struct, and nothing
	// keeps one across a table change.
	r := t.trie.Insert(addr, length)
	r.Prefix = prefix.Masked()
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
// trie nodes that led only to it go too.
func (t *Table) Remove(prefix netip.Prefix) bool {
	addr, length, ok := key(prefix)
	return ok && t.trie.Remove(addr, length)
}

// Lookup returns the longest-prefix-match route for addr.
func (t *Table) Lookup(addr netip.Addr) (Route, bool) {
	if !addr.Is4() {
		return Route{}, false
	}
	best := t.trie.Longest(core.IPv4ToUint32(addr), func(*Route) bool { return true })
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
	t.trie.Walk(func(addr uint32, length uint8, r *Route) bool {
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
				t.trie.Remove(addr, length)
			}
		}
		return true
	})
	return touched
}

// Routes returns all installed routes sorted by prefix (address, then
// length, the order the trie walks in): a stable order for tests and
// dumps.
func (t *Table) Routes() []Route {
	out := make([]Route, 0, t.Len())
	t.trie.Walk(func(_ uint32, _ uint8, r *Route) bool {
		out = append(out, *r)
		return true
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
