// Package fib implements the forwarding information base of simulated
// routers: an IPv4 longest-prefix-match table of ECMP next-hop groups,
// interned, and numbered in the per-bit prefix trie the BGP RIB also uses
// (internal/ptrie).
//
// The emulated BGP control plane installs routes here through the
// Connection Manager, exactly where the original Horse intercepts Quagga's
// RIB-to-kernel route installs.
package fib

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
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
//
// The NextHops of a Route that Lookup or Routes hands out is the table's
// own copy of the group, shared by every prefix installed with it:
// read-only, and good until the next Insert, Remove or PrunePort.
type Route struct {
	Prefix   netip.Prefix
	NextHops []NextHop
}

// Table is an IPv4 LPM table. It is not safe for concurrent use; in Horse
// all FIB access happens on the simulation engine goroutine.
//
// A full table is a hundred thousand prefixes over a handful of distinct
// next-hop groups, so a route is stored as a number: the trie holds, per
// prefix, the index of its group in a refcounted pool of sorted, interned
// groups, and the prefix itself is the trie position and nothing else.
// A table costs its trie and its distinct groups; nothing is allocated
// per route.
type Table struct {
	trie ptrie.Trie[uint32] // group number; never 0 for an installed prefix

	groups []group           // groups[0] is unused: 0 is the trie's zero value
	free   []uint32          // released group numbers, reused before groups grows
	index  map[string]uint32 // groupKey of every live group
	last   uint32            // the group the latest Insert used, or 0
	keyBuf []byte
	hopBuf []NextHop
}

// group is one interned next-hop group and the number of routes using it.
type group struct {
	hops []NextHop
	refs int
}

// New returns an empty table.
func New() *Table {
	return &Table{groups: make([]group, 1), index: make(map[string]uint32)}
}

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

// keyPrefix is the masked prefix a trie key stands for.
func keyPrefix(addr uint32, length uint8) netip.Prefix {
	return netip.PrefixFrom(core.IPv4FromUint32(addr&^(^uint32(0)>>length)), int(length))
}

func compareHops(a, b NextHop) int {
	if c := a.Via.Compare(b.Via); c != 0 {
		return c
	}
	return cmp.Compare(a.Port, b.Port)
}

// groupKey spells a sorted group as bytes, distinct groups differently:
// per hop the port, the neighbor address as text, and a terminator no
// address contains.
func (t *Table) groupKey(hops []NextHop) []byte {
	b := t.keyBuf[:0]
	for _, nh := range hops {
		b = append(b, byte(nh.Port>>8), byte(nh.Port))
		b = nh.Via.AppendTo(b)
		b = append(b, 0)
	}
	t.keyBuf = b
	return b
}

// intern returns the number of the group equal to hops (sorted, not
// empty), which it copies if the pool has none, with one more route
// counted on it. A burst of routes repeats one group, so the group of the
// previous call is compared first; past that it is one hash lookup,
// however many groups the table holds.
func (t *Table) intern(hops []NextHop) uint32 {
	g := t.last
	if g == 0 || !slices.Equal(t.groups[g].hops, hops) {
		k := t.groupKey(hops)
		if g = t.index[string(k)]; g == 0 {
			if n := len(t.free); n > 0 {
				g, t.free = t.free[n-1], t.free[:n-1]
			} else {
				t.groups = append(t.groups, group{})
				g = uint32(len(t.groups) - 1)
			}
			t.groups[g].hops = slices.Clone(hops)
			t.index[string(k)] = g
		}
		t.last = g
	}
	t.groups[g].refs++
	return g
}

// release takes one route off group g, which leaves the pool with its
// last one.
func (t *Table) release(g uint32) {
	if t.groups[g].refs--; t.groups[g].refs > 0 {
		return
	}
	delete(t.index, string(t.groupKey(t.groups[g].hops)))
	t.groups[g] = group{}
	t.free = append(t.free, g)
	if t.last == g {
		t.last = 0
	}
}

// Insert installs (or replaces) prefix with the given ECMP group, which
// it copies unless an equal group is installed already. Empty next-hop
// groups are rejected: use Remove to delete a route.
func (t *Table) Insert(prefix netip.Prefix, hops []NextHop) error {
	addr, length, ok := key(prefix)
	if !ok {
		return fmt.Errorf("fib: not a valid IPv4 prefix: %v", prefix)
	}
	if len(hops) == 0 {
		return fmt.Errorf("fib: empty next-hop group for %v", prefix)
	}
	if !slices.IsSortedFunc(hops, compareHops) {
		t.hopBuf = append(t.hopBuf[:0], hops...)
		slices.SortFunc(t.hopBuf, compareHops)
		hops = t.hopBuf
	}
	// The new group is counted before the old one is let go, so a route
	// re-installed with the group it has does not drop it in between.
	g := t.intern(hops)
	slot := t.trie.Insert(addr, length)
	if old := *slot; old != 0 {
		t.release(old)
	}
	*slot = g
	return nil
}

// Remove deletes prefix; it reports whether the prefix was present. The
// trie nodes that led only to it go too, and its group if no other route
// uses it.
func (t *Table) Remove(prefix netip.Prefix) bool {
	addr, length, ok := key(prefix)
	if !ok {
		return false
	}
	g, ok := t.trie.Remove(addr, length)
	if ok {
		t.release(g)
	}
	return ok
}

// lookup is the longest-prefix match for addr: its group and its length.
func (t *Table) lookup(addr netip.Addr) (hops []NextHop, length uint8, ok bool) {
	if !addr.Is4() {
		return nil, 0, false
	}
	g, length := t.trie.Longest(core.IPv4ToUint32(addr), func(*uint32) bool { return true })
	if g == nil {
		return nil, 0, false
	}
	return t.groups[*g].hops, length, true
}

// Lookup returns the longest-prefix-match route for addr.
func (t *Table) Lookup(addr netip.Addr) (Route, bool) {
	hops, length, ok := t.lookup(addr)
	if !ok {
		return Route{}, false
	}
	return Route{Prefix: keyPrefix(core.IPv4ToUint32(addr), length), NextHops: hops}, true
}

// LookupHash performs an LPM lookup and selects one ECMP member by hash
// (modulo group size). This is how the simulated data plane picks among
// equal-cost BGP paths: the paper's first TE approach hashes source and
// destination IP.
func (t *Table) LookupHash(addr netip.Addr, hash uint32) (NextHop, bool) {
	hops, _, ok := t.lookup(addr)
	if !ok {
		return NextHop{}, false
	}
	return hops[int(hash%uint32(len(hops)))], true
}

// PrunePort removes every next hop reached through the given port, the
// kernel-style cleanup a router performs when an interface goes down.
// Routes whose ECMP group empties are withdrawn from the table entirely.
// It reports how many routes were touched.
//
// The work is per group, then one number per route: each group through
// the port gets its successor (the group without those hops, which may be
// one the pool already holds) computed once, and a single walk of the
// trie moves the routes over. A port no group uses costs no walk at all.
func (t *Table) PrunePort(port core.PortID) int {
	const withdrawn = ^uint32(0)
	var next []uint32 // next[g] is g's successor; 0 leaves g's routes alone
	for g := 1; g < len(t.groups); g++ {
		hops := t.groups[g].hops
		kept := t.hopBuf[:0]
		for _, nh := range hops {
			if nh.Port != port {
				kept = append(kept, nh)
			}
		}
		t.hopBuf = kept
		if len(kept) == len(hops) {
			continue
		}
		if next == nil {
			next = make([]uint32, len(t.groups))
		}
		// A successor is held by one count of its own until the walk is
		// over. (It may land past the end of next, or in a freed slot this
		// loop has yet to reach: either way it has no hop through port.)
		if next[g] = withdrawn; len(kept) > 0 {
			next[g] = t.intern(kept)
		}
	}
	if next == nil {
		return 0
	}
	touched := 0
	t.trie.Walk(func(addr uint32, length uint8, slot *uint32) bool {
		g := *slot
		if int(g) >= len(next) || next[g] == 0 {
			return true
		}
		touched++
		if next[g] == withdrawn {
			t.trie.Remove(addr, length)
		} else {
			*slot = next[g]
			t.groups[next[g]].refs++
		}
		t.release(g)
		return true
	})
	for _, to := range next {
		if to != 0 && to != withdrawn {
			t.release(to)
		}
	}
	return touched
}

// Routes returns all installed routes sorted by prefix (address, then
// length, the order the trie walks in): a stable order for tests and
// dumps.
func (t *Table) Routes() []Route {
	out := make([]Route, 0, t.Len())
	t.trie.Walk(func(addr uint32, length uint8, g *uint32) bool {
		out = append(out, Route{Prefix: keyPrefix(addr, length), NextHops: t.groups[*g].hops})
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
