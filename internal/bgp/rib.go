package bgp

import (
	"net/netip"
	"slices"

	"repro/internal/core"
	"repro/internal/ptrie"
)

// Path is one candidate route for a prefix, as stored in Adj-RIB-In (or
// as a locally originated route with an empty AS path).
type Path struct {
	// Attrs is a handle to the (interned, immutable-once-shared)
	// attribute set; the embedded PathAttrs fields read through it.
	Attrs *AttrVal
	// PeerAddr identifies the session the path was learned from; the
	// zero value marks locally originated routes.
	PeerAddr netip.Addr
	// PeerRouterID breaks final ties deterministically.
	PeerRouterID netip.Addr
	// Port is the local egress port toward the peer, used when the
	// path is installed into the simulated FIB.
	Port core.PortID
	// Local marks locally originated routes.
	Local bool
	// IBGP marks paths learned over an internal (same-AS) session;
	// they lose to eBGP paths in the decision process and are subject
	// to the RFC 4456 reflection rules on re-advertisement.
	IBGP bool
	// FromClient marks iBGP paths learned from one of our route
	// reflection clients; a reflector re-advertises them to every
	// session, client or not.
	FromClient bool
}

// pathCompare compares two candidate paths per the RFC 4271 decision
// process (subset: LOCAL_PREF, AS path length, ORIGIN, MED, router ID).
// It returns <0 when a is preferred, >0 when b is, 0 for an exact ECMP
// tie at the multipath comparison depth.
func pathCompare(a, b *Path) int {
	if a.Attrs == b.Attrs {
		// Interned fast path: identical attribute sets tie on every
		// attribute step, leaving only the local-route and eBGP>iBGP
		// comparisons (in decision order: Local sorts between
		// LOCAL_PREF and AS-path length, both ties here).
		if a.Local != b.Local {
			if a.Local {
				return -1
			}
			return 1
		}
		if a.IBGP != b.IBGP {
			if !a.IBGP {
				return -1
			}
			return 1
		}
		return 0
	}
	lpA, lpB := a.Attrs.LocalPref, b.Attrs.LocalPref
	if !a.Attrs.HasLP {
		lpA = 100
	}
	if !b.Attrs.HasLP {
		lpB = 100
	}
	if lpA != lpB {
		if lpA > lpB {
			return -1
		}
		return 1
	}
	// Local routes beat learned routes (weight, in vendor terms).
	if a.Local != b.Local {
		if a.Local {
			return -1
		}
		return 1
	}
	if la, lb := len(a.Attrs.ASPath), len(b.Attrs.ASPath); la != lb {
		if la < lb {
			return -1
		}
		return 1
	}
	if a.Attrs.Origin != b.Attrs.Origin {
		if a.Attrs.Origin < b.Attrs.Origin {
			return -1
		}
		return 1
	}
	// MED compared across all neighbors (the "always-compare-med"
	// flavour, which is what anycast-style DC fabrics run).
	mA, mB := uint32(0), uint32(0)
	if a.Attrs.HasMED {
		mA = a.Attrs.MED
	}
	if b.Attrs.HasMED {
		mB = b.Attrs.MED
	}
	if mA != mB {
		if mA < mB {
			return -1
		}
		return 1
	}
	// eBGP-learned beats iBGP-learned (RFC 4271 §9.1.2.2 step d).
	if a.IBGP != b.IBGP {
		if !a.IBGP {
			return -1
		}
		return 1
	}
	return 0
}

// tieBreak orders ECMP-equal paths deterministically per the RFC 4456
// refinements: shorter CLUSTER_LIST first, then the originator's router
// ID (ORIGINATOR_ID when reflected, else the peer's), then peer address.
func tieBreak(a, b *Path) bool {
	if la, lb := len(a.Attrs.ClusterList), len(b.Attrs.ClusterList); la != lb {
		return la < lb
	}
	if c := originatorOf(a).Compare(originatorOf(b)); c != 0 {
		return c < 0
	}
	return a.PeerAddr.Compare(b.PeerAddr) < 0
}

// originatorOf is the router ID used for decision tie-breaks: the
// ORIGINATOR_ID a reflector stamped, or the peer's own router ID.
func originatorOf(p *Path) netip.Addr {
	if p.Attrs.OriginatorID.Is4() {
		return p.Attrs.OriginatorID
	}
	return p.PeerRouterID
}

// ribEntry is the per-prefix route state living at a trie node: the
// local origination, the Adj-RIB-In candidates (one per peer, kept
// sorted by peer address), and the current Loc-RIB selection. The
// decision process for a prefix touches only its entry — no global
// iteration, no per-call candidate re-sort.
//
// Most prefixes have one candidate, which is the selection, so each of the
// two lists starts out on the one-element array beside it and moves to
// the heap only when a second path arrives: a full table from one peer is
// entries in the trie's slab and nothing else. (A slice into its own entry
// is sound because ptrie never moves a value and nothing copies a
// ribEntry.)
type ribEntry struct {
	local *Path
	// peers holds one path per advertising peer, ordered by PeerAddr.
	peers []*Path
	// selected is the current Loc-RIB selection (nil = unreachable).
	selected []*Path

	peer1, selected1 [1]*Path
}

// peerIndex is the position of peer's path in e.peers, or -1.
func (e *ribEntry) peerIndex(peer netip.Addr) int {
	for i, pp := range e.peers {
		if pp.PeerAddr == peer {
			return i
		}
	}
	return -1
}

// known reports whether any route (local or learned) exists here.
func (e *ribEntry) known() bool { return e.local != nil || len(e.peers) > 0 }

// RIB holds Adj-RIB-In entries and locally originated routes per prefix
// in the per-bit prefix trie the FIB also uses (internal/ptrie), and
// computes the Loc-RIB with optional ECMP multipath. The trie gives
// ordered walks (address, then length: sortPrefixes order, no sort
// pass), longest-prefix match, and a stable per-prefix entry the decision
// process recomputes incrementally. Attribute sets are interned in a
// refcounted pool shared by every path the RIB stores.
type RIB struct {
	trie ptrie.Trie[ribEntry]
	pool *attrPool
	// Multipath enables ECMP: all paths tying through the comparison
	// are selected (the "bgp bestpath as-path multipath-relax"
	// behaviour, required for fat-tree ECMP across different peer ASes).
	Multipath bool
}

// NewRIB creates an empty RIB.
func NewRIB(multipath bool) *RIB {
	return &RIB{pool: newAttrPool(), Multipath: multipath}
}

// Intern dedupes an attribute set against the RIB's pool. The speaker
// interns once per received UPDATE; every NLRI in the message then
// shares the one handle.
func (r *RIB) Intern(a PathAttrs) *AttrVal { return r.pool.intern(a) }

// AttrSets reports the number of distinct attribute sets currently
// interned — at full-table scale this stays orders of magnitude below
// the prefix count, which is the point.
func (r *RIB) AttrSets() int { return r.pool.len() }

// SetLocal originates a prefix locally.
func (r *RIB) SetLocal(p netip.Prefix, attrs PathAttrs) {
	e := r.trie.Insert(v4key(p))
	if e.local != nil {
		releaseAttrs(e.local.Attrs)
	}
	h := r.pool.intern(attrs)
	retainAttrs(h)
	e.local = &Path{Attrs: h, Local: true}
}

// UpdateAdjIn records a path learned from peer; a nil path withdraws.
// It returns whether anything changed.
func (r *RIB) UpdateAdjIn(peer netip.Addr, prefix netip.Prefix, path *Path) bool {
	return r.updateAdjIn(peer, prefix, path) != nil
}

// updateAdjIn is UpdateAdjIn returning the entry it changed, or nil: the
// caller that goes on to decide the prefix hands it to decide, and the
// route has cost one descent of the trie, not two.
func (r *RIB) updateAdjIn(peer netip.Addr, prefix netip.Prefix, path *Path) *ribEntry {
	addr, length := v4key(prefix)
	if path == nil {
		e := r.trie.Get(addr, length)
		if e == nil {
			return nil
		}
		i := e.peerIndex(peer)
		if i < 0 {
			return nil
		}
		releaseAttrs(e.peers[i].Attrs)
		e.peers = slices.Delete(e.peers, i, i+1)
		return e
	}
	e := r.trie.Insert(addr, length)
	retainAttrs(path.Attrs)
	if i := e.peerIndex(peer); i >= 0 {
		releaseAttrs(e.peers[i].Attrs)
		e.peers[i] = path
		return e
	}
	if e.peers == nil {
		e.peers = e.peer1[:0]
	}
	// Insert keeping peer-address order (the deterministic candidate
	// order the decision process depends on).
	at := len(e.peers)
	for i, pp := range e.peers {
		if peer.Compare(pp.PeerAddr) < 0 {
			at = i
			break
		}
	}
	e.peers = slices.Insert(e.peers, at, path)
	return e
}

// DropPeer removes every path learned from peer (session down),
// returning the affected prefixes in sorted order. The result is counted
// before it is filled: a full-table peer would otherwise grow it by
// doubling through a hundred thousand entries.
func (r *RIB) DropPeer(peer netip.Addr) []netip.Prefix {
	prefixes, _ := r.dropPeer(peer)
	return prefixes
}

// dropPeer is DropPeer returning the affected entries beside their
// prefixes, for decide.
func (r *RIB) dropPeer(peer netip.Addr) ([]netip.Prefix, []*ribEntry) {
	n := 0
	r.trie.Walk(func(_ uint32, _ uint8, e *ribEntry) bool {
		if e.peerIndex(peer) >= 0 {
			n++
		}
		return true
	})
	if n == 0 {
		return nil, nil
	}
	out, entries := make([]netip.Prefix, 0, n), make([]*ribEntry, 0, n)
	r.trie.Walk(func(addr uint32, length uint8, e *ribEntry) bool {
		if i := e.peerIndex(peer); i >= 0 {
			releaseAttrs(e.peers[i].Attrs)
			e.peers = slices.Delete(e.peers, i, i+1)
			out, entries = append(out, keyPrefix(addr, length)), append(entries, e)
		}
		return true
	})
	return out, entries
}

// Decide recomputes the Loc-RIB selection for prefix and returns the new
// best-path set (nil if unreachable) plus whether it changed. The
// returned slice aliases the entry's selection buffer: it is valid until
// the next Decide of the same prefix.
func (r *RIB) Decide(prefix netip.Prefix) ([]*Path, bool) {
	e := r.trie.Get(v4key(prefix))
	if e == nil {
		return nil, false
	}
	return r.decide(e, prefix)
}

// decide is Decide on the entry of prefix. An entry left with no route at
// all is removed, and e is dead from then on.
func (r *RIB) decide(e *ribEntry, prefix netip.Prefix) ([]*Path, bool) {
	// The candidates are gathered on the stack; an ECMP set wider than
	// this spills to the heap for the length of the call.
	var buf [8]*Path
	sel := buf[:0]
	if e.known() {
		// Candidates in deterministic order: local first, then peers by
		// address (e.peers maintains that order).
		best := e.local
		for _, pp := range e.peers {
			if best == nil || pathCompare(pp, best) < 0 {
				best = pp
			}
		}
		if e.local != nil && (best == e.local || (r.Multipath && pathCompare(e.local, best) == 0)) {
			sel = append(sel, e.local)
		}
		for _, pp := range e.peers {
			if pp == best || (r.Multipath && pathCompare(pp, best) == 0) {
				sel = append(sel, pp)
			}
		}
		sortTieBreak(sel)
		if !r.Multipath && len(sel) > 1 {
			sel = sel[:1]
		}
	}
	changed := !pathSetEqual(e.selected, sel)
	switch {
	case !changed:
	case len(sel) == 0:
		e.selected = nil
	default:
		if e.selected == nil {
			e.selected = e.selected1[:0]
		}
		e.selected = append(e.selected[:0], sel...)
	}
	if !e.known() {
		r.trie.Remove(v4key(prefix))
		return nil, changed
	}
	return e.selected, changed
}

// sortTieBreak orders a (small) selection deterministically by tieBreak
// — insertion sort, so steady-state decides stay allocation free.
func sortTieBreak(ps []*Path) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && tieBreak(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Best returns the Loc-RIB selection for prefix.
func (r *RIB) Best(prefix netip.Prefix) []*Path {
	e := r.trie.Get(v4key(prefix))
	if e == nil {
		return nil
	}
	return e.selected
}

// Lookup is the longest-prefix-match query the trie exists for: the
// selection of the most specific reachable prefix containing addr.
func (r *RIB) Lookup(addr netip.Addr) []*Path {
	if !addr.Is4() {
		return nil
	}
	e, _ := r.trie.Longest(core.IPv4ToUint32(addr), func(e *ribEntry) bool { return len(e.selected) > 0 })
	if e == nil {
		return nil
	}
	return e.selected
}

// eachSelected visits every prefix present in the Loc-RIB with its
// selection, in sorted order — the walk Prefixes makes, without the list
// and without a second descent per prefix to fetch the selection.
func (r *RIB) eachSelected(visit func(netip.Prefix, []*Path)) {
	r.trie.Walk(func(addr uint32, length uint8, e *ribEntry) bool {
		if len(e.selected) > 0 {
			visit(keyPrefix(addr, length), e.selected)
		}
		return true
	})
}

// Prefixes returns every prefix present in the Loc-RIB, sorted (the
// trie walk is ordered; no sort pass needed).
func (r *RIB) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, r.trie.Len())
	r.eachSelected(func(p netip.Prefix, _ []*Path) { out = append(out, p) })
	return out
}

// KnownPrefixes returns every prefix seen in local or any Adj-RIB-In,
// sorted; the decision process re-evaluates these after session changes.
func (r *RIB) KnownPrefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, r.trie.Len())
	r.trie.Walk(func(addr uint32, length uint8, e *ribEntry) bool {
		if e.known() {
			out = append(out, keyPrefix(addr, length))
		}
		return true
	})
	return out
}

func pathSetEqual(a, b []*Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			// Pointer comparison is too strict across re-decides;
			// compare the fields that matter to the FIB and to
			// advertisements. Shared attribute handles compare in one
			// pointer check.
			if a[i].PeerAddr != b[i].PeerAddr || a[i].Port != b[i].Port {
				return false
			}
			if a[i].Attrs == b[i].Attrs {
				continue
			}
			if a[i].Attrs.NextHop != b[i].Attrs.NextHop ||
				a[i].Attrs.OriginatorID != b[i].Attrs.OriginatorID ||
				len(a[i].Attrs.ClusterList) != len(b[i].Attrs.ClusterList) ||
				len(a[i].Attrs.ASPath) != len(b[i].Attrs.ASPath) {
				return false
			}
			for j := range a[i].Attrs.ASPath {
				if a[i].Attrs.ASPath[j] != b[i].Attrs.ASPath[j] {
					return false
				}
			}
		}
	}
	return true
}
