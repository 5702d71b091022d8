package bgp

import (
	"math/bits"
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

// pathID numbers a slot of a RIB's path table; 0 is no path.
type pathID uint32

// pathList is a list of paths as a RIB entry holds it, in one word: 0 is
// the empty list, a pathID the list of that one path, and a word with
// listBit set the block at offset l&^listBit in the RIB's list arena.
type pathList uint32

const listBit pathList = 1 << 31

// ribEntry is the per-prefix route state living at a trie node: the
// local origination, the Adj-RIB-In candidates (one per peer, kept
// sorted by peer address), and the current Loc-RIB selection. The
// decision process for a prefix touches only its entry — no global
// iteration, no per-call candidate re-sort.
//
// An entry holds no pointer, so the trie's value slab is 12 bytes a prefix
// that the collector never scans: a path is its number in the RIB's path
// table, and a list of two or more paths lies in the RIB's list arena.
// Most prefixes have one candidate, which is the selection, and a list of
// one is the path's number itself: a full table from one peer is entries
// in the slab and nothing else.
type ribEntry struct {
	local pathID
	// peers holds one path per advertising peer, ordered by PeerAddr.
	peers pathList
	// selected is the current Loc-RIB selection (empty = unreachable).
	selected pathList
}

// known reports whether any route (local or learned) exists here.
func (e *ribEntry) known() bool { return e.local != 0 || e.peers != 0 }

// pathTable numbers the paths a RIB stores. A slot holds the *Path a
// caller stored, so that pointer is the one Best returns, and counts the
// references entries hold to it (local, candidate, selection); it is
// freed at the last release. Consecutive stores of one Path share its
// slot — an UPDATE's NLRI, a speaker's local networks — so the table holds
// about one slot per UPDATE; a Path stored again after another takes a
// slot of its own. (Attribute sets are counted per local and candidate,
// not per slot: a dropped peer's sets leave the pool before its prefixes
// are decided.)
type pathTable struct {
	slots []pathSlot // slots[0] stays empty: pathID 0 is no path
	free  []pathID
	last  pathID // the slot retain filled or counted last
}

type pathSlot struct {
	p    *Path
	refs uint32
}

// retain adds a reference to p: to its slot if p was the last path
// retained, else to a new one.
func (t *pathTable) retain(p *Path) pathID {
	if s := &t.slots[t.last]; s.p == p {
		s.refs++
		return t.last
	}
	var id pathID
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
	} else {
		id = pathID(len(t.slots))
		t.slots = append(t.slots, pathSlot{})
	}
	t.slots[id] = pathSlot{p: p, refs: 1}
	t.last = id
	return id
}

// release drops a reference to id, freeing its slot at the last one.
func (t *pathTable) release(id pathID) {
	s := &t.slots[id]
	if s.refs--; s.refs > 0 {
		return
	}
	*s = pathSlot{}
	t.free = append(t.free, id)
}

// listArena holds every path list of two or more — the candidates of a
// prefix learned from several peers, an ECMP selection — in one
// pointer-free slice. A list of n lies in a block of the smallest power of
// two that holds n+1 words: its length, then its path numbers. A freed
// block waits on a list per block size, linked through its first word,
// for the next list of that size.
type listArena struct {
	words   []uint32   // words[0] is unused: offset 0 ends every free list
	free    [32]uint32 // free[c] is the first free block of 1<<c words
	scratch []pathID   // see ids
}

// sizeClass is the block size of a list of n ≥ 2 paths: 1<<sizeClass(n) ≥ n+1.
func sizeClass(n int) int { return bits.Len(uint(n)) }

func (a *listArena) len(l pathList) int {
	switch {
	case l == 0:
		return 0
	case l&listBit == 0:
		return 1
	}
	return int(a.words[l&^listBit])
}

// at is the i-th path of l.
func (a *listArena) at(l pathList, i int) pathID {
	if l&listBit == 0 {
		return pathID(l)
	}
	return pathID(a.words[int(l&^listBit)+1+i])
}

// set makes *l the list ids, which must not lie in the arena. A block
// whose size still fits is rewritten in place.
func (a *listArena) set(l *pathList, ids []pathID) {
	if *l&listBit != 0 {
		off := uint32(*l &^ listBit)
		c := sizeClass(int(a.words[off]))
		if len(ids) >= 2 && sizeClass(len(ids)) == c {
			a.fill(off, ids)
			return
		}
		a.words[off], a.free[c] = a.free[c], off
	}
	switch len(ids) {
	case 0:
		*l = 0
	case 1:
		*l = pathList(ids[0])
	default:
		c := sizeClass(len(ids))
		off := a.free[c]
		if off != 0 {
			a.free[c] = a.words[off]
		} else {
			off = uint32(len(a.words))
			a.words = append(a.words, make([]uint32, 1<<c)...)
		}
		a.fill(off, ids)
		*l = listBit | pathList(off)
	}
}

func (a *listArena) fill(off uint32, ids []pathID) {
	a.words[off] = uint32(len(ids))
	for i, id := range ids {
		a.words[int(off)+1+i] = uint32(id)
	}
}

// ids copies l into the arena's scratch, for insert, remove and replace to
// edit and set to store back.
func (a *listArena) ids(l pathList) []pathID {
	a.scratch = a.scratch[:0]
	for i := range a.len(l) {
		a.scratch = append(a.scratch, a.at(l, i))
	}
	return a.scratch
}

// insert puts id at position i of *l.
func (a *listArena) insert(l *pathList, i int, id pathID) {
	a.scratch = slices.Insert(a.ids(*l), i, id)
	a.set(l, a.scratch)
}

// remove deletes position i of *l and returns the path it held.
func (a *listArena) remove(l *pathList, i int) pathID {
	ids := a.ids(*l)
	id := ids[i]
	a.set(l, slices.Delete(ids, i, i+1))
	return id
}

// replace puts id at position i of *l and returns the path it held.
func (a *listArena) replace(l *pathList, i int, id pathID) pathID {
	ids := a.ids(*l)
	old := ids[i]
	ids[i] = id
	a.set(l, ids)
	return old
}

// RIB holds Adj-RIB-In entries and locally originated routes per prefix
// in the per-bit prefix trie the FIB also uses (internal/ptrie), and
// computes the Loc-RIB with optional ECMP multipath. The trie gives
// ordered walks (address, then length: sortPrefixes order, no sort
// pass), longest-prefix match, and a stable per-prefix entry the decision
// process recomputes incrementally. Attribute sets are interned in a
// refcounted pool shared by every path the RIB stores.
type RIB struct {
	trie  ptrie.Trie[ribEntry]
	pool  *attrPool
	paths pathTable
	lists listArena
	// view is the slice Decide, Best and Lookup return and eachSelected
	// visits with, refilled by each.
	view []*Path
	// Multipath enables ECMP: all paths tying through the comparison
	// are selected (the "bgp bestpath as-path multipath-relax"
	// behaviour, required for fat-tree ECMP across different peer ASes).
	Multipath bool
}

// NewRIB creates an empty RIB.
func NewRIB(multipath bool) *RIB {
	return &RIB{
		pool:      newAttrPool(),
		paths:     pathTable{slots: make([]pathSlot, 1)},
		lists:     listArena{words: make([]uint32, 1)},
		Multipath: multipath,
	}
}

func (r *RIB) path(id pathID) *Path { return r.paths.slots[id].p }

// candidate is the i-th of e's peer paths.
func (r *RIB) candidate(e *ribEntry, i int) *Path { return r.path(r.lists.at(e.peers, i)) }

// peerIndex is the position of peer's path in e.peers, or -1.
func (r *RIB) peerIndex(e *ribEntry, peer netip.Addr) int {
	for i := range r.lists.len(e.peers) {
		if r.candidate(e, i).PeerAddr == peer {
			return i
		}
	}
	return -1
}

// unstore drops a local or candidate reference to id.
func (r *RIB) unstore(id pathID) {
	releaseAttrs(r.path(id).Attrs)
	r.paths.release(id)
}

// best is the first path of e's selection, or nil.
func (r *RIB) best(e *ribEntry) *Path {
	if e.selected == 0 {
		return nil
	}
	return r.path(r.lists.at(e.selected, 0))
}

// viewOf fills r.view with l's paths and returns it, or nil for an empty
// list.
func (r *RIB) viewOf(l pathList) []*Path {
	n := r.lists.len(l)
	if n == 0 {
		return nil
	}
	r.view = r.view[:0]
	for i := range n {
		r.view = append(r.view, r.path(r.lists.at(l, i)))
	}
	return r.view
}

// Intern dedupes an attribute set against the RIB's pool. The speaker
// interns once per received UPDATE; every NLRI in the message then
// shares the one handle.
func (r *RIB) Intern(a PathAttrs) *AttrVal { return r.pool.intern(a) }

// AttrSets reports the number of distinct attribute sets currently
// interned — at full-table scale this stays orders of magnitude below
// the prefix count, which is the point.
func (r *RIB) AttrSets() int { return r.pool.len() }

// SetLocal originates a prefix locally. Every prefix originated with one
// attribute set shares one Path, the handle's.
func (r *RIB) SetLocal(p netip.Prefix, attrs PathAttrs) {
	e := r.trie.Insert(v4key(p))
	h := r.pool.intern(attrs)
	if h.local == nil {
		h.local = &Path{Attrs: h, Local: true}
	}
	retainAttrs(h)
	id := r.paths.retain(h.local)
	if e.local != 0 {
		r.unstore(e.local)
	}
	e.local = id
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
		i := r.peerIndex(e, peer)
		if i < 0 {
			return nil
		}
		r.unstore(r.lists.remove(&e.peers, i))
		return e
	}
	e := r.trie.Insert(addr, length)
	retainAttrs(path.Attrs)
	id := r.paths.retain(path)
	if i := r.peerIndex(e, peer); i >= 0 {
		r.unstore(r.lists.replace(&e.peers, i, id))
		return e
	}
	// Insert keeping peer-address order (the deterministic candidate
	// order the decision process depends on).
	n := r.lists.len(e.peers)
	at := n
	for i := range n {
		if peer.Compare(r.candidate(e, i).PeerAddr) < 0 {
			at = i
			break
		}
	}
	r.lists.insert(&e.peers, at, id)
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
		if r.peerIndex(e, peer) >= 0 {
			n++
		}
		return true
	})
	if n == 0 {
		return nil, nil
	}
	out, entries := make([]netip.Prefix, 0, n), make([]*ribEntry, 0, n)
	r.trie.Walk(func(addr uint32, length uint8, e *ribEntry) bool {
		if i := r.peerIndex(e, peer); i >= 0 {
			r.unstore(r.lists.remove(&e.peers, i))
			out, entries = append(out, keyPrefix(addr, length)), append(entries, e)
		}
		return true
	})
	return out, entries
}

// Decide recomputes the Loc-RIB selection for prefix and returns the new
// best-path set (nil if unreachable) plus whether it changed. The
// returned slice is the RIB's view buffer: it is valid until the next
// Decide, Best or Lookup on the RIB.
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
	// The selection is gathered on the stack; an ECMP set wider than
	// this spills to the heap for the length of the call.
	var buf [8]pathID
	sel := buf[:0]
	if e.known() {
		// Candidates in deterministic order: local first, then peers by
		// address (e.peers maintains that order).
		n := r.lists.len(e.peers)
		best := e.local
		for i := range n {
			if id := r.lists.at(e.peers, i); best == 0 || pathCompare(r.path(id), r.path(best)) < 0 {
				best = id
			}
		}
		bp := r.path(best)
		if e.local != 0 && (best == e.local || (r.Multipath && pathCompare(r.path(e.local), bp) == 0)) {
			sel = append(sel, e.local)
		}
		for i := range n {
			if id := r.lists.at(e.peers, i); id == best || (r.Multipath && pathCompare(r.path(id), bp) == 0) {
				sel = append(sel, id)
			}
		}
		r.sortTieBreak(sel)
		if !r.Multipath && len(sel) > 1 {
			sel = sel[:1]
		}
	}
	changed := !r.sameSelection(e.selected, sel)
	if changed {
		for _, id := range sel {
			r.paths.slots[id].refs++
		}
		for i := range r.lists.len(e.selected) {
			r.paths.release(r.lists.at(e.selected, i))
		}
		r.lists.set(&e.selected, sel)
	}
	if !e.known() {
		r.trie.Remove(v4key(prefix))
		return nil, changed
	}
	return r.viewOf(e.selected), changed
}

// sortTieBreak orders a (small) selection deterministically by tieBreak
// — insertion sort, so steady-state decides stay allocation free.
func (r *RIB) sortTieBreak(ids []pathID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && tieBreak(r.path(ids[j]), r.path(ids[j-1])); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// sameSelection reports whether the selection l and the candidate one sel
// agree path for path under samePath.
func (r *RIB) sameSelection(l pathList, sel []pathID) bool {
	if r.lists.len(l) != len(sel) {
		return false
	}
	for i, id := range sel {
		if old := r.lists.at(l, i); old != id && !samePath(r.path(old), r.path(id)) {
			return false
		}
	}
	return true
}

// Best returns the Loc-RIB selection for prefix, in the view buffer
// Decide returns.
func (r *RIB) Best(prefix netip.Prefix) []*Path {
	e := r.trie.Get(v4key(prefix))
	if e == nil {
		return nil
	}
	return r.viewOf(e.selected)
}

// Lookup is the longest-prefix-match query the trie exists for: the
// selection of the most specific reachable prefix containing addr, in the
// view buffer Decide returns.
func (r *RIB) Lookup(addr netip.Addr) []*Path {
	if !addr.Is4() {
		return nil
	}
	e, _ := r.trie.Longest(core.IPv4ToUint32(addr), func(e *ribEntry) bool { return e.selected != 0 })
	if e == nil {
		return nil
	}
	return r.viewOf(e.selected)
}

// eachSelected visits every prefix present in the Loc-RIB with its
// selection, in sorted order — the walk Prefixes makes, without the list
// and without a second descent per prefix to fetch the selection. The
// selection is the view buffer, good until visit returns.
func (r *RIB) eachSelected(visit func(netip.Prefix, []*Path)) {
	r.trie.Walk(func(addr uint32, length uint8, e *ribEntry) bool {
		if e.selected != 0 {
			visit(keyPrefix(addr, length), r.viewOf(e.selected))
		}
		return true
	})
}

// Prefixes returns every prefix present in the Loc-RIB, sorted (the
// trie walk is ordered; no sort pass needed).
func (r *RIB) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, r.trie.Len())
	r.trie.Walk(func(addr uint32, length uint8, e *ribEntry) bool {
		if e.selected != 0 {
			out = append(out, keyPrefix(addr, length))
		}
		return true
	})
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

// samePath reports whether two selected paths are alike to the FIB and to
// advertisements. Pointer comparison is too strict across re-decides: a
// peer re-announcing a route sends a new Path for it. Shared attribute
// handles compare in one pointer check.
func samePath(a, b *Path) bool {
	if a == b {
		return true
	}
	if a.PeerAddr != b.PeerAddr || a.Port != b.Port {
		return false
	}
	if a.Attrs == b.Attrs {
		return true
	}
	return a.Attrs.NextHop == b.Attrs.NextHop &&
		a.Attrs.OriginatorID == b.Attrs.OriginatorID &&
		len(a.Attrs.ClusterList) == len(b.Attrs.ClusterList) &&
		slices.Equal(a.Attrs.ASPath, b.Attrs.ASPath)
}
