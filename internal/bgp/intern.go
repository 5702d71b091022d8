package bgp

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
)

// Attribute interning. Real full tables share a few thousand attribute
// sets across hundreds of thousands of routes, so Adj-RIB-In entries
// hold a refcounted handle into an attribute pool instead of a
// per-route PathAttrs copy — the same discipline the struct-of-arrays
// data plane applies to flow state. Interning collapses per-route
// allocation (one AttrVal per distinct attribute set, not per route)
// and makes the decision-process comparisons pointer-equality fast on
// the common path: two paths sharing a handle agree on every attribute
// field by construction.

// AttrVal is one interned attribute set. Path holds *AttrVal, and the
// embedded PathAttrs keeps every `path.Attrs.Field` access compiling
// unchanged. An AttrVal must never be mutated after interning — the
// whole point is that many paths share it.
type AttrVal struct {
	PathAttrs

	// pool is nil for unpooled handles (locally built attrs, tests);
	// retain/release are no-ops on those.
	pool *attrPool
	key  string
	refs int
	// local is the Path of every prefix a RIB originates with this set
	// (RIB.SetLocal).
	local *Path
}

// attrsOf wraps a PathAttrs value in an unpooled handle: no dedupe, no
// refcounting. Used for one-off paths (tests, parked scratch) where
// pooling buys nothing.
func attrsOf(a PathAttrs) *AttrVal { return &AttrVal{PathAttrs: a} }

// attrPool dedupes attribute sets by their canonical byte encoding.
// Refcounts exist only to bound the pool's size — Go's GC keeps evicted
// AttrVals alive for as long as any Path still points at them; eviction
// merely stops future dedupe against them.
type attrPool struct {
	m map[string]*AttrVal
	// key is intern's buffer for the key of the set it looks up.
	key []byte
}

func newAttrPool() *attrPool { return &attrPool{m: make(map[string]*AttrVal)} }

// intern returns the pooled handle for a, creating it with zero
// references if absent. Callers retain() once per stored Path. A hit
// allocates nothing: the key is built in the pool's buffer, and only a
// miss copies it into a string.
func (p *attrPool) intern(a PathAttrs) *AttrVal {
	p.key = appendAttrsKey(p.key[:0], a)
	if h := p.m[string(p.key)]; h != nil {
		return h
	}
	key := string(p.key)
	h := &AttrVal{PathAttrs: a, pool: p, key: key}
	p.m[key] = h
	return h
}

// len reports the number of live attribute sets in the pool.
func (p *attrPool) len() int { return len(p.m) }

// retain records one more Path holding h.
func retainAttrs(h *AttrVal) {
	if h != nil && h.pool != nil {
		h.refs++
	}
}

// release drops one reference; the pool entry is evicted at zero. The
// pool[key]==h guard keeps a stale release (of a handle already evicted
// and re-interned) from evicting its successor.
func releaseAttrs(h *AttrVal) {
	if h == nil || h.pool == nil {
		return
	}
	h.refs--
	if h.refs <= 0 && h.pool.m[h.key] == h {
		delete(h.pool.m, h.key)
	}
}

// appendAttrsKey appends the canonical key of an attribute set to dst: two
// sets share a key exactly when they go on the wire alike (a MED or a
// LOCAL_PREF counts only when present). In order: ORIGIN, NEXT_HOP, a
// LOCAL_PREF flag and value, ORIGINATOR_ID, the CLUSTER_LIST length (two
// bytes) and entries, a MED flag and value, and the AS path. An absent
// address reads as 0.0.0.0. Flushes order their UPDATEs by these bytes,
// which compareAttrs compares without building them.
func appendAttrsKey(dst []byte, a PathAttrs) []byte {
	dst = append(dst, a.Origin)
	dst = binary.BigEndian.AppendUint32(dst, addr4(a.NextHop))
	dst = appendOptional(dst, a.HasLP, a.LocalPref)
	dst = binary.BigEndian.AppendUint32(dst, addr4(a.OriginatorID))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.ClusterList)))
	for _, c := range a.ClusterList {
		dst = binary.BigEndian.AppendUint32(dst, addr4(c))
	}
	dst = appendOptional(dst, a.HasMED, a.MED)
	for _, asn := range a.ASPath {
		dst = binary.BigEndian.AppendUint16(dst, asn)
	}
	return dst
}

// appendOptional is the key of an optional 32-bit attribute: 0 when
// absent, 1 and the value when present.
func appendOptional(dst []byte, has bool, v uint32) []byte {
	if !has {
		return append(dst, 0)
	}
	return binary.BigEndian.AppendUint32(append(dst, 1), v)
}

// addr4 is an address as a key reads it: 0 unless IPv4.
func addr4(a netip.Addr) uint32 {
	if !a.Is4() {
		return 0
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// compareAttrs orders a and b exactly as bytes.Compare orders their
// appendAttrsKey keys (for cluster lists under 65536 entries), building
// neither.
func compareAttrs(a, b *PathAttrs) int {
	if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
		return c
	}
	if c := cmp.Compare(addr4(a.NextHop), addr4(b.NextHop)); c != 0 {
		return c
	}
	if c := compareOptional(a.HasLP, a.LocalPref, b.HasLP, b.LocalPref); c != 0 {
		return c
	}
	if c := cmp.Compare(addr4(a.OriginatorID), addr4(b.OriginatorID)); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.ClusterList), len(b.ClusterList)); c != 0 {
		return c
	}
	for i := range a.ClusterList {
		if c := cmp.Compare(addr4(a.ClusterList[i]), addr4(b.ClusterList[i])); c != 0 {
			return c
		}
	}
	if c := compareOptional(a.HasMED, a.MED, b.HasMED, b.MED); c != 0 {
		return c
	}
	return slices.Compare(a.ASPath, b.ASPath)
}

// compareOptional orders two appendOptional keys.
func compareOptional(hasA bool, a uint32, hasB bool, b uint32) int {
	switch {
	case hasA != hasB:
		if hasA {
			return 1
		}
		return -1
	case !hasA:
		return 0
	}
	return cmp.Compare(a, b)
}
