// Package flowtable implements the match/action table of simulated
// OpenFlow switches: priority-ordered wildcard matching over the IPv4
// five-tuple plus ingress port, with OpenFlow 1.0 add/modify/delete
// semantics, idle/hard timeouts and per-entry byte/packet counters.
//
// The emulated SDN controller programs these tables with real FLOW_MOD
// messages decoded by the switch agent (internal/openflow) and applied via
// the Connection Manager, mirroring the original Horse architecture.
package flowtable

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/core"
)

// Match is a wildcardable predicate over ingress port and five-tuple.
// Source and destination addresses match by prefix length (0 = fully
// wildcarded, 32 = exact), mirroring OpenFlow 1.0's NW_SRC/NW_DST
// wildcard counts.
type Match struct {
	HasInPort bool
	InPort    core.PortID

	HasProto bool
	Proto    core.Proto

	SrcBits int // 0..32 significant bits of Src
	Src     netip.Addr

	DstBits int
	Dst     netip.Addr

	HasTpSrc bool
	TpSrc    uint16

	HasTpDst bool
	TpDst    uint16
}

// MatchAll is the fully wildcarded match.
func MatchAll() Match { return Match{} }

// ExactMatch matches exactly the given five-tuple arriving on inPort.
func ExactMatch(inPort core.PortID, ft core.FiveTuple) Match {
	return Match{
		HasInPort: true, InPort: inPort,
		HasProto: true, Proto: ft.Proto,
		SrcBits: 32, Src: ft.Src,
		DstBits: 32, Dst: ft.Dst,
		HasTpSrc: true, TpSrc: ft.SrcPort,
		HasTpDst: true, TpDst: ft.DstPort,
	}
}

// ExactFlowMatch matches the five-tuple on any ingress port.
func ExactFlowMatch(ft core.FiveTuple) Match {
	m := ExactMatch(core.PortNone, ft)
	m.HasInPort = false
	m.InPort = core.PortNone
	return m
}

// DstPrefixMatch matches by destination prefix only (routing-style rule).
func DstPrefixMatch(p netip.Prefix) Match {
	return Match{DstBits: p.Bits(), Dst: p.Masked().Addr()}
}

func prefixEq(a netip.Addr, b netip.Addr, bits int) bool {
	if bits == 0 {
		return true
	}
	if !a.Is4() || !b.Is4() {
		return false
	}
	av := core.IPv4ToUint32(a)
	bv := core.IPv4ToUint32(b)
	shift := 32 - bits
	return av>>shift == bv>>shift
}

// Matches reports whether the five-tuple arriving on inPort satisfies m.
func (m Match) Matches(inPort core.PortID, ft core.FiveTuple) bool {
	if m.HasInPort && m.InPort != inPort {
		return false
	}
	if m.HasProto && m.Proto != ft.Proto {
		return false
	}
	if !prefixEq(m.Src, ft.Src, m.SrcBits) {
		return false
	}
	if !prefixEq(m.Dst, ft.Dst, m.DstBits) {
		return false
	}
	if m.HasTpSrc && m.TpSrc != ft.SrcPort {
		return false
	}
	if m.HasTpDst && m.TpDst != ft.DstPort {
		return false
	}
	return true
}

// Covers reports whether m's match set is a superset of o's: every packet
// o matches, m matches too. Used for OpenFlow non-strict delete.
func (m Match) Covers(o Match) bool {
	if m.HasInPort && (!o.HasInPort || m.InPort != o.InPort) {
		return false
	}
	if m.HasProto && (!o.HasProto || m.Proto != o.Proto) {
		return false
	}
	if m.SrcBits > o.SrcBits || (m.SrcBits > 0 && !prefixEq(m.Src, o.Src, m.SrcBits)) {
		return false
	}
	if m.DstBits > o.DstBits || (m.DstBits > 0 && !prefixEq(m.Dst, o.Dst, m.DstBits)) {
		return false
	}
	if m.HasTpSrc && (!o.HasTpSrc || m.TpSrc != o.TpSrc) {
		return false
	}
	if m.HasTpDst && (!o.HasTpDst || m.TpDst != o.TpDst) {
		return false
	}
	return true
}

// Equal reports field-wise equality (strict OpenFlow semantics).
func (m Match) Equal(o Match) bool { return m == o }

func (m Match) String() string {
	var parts []string
	if m.HasInPort {
		parts = append(parts, fmt.Sprintf("in=%v", m.InPort))
	}
	if m.HasProto {
		parts = append(parts, m.Proto.String())
	}
	if m.SrcBits > 0 {
		parts = append(parts, fmt.Sprintf("src=%v/%d", m.Src, m.SrcBits))
	}
	if m.DstBits > 0 {
		parts = append(parts, fmt.Sprintf("dst=%v/%d", m.Dst, m.DstBits))
	}
	if m.HasTpSrc {
		parts = append(parts, fmt.Sprintf("sport=%d", m.TpSrc))
	}
	if m.HasTpDst {
		parts = append(parts, fmt.Sprintf("dport=%d", m.TpDst))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

// ActionType enumerates forwarding actions.
type ActionType int

const (
	// ActionOutput forwards out a specific port.
	ActionOutput ActionType = iota
	// ActionController punts the flow to the controller (PACKET_IN).
	ActionController
	// ActionDrop discards the flow.
	ActionDrop
	// ActionSelectGroup hashes the five-tuple over a port group
	// (OpenFlow 1.3-style select group; Horse's SDN ECMP uses this for
	// proactive 5-tuple hashing).
	ActionSelectGroup
)

// Action is one forwarding action.
type Action struct {
	Type  ActionType
	Port  core.PortID   // ActionOutput
	Group []core.PortID // ActionSelectGroup members, sorted by caller
}

func (a Action) String() string {
	switch a.Type {
	case ActionOutput:
		return fmt.Sprintf("output:%v", a.Port)
	case ActionController:
		return "controller"
	case ActionDrop:
		return "drop"
	case ActionSelectGroup:
		return fmt.Sprintf("group:%v", a.Group)
	default:
		return fmt.Sprintf("action%d", int(a.Type))
	}
}

// Entry is one flow table entry.
type Entry struct {
	Priority uint16
	Match    Match
	Actions  []Action
	Cookie   uint64

	IdleTimeout core.Time // 0 = no idle expiry
	HardTimeout core.Time // 0 = no hard expiry
	InstalledAt core.Time
	LastUsed    core.Time

	Packets uint64
	Bytes   uint64

	seq  uint64 // insertion order tiebreak
	next *Entry // the table's index chain, see band
}

// Expired reports whether the entry has timed out at virtual time now.
func (e *Entry) Expired(now core.Time) bool {
	if e.HardTimeout > 0 && now-e.InstalledAt >= e.HardTimeout {
		return true
	}
	if e.IdleTimeout > 0 && now-e.LastUsed >= e.IdleTimeout {
		return true
	}
	return false
}

// Table is a single OpenFlow-style flow table. Not safe for concurrent
// use; all access happens on the simulation engine goroutine.
type Table struct {
	// entries is the table in match order: priority descending, then
	// insertion order. Entries, String, flow statistics and the
	// non-strict, prune and expiry filters walk it.
	entries []*Entry
	seq     uint64

	// bands is a tuple-space index over the same entries for Lookup and
	// the strict probes of Add and DeleteStrict: one hash map per
	// (priority, wildcard shape), priority descending. A table holds as
	// many bands as its rules have shapes — two for the controller apps
	// (dst/32 at 100, exact five-tuple at 200).
	bands []*band
}

// shape is what a match compares — which fields, how many address bits —
// together with the entry's priority. Entries of one shape differ only in
// the values compared, so a hash map over those values finds them.
type shape struct {
	priority                                uint16
	hasInPort, hasProto, hasTpSrc, hasTpDst bool
	srcBits, dstBits                        int
}

func shapeOf(priority uint16, m Match) shape {
	return shape{
		priority:  priority,
		hasInPort: m.HasInPort, hasProto: m.HasProto, hasTpSrc: m.HasTpSrc, hasTpDst: m.HasTpDst,
		srcBits: m.SrcBits, dstBits: m.DstBits,
	}
}

// key holds the fields a shape compares, masked; the others stay zero.
type key struct {
	src, dst     uint32
	inPort       core.PortID
	tpSrc, tpDst uint16
	proto        core.Proto
	// unmatchable marks a match that compares a non-IPv4 address, which
	// no packet satisfies (see prefixEq): it is indexed for the strict
	// probes under a key no packet produces.
	unmatchable bool
}

// packetKey reduces a packet to the fields s compares. ok is false when
// no match of this shape can select the packet.
func (s shape) packetKey(inPort core.PortID, ft core.FiveTuple) (k key, ok bool) {
	if k.src, ok = maskAddr(ft.Src, s.srcBits); !ok {
		return key{}, false
	}
	if k.dst, ok = maskAddr(ft.Dst, s.dstBits); !ok {
		return key{}, false
	}
	if s.hasInPort {
		k.inPort = inPort
	}
	if s.hasProto {
		k.proto = ft.Proto
	}
	if s.hasTpSrc {
		k.tpSrc = ft.SrcPort
	}
	if s.hasTpDst {
		k.tpDst = ft.DstPort
	}
	return k, true
}

// matchKey is the key of the packets m selects; s is m's shape.
func (s shape) matchKey(m Match) key {
	k, ok := s.packetKey(m.InPort, core.FiveTuple{Src: m.Src, Dst: m.Dst, Proto: m.Proto, SrcPort: m.TpSrc, DstPort: m.TpDst})
	if !ok {
		return key{unmatchable: true}
	}
	return k
}

// maskAddr keeps the leading bits of an IPv4 address, as prefixEq
// compares them.
func maskAddr(a netip.Addr, bits int) (uint32, bool) {
	if bits == 0 {
		return 0, true
	}
	if !a.Is4() {
		return 0, false
	}
	shift := 32 - bits
	return core.IPv4ToUint32(a) >> shift << shift, true
}

// band indexes the entries of one shape. Entries under one key select
// the same packets (their matches may still differ in masked-out bits,
// so they are distinct to Match.Equal): the map holds the oldest, the
// only one Lookup can ever return, and the others follow it in insertion
// order through Entry.next.
type band struct {
	shape shape
	m     map[key]*Entry
}

// link makes e follow prev in k's chain, or head it when prev is nil.
func (b *band) link(k key, prev, e *Entry) {
	if prev == nil {
		b.m[k] = e
	} else {
		prev.next = e
	}
}

// New returns an empty table. What a miss does is the data plane's
// business: netmodel punts it to the controller, as OpenFlow 1.0 does.
func New() *Table { return &Table{} }

// Len reports the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// bandOf finds the band of shape s, or the position it would take in
// t.bands.
func (t *Table) bandOf(s shape) (int, bool) {
	i := sort.Search(len(t.bands), func(i int) bool { return t.bands[i].shape.priority <= s.priority })
	for ; i < len(t.bands) && t.bands[i].shape.priority == s.priority; i++ {
		if t.bands[i].shape == s {
			return i, true
		}
	}
	return i, false
}

// position finds e's index in t.entries.
func (t *Table) position(e *Entry) int {
	return sort.Search(len(t.entries), func(i int) bool {
		x := t.entries[i]
		return x.Priority < e.Priority || (x.Priority == e.Priority && x.seq >= e.seq)
	})
}

// find returns the entry with exactly this match and priority.
func (t *Table) find(m Match, priority uint16) *Entry {
	s := shapeOf(priority, m)
	if i, ok := t.bandOf(s); ok {
		for e := t.bands[i].m[s.matchKey(m)]; e != nil; e = e.next {
			if e.Match.Equal(m) {
				return e
			}
		}
	}
	return nil
}

// unindex drops e from its band, and the band once it is empty.
func (t *Table) unindex(e *Entry) {
	s := shapeOf(e.Priority, e.Match)
	i, _ := t.bandOf(s)
	b, k := t.bands[i], s.matchKey(e.Match)
	var prev *Entry
	for x := b.m[k]; x != e; x = x.next {
		prev = x
	}
	if prev != nil || e.next != nil {
		b.link(k, prev, e.next)
		e.next = nil
		return
	}
	delete(b.m, k)
	if len(b.m) == 0 {
		t.bands = append(t.bands[:i], t.bands[i+1:]...)
	}
}

// Add installs e at virtual time now. Per OpenFlow ADD semantics an entry
// with identical match and priority is replaced (counters reset).
func (t *Table) Add(e Entry, now core.Time) {
	e.InstalledAt = now
	e.LastUsed = now
	s := shapeOf(e.Priority, e.Match)
	k := s.matchKey(e.Match)
	i, ok := t.bandOf(s)
	if !ok {
		t.bands = append(t.bands, nil)
		copy(t.bands[i+1:], t.bands[i:])
		t.bands[i] = &band{shape: s, m: make(map[key]*Entry)}
	}
	b := t.bands[i]
	var prev *Entry
	for old := b.m[k]; old != nil; old = old.next {
		if old.Match.Equal(e.Match) {
			e.seq, e.next = old.seq, old.next
			t.entries[t.position(old)] = &e
			b.link(k, prev, &e)
			return
		}
		prev = old
	}
	t.seq++
	e.seq, e.next = t.seq, nil
	b.link(k, prev, &e)
	// The newest entry of its priority goes after all the others.
	at := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Priority < e.Priority })
	t.entries = append(t.entries, nil)
	copy(t.entries[at+1:], t.entries[at:])
	t.entries[at] = &e
}

// Modify updates the actions of all entries covered by match (non-strict
// OpenFlow MODIFY), preserving counters. It reports how many entries were
// changed; if none and addIfAbsent is set, the entry is added.
func (t *Table) Modify(e Entry, now core.Time, addIfAbsent bool) int {
	n := 0
	for _, old := range t.entries {
		if e.Match.Covers(old.Match) {
			old.Actions = e.Actions
			old.Cookie = e.Cookie
			n++
		}
	}
	if n == 0 && addIfAbsent {
		t.Add(e, now)
	}
	return n
}

// DeleteStrict removes the entry with exactly this match and priority.
func (t *Table) DeleteStrict(m Match, priority uint16) []*Entry {
	e := t.find(m, priority)
	if e == nil {
		return nil
	}
	at := t.position(e)
	t.entries = append(t.entries[:at], t.entries[at+1:]...)
	t.unindex(e)
	return []*Entry{e}
}

// removeIf removes and returns, in match order, the entries drop selects.
func (t *Table) removeIf(drop func(*Entry) bool) []*Entry {
	var removed []*Entry
	kept := t.entries[:0]
	for _, e := range t.entries {
		if drop(e) {
			removed = append(removed, e)
			t.unindex(e)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	return removed
}

// Delete removes all entries covered by m (non-strict semantics).
func (t *Table) Delete(m Match) []*Entry {
	return t.removeIf(func(e *Entry) bool { return m.Covers(e.Match) })
}

// Lookup returns the highest-priority entry matching the five-tuple on
// inPort. Ties are broken by insertion order (older first), which is
// deterministic.
func (t *Table) Lookup(inPort core.PortID, ft core.FiveTuple) (*Entry, bool) {
	var best *Entry
	for _, b := range t.bands {
		if best != nil && b.shape.priority != best.Priority {
			break // the lower priorities cannot win any more
		}
		k, ok := b.shape.packetKey(inPort, ft)
		if !ok {
			continue
		}
		if e := b.m[k]; e != nil && (best == nil || e.seq < best.seq) {
			best = e
		}
	}
	return best, best != nil
}

// PrunePort removes entries whose forwarding output is the given port,
// modelling the interface-down invalidation the data plane performs when
// a link dies: exact/output rules into a dead port can never forward
// again and their flows must re-punt to the controller for repair.
// Select-group entries are left intact — the hash keeps picking the dead
// member and blackholing deterministically until the controller
// reinstalls the group (the PORT_STATUS repair path), which is the
// OpenFlow 1.0 behaviour Horse emulates. The removed entries are returned.
func (t *Table) PrunePort(port core.PortID) []*Entry {
	return t.removeIf(func(e *Entry) bool {
		for _, a := range e.Actions {
			if a.Type == ActionOutput && a.Port == port {
				return true
			}
		}
		return false
	})
}

// ExpireDue removes and returns all entries expired at now.
func (t *Table) ExpireDue(now core.Time) []*Entry {
	return t.removeIf(func(e *Entry) bool { return e.Expired(now) })
}

// Entries returns the entries in match order (priority desc, then
// insertion order). The returned slice is the table's own; callers must
// not mutate it.
func (t *Table) Entries() []*Entry { return t.entries }

// String dumps the table for debugging.
func (t *Table) String() string {
	var b strings.Builder
	for _, e := range t.entries {
		fmt.Fprintf(&b, "prio=%d %v ->", e.Priority, e.Match)
		for _, a := range e.Actions {
			fmt.Fprintf(&b, " %v", a)
		}
		fmt.Fprintf(&b, " (bytes=%d)\n", e.Bytes)
	}
	return b.String()
}
