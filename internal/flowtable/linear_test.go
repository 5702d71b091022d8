package flowtable

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// linearTable is the table as it was before the tuple-space index: one
// slice, scanned for every strict probe and lookup and re-sorted on every
// insert. It is the oracle TestIndexedTableMatchesLinear holds Table to.
type linearTable struct {
	entries []*Entry
	seq     uint64
}

func (t *linearTable) Add(e Entry, now core.Time) {
	e.InstalledAt = now
	e.LastUsed = now
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match.Equal(e.Match) {
			e.seq = old.seq
			t.entries[i] = &e
			return
		}
	}
	t.seq++
	e.seq = t.seq
	t.entries = append(t.entries, &e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		if t.entries[i].Priority != t.entries[j].Priority {
			return t.entries[i].Priority > t.entries[j].Priority
		}
		return t.entries[i].seq < t.entries[j].seq
	})
}

func (t *linearTable) Modify(e Entry, now core.Time, addIfAbsent bool) int {
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

func (t *linearTable) removeIf(drop func(*Entry) bool) []*Entry {
	var removed []*Entry
	kept := t.entries[:0]
	for _, e := range t.entries {
		if drop(e) {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	return removed
}

func (t *linearTable) DeleteStrict(m Match, priority uint16) []*Entry {
	return t.removeIf(func(e *Entry) bool { return e.Priority == priority && e.Match.Equal(m) })
}

func (t *linearTable) Delete(m Match) []*Entry {
	return t.removeIf(func(e *Entry) bool { return m.Covers(e.Match) })
}

func (t *linearTable) PrunePort(port core.PortID) []*Entry {
	return t.removeIf(func(e *Entry) bool {
		for _, a := range e.Actions {
			if a.Type == ActionOutput && a.Port == port {
				return true
			}
		}
		return false
	})
}

func (t *linearTable) ExpireDue(now core.Time) []*Entry {
	return t.removeIf(func(e *Entry) bool { return e.Expired(now) })
}

func (t *linearTable) Lookup(inPort core.PortID, ft core.FiveTuple) (*Entry, bool) {
	for _, e := range t.entries {
		if e.Match.Matches(inPort, ft) {
			return e, true
		}
	}
	return nil, false
}

// sameEntries reports the first difference between two entry lists: the
// tables never share *Entry values, so entries are the same when every
// field, seq included, agrees — all but the index chain, which only the
// indexed table has.
func sameEntries(got, want []*Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := *got[i], *want[i]
		g.next, w.next = nil, nil
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// diffGen draws matches, entries and packets from a small value space, so
// that replacements, overlaps between shapes and hits are all frequent.
type diffGen struct{ rng *rand.Rand }

func (g diffGen) addr() netip.Addr {
	return core.IPv4FromUint32(0x0A000000 | uint32(g.rng.Intn(3))<<8 | uint32(g.rng.Intn(6)))
}

func (g diffGen) tuple() core.FiveTuple {
	ft := core.FiveTuple{Src: g.addr(), Dst: g.addr(), Proto: core.ProtoUDP,
		SrcPort: uint16(1000 + g.rng.Intn(2)), DstPort: uint16(2000 + g.rng.Intn(2))}
	switch g.rng.Intn(20) {
	case 0:
		ft.Proto = core.ProtoTCP
	case 1:
		ft.Src = netip.Addr{} // only rules that wildcard the source can match
	}
	return ft
}

func (g diffGen) match() Match {
	ft := g.tuple()
	switch g.rng.Intn(11) {
	case 0, 1: // ecmp5's shape
		return Match{DstBits: 32, Dst: ft.Dst}
	case 2, 3: // the reactive apps' shape
		return ExactFlowMatch(ft)
	case 4:
		return ExactMatch(core.PortID(1+g.rng.Intn(3)), ft)
	case 5:
		return Match{HasProto: true, Proto: ft.Proto}
	case 6:
		return DstPrefixMatch(netip.PrefixFrom(ft.Dst, 24))
	case 7: // host bits left set: equal packets, unequal to the masked /24
		return Match{DstBits: 24, Dst: ft.Dst}
	case 8:
		return Match{HasInPort: true, InPort: core.PortID(1 + g.rng.Intn(3)), SrcBits: 24, Src: ft.Src, DstBits: 32, Dst: ft.Dst}
	case 9:
		return MatchAll()
	default: // an address no packet carries
		return Match{DstBits: 32, Dst: netip.MustParseAddr("2001:db8::1"), HasTpDst: true, TpDst: ft.DstPort}
	}
}

func (g diffGen) entry() Entry {
	e := Entry{
		Priority: []uint16{10, 100, 100, 100, 200, 200, 300}[g.rng.Intn(7)],
		Match:    g.match(),
		Cookie:   uint64(g.rng.Intn(1000)),
	}
	if port := core.PortID(1 + g.rng.Intn(4)); g.rng.Intn(3) == 0 {
		e.Actions = []Action{{Type: ActionSelectGroup, Group: []core.PortID{port, port + 1}}}
	} else {
		e.Actions = []Action{{Type: ActionOutput, Port: port}}
	}
	switch g.rng.Intn(6) {
	case 0:
		e.IdleTimeout = core.Time(1+g.rng.Intn(20)) * core.Millisecond
	case 1:
		e.HardTimeout = core.Time(1+g.rng.Intn(40)) * core.Millisecond
	}
	return e
}

// TestIndexedTableMatchesLinear drives the indexed table and the linear
// oracle with the same seeded operation sequences and requires the same
// answer from every call and the same table after every step.
func TestIndexedTableMatchesLinear(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := diffGen{rand.New(rand.NewSource(seed))}
		got, want := New(), &linearTable{}
		var now core.Time
		for step := 0; step < 2500; step++ {
			now += core.Time(g.rng.Intn(3)) * core.Millisecond
			var op string
			var err error
			switch r := g.rng.Intn(100); {
			case r < 35:
				e := g.entry()
				op = fmt.Sprintf("Add(%d %v)", e.Priority, e.Match)
				got.Add(e, now)
				want.Add(e, now)
			case r < 70:
				inPort, ft := core.PortID(1+g.rng.Intn(3)), g.tuple()
				op = fmt.Sprintf("Lookup(%v, %v)", inPort, ft)
				ge, gok := got.Lookup(inPort, ft)
				we, wok := want.Lookup(inPort, ft)
				if gok != wok {
					err = fmt.Errorf("found %v, want %v", gok, wok)
				} else if gok {
					err = sameEntries([]*Entry{ge}, []*Entry{we})
					ge.LastUsed, we.LastUsed = now, now // as the data plane does on a hit
				}
			case r < 75:
				e := g.entry()
				add := g.rng.Intn(2) == 0
				op = fmt.Sprintf("Modify(%v, %v)", e.Match, add)
				if gn, wn := got.Modify(e, now, add), want.Modify(e, now, add); gn != wn {
					err = fmt.Errorf("modified %d, want %d", gn, wn)
				}
			case r < 80:
				m := g.match()
				op = fmt.Sprintf("Delete(%v)", m)
				err = sameEntries(got.Delete(m), want.Delete(m))
			case r < 92:
				e := g.entry()
				op = fmt.Sprintf("DeleteStrict(%v, %d)", e.Match, e.Priority)
				err = sameEntries(got.DeleteStrict(e.Match, e.Priority), want.DeleteStrict(e.Match, e.Priority))
			case r < 96:
				port := core.PortID(1 + g.rng.Intn(5))
				op = fmt.Sprintf("PrunePort(%v)", port)
				err = sameEntries(got.PrunePort(port), want.PrunePort(port))
			default:
				op = fmt.Sprintf("ExpireDue(%v)", now)
				err = sameEntries(got.ExpireDue(now), want.ExpireDue(now))
			}
			if err == nil {
				err = sameEntries(got.Entries(), want.entries)
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
		}
		// Emptying the table must empty the index with it.
		got.Delete(MatchAll())
		if got.Len() != 0 || len(got.bands) != 0 {
			t.Fatalf("seed %d: %d entries, %d bands after deleting everything", seed, got.Len(), len(got.bands))
		}
	}
}
