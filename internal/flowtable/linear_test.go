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

// prefixEq reports whether a and b agree in their leading bits; a
// non-IPv4 address agrees with nothing unless bits is 0.
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

// Matches reports whether the five-tuple arriving on inPort satisfies m:
// the linear oracle's matcher (Table looks up by tuple-space keys).
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

// linearTable is the table as it was before the tuple-space index: one
// slice, scanned for every strict probe and lookup and re-sorted on every
// insert. It is the oracle TestIndexedTableMatchesLinear holds Table to.
type linearTable struct {
	entries []*Entry
	seq     uint64
}

func (t *linearTable) Add(e Entry, now core.Time) {
	e.InstalledAt = now
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
		g.one, w.one = [1]Action{}, [1]Action{} // storage; Actions compares the values
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
	}
	if port := core.PortID(1 + g.rng.Intn(4)); g.rng.Intn(3) == 0 {
		e.Actions = []Action{{Type: ActionSelectGroup, Group: []core.PortID{port, port + 1}}}
	} else {
		e.Actions = []Action{{Type: ActionOutput, Port: port}}
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
			case r < 30:
				e := g.entry()
				op = fmt.Sprintf("Add(%d %v)", e.Priority, e.Match)
				got.Add(e, now)
				want.Add(e, now)
			case r < 65:
				inPort, ft := core.PortID(1+g.rng.Intn(3)), g.tuple()
				op = fmt.Sprintf("Lookup(%v, %v)", inPort, ft)
				ge, gok := got.Lookup(inPort, ft)
				we, wok := want.Lookup(inPort, ft)
				if gok != wok {
					err = fmt.Errorf("found %v, want %v", gok, wok)
				} else if gok {
					err = sameEntries([]*Entry{ge}, []*Entry{we})
				}
			case r < 95:
				e := g.entry()
				if n := len(want.entries); n > 0 && g.rng.Intn(4) != 0 {
					e = *want.entries[g.rng.Intn(n)] // a hit, as the ECMP repair's are
				}
				op = fmt.Sprintf("DeleteStrict(%v, %d)", e.Match, e.Priority)
				err = sameEntries(got.DeleteStrict(e.Match, e.Priority), want.DeleteStrict(e.Match, e.Priority))
			default:
				port := core.PortID(1 + g.rng.Intn(5))
				op = fmt.Sprintf("PrunePort(%v)", port)
				err = sameEntries(got.PrunePort(port), want.PrunePort(port))
			}
			if err == nil {
				err = sameEntries(got.Entries(), want.entries)
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
		}
		// Emptying the table must empty the index with it.
		for _, e := range append([]*Entry(nil), got.Entries()...) {
			got.DeleteStrict(e.Match, e.Priority)
		}
		if got.Len() != 0 || len(got.bands) != 0 {
			t.Fatalf("seed %d: %d entries, %d bands after deleting everything", seed, got.Len(), len(got.bands))
		}
	}
}
