package flowtable

import (
	"net/netip"
	"testing"

	"repro/internal/core"
)

func ft(src, dst string, sport, dport uint16) core.FiveTuple {
	return core.FiveTuple{
		Src:   netip.MustParseAddr(src),
		Dst:   netip.MustParseAddr(dst),
		Proto: core.ProtoUDP, SrcPort: sport, DstPort: dport,
	}
}

func out(p int) []Action { return []Action{{Type: ActionOutput, Port: core.PortID(p)}} }

func TestExactMatchLookup(t *testing.T) {
	tbl := New()
	f := ft("10.0.0.1", "10.0.1.1", 5000, 5001)
	tbl.Add(Entry{Priority: 100, Match: ExactMatch(1, f), Actions: out(2)}, 0)

	e, ok := tbl.Lookup(1, f)
	if !ok || e.Actions[0].Port != 2 {
		t.Fatalf("lookup = %v, %v", e, ok)
	}
	if _, ok := tbl.Lookup(2, f); ok {
		t.Fatal("matched on wrong ingress port")
	}
	other := f
	other.DstPort = 9
	if _, ok := tbl.Lookup(1, other); ok {
		t.Fatal("matched different 5-tuple")
	}
}

func TestPriorityOrder(t *testing.T) {
	tbl := New()
	f := ft("10.0.0.1", "10.0.1.1", 5000, 5001)
	tbl.Add(Entry{Priority: 10, Match: MatchAll(), Actions: out(1)}, 0)
	tbl.Add(Entry{Priority: 200, Match: ExactFlowMatch(f), Actions: out(2)}, 0)
	tbl.Add(Entry{Priority: 50, Match: DstPrefixMatch(netip.MustParsePrefix("10.0.1.0/24")), Actions: out(3)}, 0)

	e, _ := tbl.Lookup(1, f)
	if e.Actions[0].Port != 2 {
		t.Fatalf("high priority did not win: %v", e)
	}
	// A flow only matching the prefix rule.
	e, _ = tbl.Lookup(1, ft("10.0.0.9", "10.0.1.7", 1, 2))
	if e.Actions[0].Port != 3 {
		t.Fatalf("mid priority did not win: %v", e)
	}
	// A flow matching only the catch-all.
	e, _ = tbl.Lookup(1, ft("10.0.0.9", "10.9.9.9", 1, 2))
	if e.Actions[0].Port != 1 {
		t.Fatalf("catch-all did not match: %v", e)
	}
}

func TestSamePriorityInsertionOrderTiebreak(t *testing.T) {
	tbl := New()
	tbl.Add(Entry{Priority: 10, Match: DstPrefixMatch(netip.MustParsePrefix("10.0.0.0/8")), Actions: out(1)}, 0)
	tbl.Add(Entry{Priority: 10, Match: MatchAll(), Actions: out(2)}, 0)
	e, _ := tbl.Lookup(1, ft("10.0.0.1", "10.0.0.2", 1, 2))
	if e.Actions[0].Port != 1 {
		t.Fatalf("insertion-order tiebreak broken: %v", e)
	}
}

func TestAddReplacesSameMatchAndPriority(t *testing.T) {
	tbl := New()
	f := ft("10.0.0.1", "10.0.1.1", 5000, 5001)
	m := ExactFlowMatch(f)
	tbl.Add(Entry{Priority: 10, Match: m, Actions: out(1)}, 0)
	tbl.Add(Entry{Priority: 10, Match: m, Actions: out(7)}, 5)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	e, _ := tbl.Lookup(1, f)
	if e.Actions[0].Port != 7 {
		t.Fatal("replace did not take")
	}
	if e.InstalledAt != 5 {
		t.Fatalf("installed at %v, want 5: OpenFlow ADD starts the entry over", e.InstalledAt)
	}
}

func TestDeleteStrict(t *testing.T) {
	tbl := New()
	m := DstPrefixMatch(netip.MustParsePrefix("10.0.0.0/16"))
	tbl.Add(Entry{Priority: 10, Match: m, Actions: out(1)}, 0)
	tbl.Add(Entry{Priority: 20, Match: m, Actions: out(2)}, 0)
	removed := tbl.DeleteStrict(m, 10)
	if len(removed) != 1 || tbl.Len() != 1 {
		t.Fatalf("strict delete removed %d", len(removed))
	}
	if tbl.Entries()[0].Priority != 20 {
		t.Fatal("wrong entry removed")
	}
}

func TestSelectGroupAction(t *testing.T) {
	a := Action{Type: ActionSelectGroup, Group: []core.PortID{1, 2, 3}}
	if a.String() == "" {
		t.Fatal("empty action string")
	}
	for _, a := range []Action{{Type: ActionOutput, Port: 3}, {Type: ActionController}} {
		if a.String() == "" {
			t.Fatal("empty action string")
		}
	}
}

func TestMatchString(t *testing.T) {
	if MatchAll().String() != "any" {
		t.Fatalf("MatchAll = %q", MatchAll().String())
	}
	m := ExactMatch(3, ft("10.0.0.1", "10.0.1.1", 5, 6))
	for _, want := range []string{"in=p3", "src=10.0.0.1/32", "dport=6"} {
		if !contains(m.String(), want) {
			t.Errorf("match string %q missing %q", m.String(), want)
		}
	}
	tbl := New()
	tbl.Add(Entry{Priority: 1, Match: m, Actions: out(1)}, 0)
	if tbl.String() == "" {
		t.Error("empty table dump")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestLookupEmptyTable(t *testing.T) {
	tbl := New()
	if _, ok := tbl.Lookup(1, ft("10.0.0.1", "10.0.0.2", 1, 2)); ok {
		t.Fatal("empty table matched")
	}
}

func TestPrefixMatching(t *testing.T) {
	tbl := New()
	tbl.Add(Entry{Priority: 10, Match: Match{
		SrcBits: 24, Src: netip.MustParseAddr("10.1.2.0"),
	}, Actions: out(1)}, 0)
	if _, ok := tbl.Lookup(1, ft("10.1.2.200", "99.0.0.1", 1, 2)); !ok {
		t.Fatal("prefix src match missed")
	}
	if _, ok := tbl.Lookup(1, ft("10.1.3.200", "99.0.0.1", 1, 2)); ok {
		t.Fatal("prefix src matched outside subnet")
	}
}

func TestPrunePort(t *testing.T) {
	tb := New()
	ftA := ft("10.0.0.1", "10.0.0.2", 100, 200)
	ftB := ft("10.0.0.3", "10.0.0.4", 101, 201)
	tb.Add(Entry{Priority: 200, Match: ExactFlowMatch(ftA),
		Actions: []Action{{Type: ActionOutput, Port: 3}}}, 0)
	tb.Add(Entry{Priority: 200, Match: ExactFlowMatch(ftB),
		Actions: []Action{{Type: ActionOutput, Port: 4}}}, 0)
	tb.Add(Entry{Priority: 100, Match: DstPrefixMatch(netip.MustParsePrefix("10.0.0.2/32")),
		Actions: []Action{{Type: ActionSelectGroup, Group: []core.PortID{3, 4}}}}, 0)

	removed := tb.PrunePort(3)
	if len(removed) != 1 || !removed[0].Match.Equal(ExactFlowMatch(ftA)) {
		t.Fatalf("PrunePort removed %v", removed)
	}
	// The output entry to the dead port is gone: ftA now falls through to
	// the group entry (which deliberately keeps its dead member).
	e, ok := tb.Lookup(1, ftA)
	if !ok || e.Actions[0].Type != ActionSelectGroup {
		t.Fatalf("ftA lookup after prune = %+v ok=%v", e, ok)
	}
	if got := len(e.Actions[0].Group); got != 2 {
		t.Fatalf("group pruned to %d members; PORT_STATUS repair owns groups", got)
	}
	// ftB's entry (port 4) untouched.
	if e, ok := tb.Lookup(1, ftB); !ok || e.Actions[0].Port != 4 {
		t.Fatalf("ftB entry disturbed: %+v ok=%v", e, ok)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if removed := tb.PrunePort(9); len(removed) != 0 {
		t.Fatalf("PrunePort(9) removed %v", removed)
	}
}
