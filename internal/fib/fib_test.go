package fib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func nh(port int, via string) NextHop {
	return NextHop{Port: core.PortID(port), Via: netip.MustParseAddr(via)}
}

func TestInsertLookupExact(t *testing.T) {
	tbl := New()
	if err := tbl.Insert(netip.MustParsePrefix("10.0.1.0/24"), []NextHop{nh(1, "172.16.0.1")}); err != nil {
		t.Fatal(err)
	}
	r, ok := tbl.Lookup(netip.MustParseAddr("10.0.1.55"))
	if !ok {
		t.Fatal("lookup missed")
	}
	if r.Prefix != netip.MustParsePrefix("10.0.1.0/24") {
		t.Fatalf("matched %v", r.Prefix)
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("10.0.2.1")); ok {
		t.Fatal("lookup matched wrong prefix")
	}
}

func TestLongestPrefixWins(t *testing.T) {
	tbl := New()
	must(t, tbl.Insert(netip.MustParsePrefix("10.0.0.0/8"), []NextHop{nh(1, "172.16.0.1")}))
	must(t, tbl.Insert(netip.MustParsePrefix("10.1.0.0/16"), []NextHop{nh(2, "172.16.0.3")}))
	must(t, tbl.Insert(netip.MustParsePrefix("10.1.2.0/24"), []NextHop{nh(3, "172.16.0.5")}))

	cases := []struct {
		addr string
		port core.PortID
	}{
		{"10.9.9.9", 1},
		{"10.1.9.9", 2},
		{"10.1.2.9", 3},
	}
	for _, c := range cases {
		r, ok := tbl.Lookup(netip.MustParseAddr(c.addr))
		if !ok || r.NextHops[0].Port != c.port {
			t.Errorf("lookup(%s) = %v, want port %v", c.addr, r, c.port)
		}
	}
}

func TestDefaultRoute(t *testing.T) {
	tbl := New()
	must(t, tbl.Insert(netip.MustParsePrefix("0.0.0.0/0"), []NextHop{nh(9, "172.16.9.9")}))
	r, ok := tbl.Lookup(netip.MustParseAddr("203.0.113.7"))
	if !ok || r.NextHops[0].Port != 9 {
		t.Fatalf("default route lookup = %v, %v", r, ok)
	}
}

func TestHostRoute(t *testing.T) {
	tbl := New()
	must(t, tbl.Insert(netip.MustParsePrefix("10.0.0.5/32"), []NextHop{nh(4, "172.16.0.7")}))
	if _, ok := tbl.Lookup(netip.MustParseAddr("10.0.0.5")); !ok {
		t.Fatal("/32 missed")
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("10.0.0.6")); ok {
		t.Fatal("/32 matched neighbor address")
	}
}

func TestRemove(t *testing.T) {
	tbl := New()
	p := netip.MustParsePrefix("10.0.1.0/24")
	must(t, tbl.Insert(p, []NextHop{nh(1, "172.16.0.1")}))
	must(t, tbl.Insert(netip.MustParsePrefix("10.0.0.0/8"), []NextHop{nh(2, "172.16.0.3")}))
	if !tbl.Remove(p) {
		t.Fatal("Remove reported absent")
	}
	if tbl.Remove(p) {
		t.Fatal("double remove reported present")
	}
	// Falls back to the covering /8.
	r, ok := tbl.Lookup(netip.MustParseAddr("10.0.1.1"))
	if !ok || r.Prefix.Bits() != 8 {
		t.Fatalf("after remove, lookup = %v, %v", r, ok)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestInsertReplaces(t *testing.T) {
	tbl := New()
	p := netip.MustParsePrefix("10.0.1.0/24")
	must(t, tbl.Insert(p, []NextHop{nh(1, "172.16.0.1")}))
	must(t, tbl.Insert(p, []NextHop{nh(7, "172.16.0.9")}))
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", tbl.Len())
	}
	r, _ := tbl.Lookup(netip.MustParseAddr("10.0.1.1"))
	if r.NextHops[0].Port != 7 {
		t.Fatalf("replace did not take: %v", r)
	}
}

func TestInsertRejectsBadInput(t *testing.T) {
	tbl := New()
	if err := tbl.Insert(netip.MustParsePrefix("10.0.1.0/24"), nil); err == nil {
		t.Error("empty ECMP group accepted")
	}
	if err := tbl.Insert(netip.MustParsePrefix("2001:db8::/64"), []NextHop{nh(1, "172.16.0.1")}); err == nil {
		t.Error("IPv6 prefix accepted")
	}
	if _, ok := tbl.Lookup(netip.MustParseAddr("2001:db8::1")); ok {
		t.Error("IPv6 lookup matched")
	}
	if tbl.Remove(netip.MustParsePrefix("2001:db8::/64")) {
		t.Error("IPv6 remove reported present")
	}
	// netip.PrefixFrom keeps a length it cannot represent; the zero
	// Prefix is invalid too.
	for _, bad := range []netip.Prefix{netip.PrefixFrom(netip.MustParseAddr("10.0.1.0"), 33), {}} {
		if err := tbl.Insert(bad, []NextHop{nh(1, "172.16.0.1")}); err == nil {
			t.Errorf("invalid prefix %v accepted", bad)
		}
		if tbl.Remove(bad) {
			t.Errorf("remove of invalid prefix %v reported present", bad)
		}
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d after rejected inserts", tbl.Len())
	}
}

func TestECMPDeterministicOrder(t *testing.T) {
	// Installing the same group in different orders must produce the
	// same hash->next-hop mapping.
	a := New()
	b := New()
	p := netip.MustParsePrefix("10.0.0.0/24")
	g1 := []NextHop{nh(1, "172.16.0.1"), nh(2, "172.16.0.3"), nh(3, "172.16.0.5")}
	g2 := []NextHop{g1[2], g1[0], g1[1]}
	must(t, a.Insert(p, g1))
	must(t, b.Insert(p, g2))
	for h := uint32(0); h < 16; h++ {
		x, _ := a.LookupHash(netip.MustParseAddr("10.0.0.1"), h)
		y, _ := b.LookupHash(netip.MustParseAddr("10.0.0.1"), h)
		if x != y {
			t.Fatalf("hash %d: %v vs %v", h, x, y)
		}
	}
}

func TestLookupHashSpreads(t *testing.T) {
	tbl := New()
	group := []NextHop{nh(1, "172.16.0.1"), nh(2, "172.16.0.3"), nh(3, "172.16.0.5"), nh(4, "172.16.0.7")}
	must(t, tbl.Insert(netip.MustParsePrefix("10.0.0.0/8"), group))
	counts := map[core.PortID]int{}
	for h := uint32(0); h < 400; h++ {
		got, ok := tbl.LookupHash(netip.MustParseAddr("10.1.2.3"), h)
		if !ok {
			t.Fatal("miss")
		}
		counts[got.Port]++
	}
	for _, g := range group {
		if counts[g.Port] != 100 {
			t.Fatalf("uneven modulo spread: %v", counts)
		}
	}
	if _, ok := tbl.LookupHash(netip.MustParseAddr("11.0.0.1"), 0); ok {
		t.Fatal("LookupHash matched missing prefix")
	}
}

func TestRoutesSorted(t *testing.T) {
	tbl := New()
	must(t, tbl.Insert(netip.MustParsePrefix("10.2.0.0/16"), []NextHop{nh(1, "172.16.0.1")}))
	must(t, tbl.Insert(netip.MustParsePrefix("10.1.0.0/16"), []NextHop{nh(1, "172.16.0.1")}))
	must(t, tbl.Insert(netip.MustParsePrefix("10.1.0.0/24"), []NextHop{nh(1, "172.16.0.1")}))
	rs := tbl.Routes()
	if len(rs) != 3 {
		t.Fatalf("Routes len = %d", len(rs))
	}
	if rs[0].Prefix.String() != "10.1.0.0/16" || rs[1].Prefix.String() != "10.1.0.0/24" || rs[2].Prefix.String() != "10.2.0.0/16" {
		t.Fatalf("routes unsorted: %v", rs)
	}
	if tbl.String() == "" {
		t.Error("empty dump")
	}
}

func TestTrieAgainstLinearScanProperty(t *testing.T) {
	// Property test: the trie must agree with a brute-force longest
	// prefix match over a random rule set.
	type rule struct {
		p  netip.Prefix
		nh NextHop
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := New()
		var rules []rule
		for i := 0; i < 60; i++ {
			bits := rng.Intn(33)
			addr := core.IPv4FromUint32(rng.Uint32())
			p, err := addr.Prefix(bits)
			if err != nil {
				return false
			}
			r := rule{p: p, nh: nh(i%16+1, fmt.Sprintf("172.16.0.%d", i%250+1))}
			rules = append(rules, r)
			if err := tbl.Insert(p, []NextHop{r.nh}); err != nil {
				return false
			}
		}
		for i := 0; i < 300; i++ {
			addr := core.IPv4FromUint32(rng.Uint32())
			// Brute force: longest matching prefix; later-inserted wins
			// ties (Insert replaces).
			bestBits := -1
			var want NextHop
			for _, r := range rules {
				if r.p.Contains(addr) && r.p.Bits() >= bestBits {
					bestBits = r.p.Bits()
					want = r.nh
				}
			}
			got, ok := tbl.Lookup(addr)
			if bestBits == -1 {
				if ok {
					return false
				}
				continue
			}
			if !ok || got.NextHops[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrunePort(t *testing.T) {
	tb := New()
	p1 := netip.MustParsePrefix("10.0.1.0/24")
	p2 := netip.MustParsePrefix("10.0.2.0/24")
	p3 := netip.MustParsePrefix("10.0.3.0/24")
	if err := tb.Insert(p1, []NextHop{nh(1, "172.16.0.1"), nh(2, "172.16.0.3")}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(p2, []NextHop{nh(2, "172.16.0.3")}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(p3, []NextHop{nh(3, "172.16.0.5")}); err != nil {
		t.Fatal(err)
	}
	if got := tb.PrunePort(2); got != 2 {
		t.Fatalf("PrunePort touched %d routes, want 2", got)
	}
	// p1 lost one ECMP member but survives.
	r, ok := tb.Lookup(netip.MustParseAddr("10.0.1.9"))
	if !ok || len(r.NextHops) != 1 || r.NextHops[0].Port != 1 {
		t.Fatalf("p1 after prune = %+v ok=%v", r, ok)
	}
	// p2's only hop died: route withdrawn.
	if _, ok := tb.Lookup(netip.MustParseAddr("10.0.2.9")); ok {
		t.Fatal("p2 still resolvable after pruning its only next hop")
	}
	// p3 untouched.
	if _, ok := tb.Lookup(netip.MustParseAddr("10.0.3.9")); !ok {
		t.Fatal("p3 lost")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	// Pruning an unused port is a no-op.
	if got := tb.PrunePort(9); got != 0 {
		t.Fatalf("PrunePort(9) touched %d", got)
	}
}

// TestRemovePrunesEmptyBranches: a withdrawn route takes the nodes that led
// only to it along, so a table that held a full table and lost it is as
// small as a new one — while a route sharing the upper part of the branch
// keeps it, and the prefixes can come back.
func TestRemovePrunesEmptyBranches(t *testing.T) {
	const n = 10000
	nth := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24)
	}
	hop := []NextHop{nh(1, "172.16.0.1")}
	tbl := New()
	for i := 0; i < n; i++ {
		must(t, tbl.Insert(nth(i), hop))
	}
	cover := netip.MustParsePrefix("20.0.0.0/16")
	must(t, tbl.Insert(cover, []NextHop{nh(2, "172.16.0.3")}))
	for i := 0; i < n; i++ {
		if !tbl.Remove(nth(i)) {
			t.Fatalf("%v was not installed", nth(i))
		}
	}
	if r, ok := tbl.Lookup(netip.MustParseAddr("20.0.7.9")); !ok || r.Prefix != cover {
		t.Fatalf("lookup under the covering /16 = %v, %v", r, ok)
	}
	// What is left is the /16's own branch: one node per prefix bit.
	if nodes := tbl.trie.Nodes(); nodes != 1+cover.Bits() {
		t.Fatalf("%d nodes left beside the /16, want %d", nodes, 1+cover.Bits())
	}
	if !tbl.Remove(cover) || tbl.Len() != 0 {
		t.Fatalf("removing the /16: Len = %d", tbl.Len())
	}
	if nodes := tbl.trie.Nodes(); nodes != 1 {
		t.Fatalf("emptied table has %d nodes, want the root alone", nodes)
	}
	if tbl.Remove(cover) {
		t.Fatal("second remove of the /16 reported it present")
	}
	for i := 0; i < n; i += 97 {
		must(t, tbl.Insert(nth(i), hop))
		if r, ok := tbl.Lookup(nth(i).Addr()); !ok || r.Prefix != nth(i) {
			t.Fatalf("re-inserted %v: lookup = %v, %v", nth(i), r, ok)
		}
	}
	// PrunePort unlinks what it empties, too.
	if back, got := tbl.Len(), tbl.PrunePort(1); got != back || tbl.Len() != 0 {
		t.Fatalf("PrunePort touched %d of %d routes, Len = %d", got, back, tbl.Len())
	}
	if nodes := tbl.trie.Nodes(); nodes != 1 {
		t.Fatalf("%d nodes after PrunePort emptied the table, want the root alone", nodes)
	}
}
