package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

// randPrefix draws a random masked IPv4 prefix with length 8..32,
// biased toward the /16../24 range real tables live in.
func randPrefix(rng *rand.Rand) netip.Prefix {
	var length int
	switch rng.Intn(4) {
	case 0:
		length = 8 + rng.Intn(8)
	case 3:
		length = 25 + rng.Intn(8)
	default:
		length = 16 + rng.Intn(9)
	}
	addr := netip.AddrFrom4([4]byte{
		byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)),
	})
	p, _ := addr.Prefix(length)
	return p
}

// TestTrieLPMRespectsAcceptFilter: RIB.Lookup is the trie's longest
// match over prefixes that have a selection, not over every known one.
func TestTrieLPMRespectsAcceptFilter(t *testing.T) {
	r := NewRIB(false)
	r.UpdateAdjIn(addr("172.16.0.1"), pfx("10.0.0.0/8"), learned("172.16.0.1", "1.1.1.1", 1, 65001))
	r.UpdateAdjIn(addr("172.16.0.1"), pfx("10.1.0.0/16"), learned("172.16.0.1", "1.1.1.1", 1, 65001))
	r.Decide(pfx("10.0.0.0/8"))
	r.Decide(pfx("10.1.0.0/16"))
	if got := r.Lookup(addr("10.1.2.3")); len(got) != 1 || got[0].Port != 1 {
		t.Fatalf("Lookup = %v", got)
	}
	// Withdraw the /16: LPM falls back to the /8.
	r.UpdateAdjIn(addr("172.16.0.1"), pfx("10.1.0.0/16"), nil)
	r.Decide(pfx("10.1.0.0/16"))
	if got := r.Lookup(addr("10.1.2.3")); len(got) != 1 {
		t.Fatalf("Lookup after withdraw = %v", got)
	}
	if r.Lookup(addr("11.0.0.1")) != nil {
		t.Fatal("Lookup outside any prefix returned paths")
	}
	if r.Lookup(netip.MustParseAddr("::1")) != nil {
		t.Fatal("IPv6 lookup returned paths")
	}
}

func TestRIBInterningSharesAttrSets(t *testing.T) {
	r := NewRIB(false)
	peer := addr("172.16.0.1")
	a := PathAttrs{Origin: OriginIGP, ASPath: []uint16{65001}, NextHop: peer}
	h := r.Intern(a)
	if r.Intern(a) != h {
		t.Fatal("identical attrs interned to different handles")
	}
	for i := 0; i < 100; i++ {
		p := pfx(fmt.Sprintf("10.%d.0.0/24", i))
		r.UpdateAdjIn(peer, p, &Path{Attrs: h, PeerAddr: peer, PeerRouterID: addr("1.1.1.1"), Port: 1})
		r.Decide(p)
	}
	if got := r.AttrSets(); got != 1 {
		t.Fatalf("AttrSets = %d after 100 routes sharing attrs, want 1", got)
	}
	// Distinct attrs intern separately.
	b := a
	b.ASPath = []uint16{65002}
	if r.Intern(b) == h {
		t.Fatal("distinct attrs shared a handle")
	}
	// Dropping the peer releases every reference; the pool drains to
	// just the handle Intern created for b (zero refs, still pooled
	// until evicted) — releasing stored refs must evict a's entry.
	r.DropPeer(peer)
	if got := r.AttrSets(); got > 2 {
		t.Fatalf("AttrSets = %d after drop, want the pool drained", got)
	}
	if r.AttrSets() == 2 {
		// a's entry should be gone: re-interning must mint a new handle.
		if r.Intern(a) == h {
			t.Fatal("evicted handle resurrected")
		}
	}
}

// TestRIBShrinksWithItsTable: a RIB that learned a full table from one
// peer and lost the session is, once the decision process has run over
// the affected prefixes, as small as a new one — the speaker's
// peer-down path (DropPeer, then Decide each prefix) leaves no trie node
// behind, while a locally originated prefix keeps exactly its own branch.
func TestRIBShrinksWithItsTable(t *testing.T) {
	r := NewRIB(false)
	peer := addr("172.16.0.1")
	h := r.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{65001}, NextHop: peer})
	prefixes := scalePrefixes(10000)
	for _, p := range prefixes {
		r.UpdateAdjIn(peer, p, &Path{Attrs: h, PeerAddr: peer, PeerRouterID: addr("1.1.1.1"), Port: 1})
		r.Decide(p)
	}
	own := pfx("20.0.0.0/16")
	r.SetLocal(own, PathAttrs{Origin: OriginIGP})
	r.Decide(own)
	if got := len(r.Prefixes()); got != len(prefixes)+1 {
		t.Fatalf("Loc-RIB holds %d prefixes, want %d", got, len(prefixes)+1)
	}
	affected := r.DropPeer(peer)
	if !samePrefixes(affected, prefixes) {
		t.Fatalf("DropPeer returned %d prefixes, want the %d learned ones in order", len(affected), len(prefixes))
	}
	for _, p := range affected {
		if sel, changed := r.Decide(p); sel != nil || !changed {
			t.Fatalf("Decide(%v) after the drop = %v, changed %v", p, sel, changed)
		}
	}
	fresh := NewRIB(false)
	fresh.SetLocal(own, PathAttrs{Origin: OriginIGP})
	if got, want := r.trie.Nodes(), fresh.trie.Nodes(); got != want || r.trie.Len() != 1 {
		t.Fatalf("%d trie nodes and %d prefixes after the table left, want %d and 1", got, r.trie.Len(), want)
	}
	if got := r.Prefixes(); len(got) != 1 || got[0] != own {
		t.Fatalf("Loc-RIB after the drop = %v, want %v alone", got, own)
	}
}
