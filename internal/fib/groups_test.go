package fib

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
)

// slash24 is the i-th of a run of consecutive /24s: topo.FullTable's shape.
func slash24(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + i>>16), byte(i >> 8), byte(i), 0}), 24)
}

// liveGroups counts the pool's groups in use and checks each one's count
// against the routes that name it.
func liveGroups(t *testing.T, tb *Table) int {
	t.Helper()
	refs := make([]int, len(tb.groups))
	tb.trie.Walk(func(_ uint32, _ uint8, g *uint32) bool {
		refs[*g]++
		return true
	})
	live := 0
	for g, grp := range tb.groups {
		if grp.refs != refs[g] {
			t.Fatalf("group %d %v counts %d routes, the trie holds %d", g, grp.hops, grp.refs, refs[g])
		}
		if grp.refs > 0 {
			live++
		}
	}
	if live != len(tb.index) || live+len(tb.free)+1 != len(tb.groups) {
		t.Fatalf("%d live groups, %d indexed, %d free of %d slots", live, len(tb.index), len(tb.free), len(tb.groups)-1)
	}
	return live
}

// TestPrunePortOverSharedGroups: routes are numbers of shared groups, so
// pruning works on groups. A pruned group becomes one the pool already
// holds, an emptied one takes all its routes out, and when the routes are
// gone every count is back at zero and the slots are handed out again.
func TestPrunePortOverSharedGroups(t *testing.T) {
	tb := New()
	both := []NextHop{nh(1, "172.16.0.1"), nh(2, "172.16.0.3")}
	only1 := []NextHop{nh(1, "172.16.0.1")}
	only2 := []NextHop{nh(2, "172.16.0.3")}
	for i := 0; i < 30; i++ {
		must(t, tb.Insert(slash24(i), [][]NextHop{both, only1, only2}[i%3]))
	}
	if got := liveGroups(t, tb); got != 3 {
		t.Fatalf("30 routes over three groups hold %d", got)
	}
	if got := tb.PrunePort(2); got != 20 {
		t.Fatalf("PrunePort touched %d routes, want 20", got)
	}
	if got := liveGroups(t, tb); got != 1 || tb.Len() != 20 {
		t.Fatalf("after the prune: %d groups, %d routes; want one group (the pruned one collapsed into port 1's) and 20 routes", got, tb.Len())
	}
	for i := 0; i < 30; i++ {
		r, ok := tb.Lookup(slash24(i).Addr())
		if withdrawn := i%3 == 2; ok == withdrawn {
			t.Fatalf("route %d resolvable = %v after the prune", i, ok)
		} else if ok && (len(r.NextHops) != 1 || r.NextHops[0] != only1[0] || r.Prefix != slash24(i)) {
			t.Fatalf("route %d after the prune = %+v", i, r)
		}
	}
	slots := len(tb.groups)
	if got := tb.PrunePort(1); got != 20 || tb.Len() != 0 || liveGroups(t, tb) != 0 {
		t.Fatalf("pruning the last port touched %d, left %d routes", got, tb.Len())
	}
	must(t, tb.Insert(slash24(0), both))
	must(t, tb.Insert(slash24(1), only2))
	if liveGroups(t, tb) != 2 || len(tb.groups) != slots {
		t.Fatalf("two new groups took the pool from %d slots to %d", slots, len(tb.groups))
	}
}

// TestGroupsAreInternedInSortedForm: the same group in another order is
// the same group, a replace moves the route's count, and re-installing a
// route with the group it has leaves the pool as it was.
func TestGroupsAreInternedInSortedForm(t *testing.T) {
	tb := New()
	a, b := nh(1, "172.16.0.1"), nh(2, "172.16.0.3")
	must(t, tb.Insert(slash24(0), []NextHop{a, b}))
	must(t, tb.Insert(slash24(1), []NextHop{b, a}))
	must(t, tb.Insert(slash24(1), []NextHop{b, a}))
	if got := liveGroups(t, tb); got != 1 {
		t.Fatalf("one group installed twice, in two orders, is %d groups", got)
	}
	must(t, tb.Insert(slash24(0), []NextHop{b}))
	must(t, tb.Insert(slash24(1), []NextHop{b}))
	if got := liveGroups(t, tb); got != 1 {
		t.Fatalf("%d groups after both routes were replaced", got)
	}
	// The group the last Insert hit is remembered; it must be forgotten
	// when it leaves, or the next insert would name a dead slot.
	if !tb.Remove(slash24(0)) || !tb.Remove(slash24(1)) {
		t.Fatal("Remove reported an installed route absent")
	}
	must(t, tb.Insert(slash24(2), []NextHop{a}))
	if r, ok := tb.Lookup(slash24(2).Addr()); !ok || len(r.NextHops) != 1 || r.NextHops[0] != a {
		t.Fatalf("route installed after its predecessor's group left = %+v, %v", r, ok)
	}
	liveGroups(t, tb)
}

// TestLookupRebuildsTheMaskedPrefix: the prefix is stored nowhere but in
// the trie position, and what comes back is the masked form of what went
// in, at every length.
func TestLookupRebuildsTheMaskedPrefix(t *testing.T) {
	tb := New()
	hop := []NextHop{nh(1, "172.16.0.1")}
	for _, s := range []string{"0.0.0.0/0", "10.77.3.9/8", "10.1.2.77/24", "10.1.2.77/31", "10.1.2.80/32", "255.255.255.255/32"} {
		p := netip.MustParsePrefix(s)
		must(t, tb.Insert(p, hop))
		if r, ok := tb.Lookup(p.Addr()); !ok || r.Prefix != p.Masked() {
			t.Fatalf("Lookup(%v).Prefix = %v, want %v", p.Addr(), r.Prefix, p.Masked())
		}
	}
	want := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.2.0/24", "10.1.2.76/31", "10.1.2.80/32", "255.255.255.255/32"}
	for i, r := range tb.Routes() {
		if r.Prefix.String() != want[i] {
			t.Fatalf("Routes()[%d].Prefix = %v, want %v", i, r.Prefix, want[i])
		}
	}
}

// heapObjects is the live object count after a collection.
func heapObjects() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapObjects
}

// TestFullTableAllocatesPerTableNotPerRoute: a full table with one next
// hop is the node slice, a dozen value chunks and one group. (With a
// pointer-linked trie and a Route per prefix it was four objects a
// route.)
func TestFullTableAllocatesPerTableNotPerRoute(t *testing.T) {
	const n = 100_000
	hop := []NextHop{nh(1, "172.16.0.1")}
	tb := New()
	before := heapObjects()
	for i := 0; i < n; i++ {
		must(t, tb.Insert(slash24(i), hop))
	}
	added := int64(heapObjects()) - int64(before)
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	runtime.KeepAlive(tb)
	if added >= 100 {
		t.Fatalf("%d routes added %d heap objects, want fewer than 100", n, added)
	}
}

// BenchmarkFIBFullTable installs n consecutive /24s over two next-hop
// groups and reports what the table holds afterwards: B/prefix and
// objects/prefix are live heap, measured across a collection.
func BenchmarkFIBFullTable(b *testing.B) {
	for _, n := range []int{100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			groups := [][]NextHop{{nh(1, "172.16.0.1")}, {nh(1, "172.16.0.1"), nh(2, "172.16.0.3")}}
			var bytes, objects float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				tb := New()
				b.StartTimer()
				for j := 0; j < n; j++ {
					if err := tb.Insert(slash24(j), groups[j/1000%2]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&m1)
				bytes += float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
				objects += float64(m1.HeapObjects) - float64(m0.HeapObjects)
				runtime.KeepAlive(tb)
				b.StartTimer()
			}
			b.ReportMetric(bytes/float64(b.N)/float64(n), "B/prefix")
			b.ReportMetric(objects/float64(b.N)/float64(n), "objects/prefix")
		})
	}
}
