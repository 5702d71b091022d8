package ptrie

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// key is a masked prefix: what the tests' reference maps are keyed by.
type key struct {
	addr   uint32
	length uint8
}

func mask(length uint8) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

func mkKey(addr uint32, length uint8) key { return key{addr & mask(length), length} }

func (k key) contains(addr uint32) bool { return addr&mask(k.length) == k.addr }

// sortKeys orders keys the way Walk must visit them: address, then length.
func sortKeys(ks []key) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].addr != ks[j].addr {
			return ks[i].addr < ks[j].addr
		}
		return ks[i].length < ks[j].length
	})
}

// randKey draws a random prefix with length 8..32, biased toward the
// /16../24 range real tables live in.
func randKey(rng *rand.Rand) key {
	var length int
	switch rng.Intn(4) {
	case 0:
		length = 8 + rng.Intn(8)
	case 3:
		length = 25 + rng.Intn(8)
	default:
		length = 16 + rng.Intn(9)
	}
	return mkKey(uint32(rng.Intn(224))<<24|uint32(rng.Intn(1<<24)), uint8(length))
}

func TestTrieInsertLookupRemove(t *testing.T) {
	var tr Trie[int]
	rng := rand.New(rand.NewSource(7))
	ref := map[key]*int{}
	for i := 0; i < 4000; i++ {
		k := randKey(rng)
		v := tr.Insert(k.addr, k.length)
		if v == nil {
			t.Fatalf("insert %v returned nil", k)
		}
		if prev, ok := ref[k]; ok && prev != v {
			t.Fatalf("re-insert of %v returned a different value", k)
		}
		ref[k] = v
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		if got := tr.Get(k.addr, k.length); got != v {
			t.Fatalf("Get %v = %p, want %p", k, got, v)
		}
	}
	// Absent prefixes (same addresses, different lengths) miss.
	misses := 0
	for k := range ref {
		if k.length > 9 {
			q := mkKey(k.addr, k.length-1)
			if _, ok := ref[q]; !ok {
				misses++
				if tr.Get(q.addr, q.length) != nil {
					t.Fatalf("phantom value for %v", q)
				}
			}
		}
	}
	if misses == 0 {
		t.Fatal("no miss cases exercised")
	}
	// Remove half, verify the rest survive.
	i := 0
	for k := range ref {
		if i%2 == 0 {
			if _, ok := tr.Remove(k.addr, k.length); !ok {
				t.Fatalf("Remove %v reported it absent", k)
			}
			delete(ref, k)
		}
		i++
	}
	if tr.Len() != len(ref) {
		t.Fatalf("after removal Len = %d, want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		if got := tr.Get(k.addr, k.length); got != v {
			t.Fatalf("post-removal Get %v = %p, want %p", k, got, v)
		}
	}
	// Remove the rest: empty trie.
	for k := range ref {
		tr.Remove(k.addr, k.length)
	}
	if tr.Len() != 0 {
		t.Fatalf("trie not empty: Len = %d", tr.Len())
	}
	count := 0
	tr.Walk(func(uint32, uint8, *int) bool { count++; return true })
	if count != 0 {
		t.Fatalf("walk of empty trie visited %d values", count)
	}
}

func TestTrieWalkIsSortedPrefixOrder(t *testing.T) {
	var tr Trie[int]
	rng := rand.New(rand.NewSource(11))
	set := map[key]bool{}
	for i := 0; i < 3000; i++ {
		k := randKey(rng)
		tr.Insert(k.addr, k.length)
		set[k] = true
	}
	// Nested prefixes sharing an address: /16, /20, /24 of one block.
	for _, k := range []key{{10 << 24, 16}, {10 << 24, 20}, {10 << 24, 24}, {0, 0}} {
		tr.Insert(k.addr, k.length)
		set[k] = true
	}
	want := make([]key, 0, len(set))
	for k := range set {
		want = append(want, k)
	}
	sortKeys(want)
	var got []key
	tr.Walk(func(addr uint32, length uint8, _ *int) bool {
		got = append(got, key{addr, length})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("walk visited %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order diverges at %d: got %v, want %v", i, got[i], want[i])
		}
	}
	// Early stop.
	n := 0
	tr.Walk(func(uint32, uint8, *int) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early-stopped walk visited %d", n)
	}
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	var tr Trie[int]
	rng := rand.New(rand.NewSource(23))
	var ks []key
	for i := 0; i < 2000; i++ {
		k := randKey(rng)
		tr.Insert(k.addr, k.length)
		ks = append(ks, k)
	}
	accept := func(*int) bool { return true }
	for trial := 0; trial < 2000; trial++ {
		// Probe addresses inside known prefixes (hits guaranteed) and
		// fully random ones (may miss).
		probe := rng.Uint32()
		if trial%2 == 0 {
			probe = ks[rng.Intn(len(ks))].addr
		}
		// Brute-force longest containing prefix.
		bestLen := -1
		for _, k := range ks {
			if k.contains(probe) && int(k.length) > bestLen {
				bestLen = int(k.length)
			}
		}
		got, gotLen := tr.Longest(probe, accept)
		if bestLen < 0 {
			if got != nil {
				t.Fatalf("Longest(%#x) found a value, brute force found none", probe)
			}
			continue
		}
		if want := tr.Get(probe, uint8(bestLen)); got != want || int(gotLen) != bestLen {
			t.Fatalf("Longest(%#x) = %p at /%d, want the /%d value %p", probe, got, gotLen, bestLen, want)
		}
	}
}

func TestTrieLPMRespectsAcceptFilter(t *testing.T) {
	var tr Trie[int]
	*tr.Insert(10<<24, 8) = 8
	*tr.Insert(10<<24|1<<16, 16) = 16
	probe := uint32(10<<24 | 1<<16 | 2<<8 | 3)
	if got, l := tr.Longest(probe, func(*int) bool { return true }); got == nil || *got != 16 || l != 16 {
		t.Fatalf("Longest = %v at /%d, want the /16", got, l)
	}
	// A rejected /16 falls back to the /8 above it.
	if got, l := tr.Longest(probe, func(v *int) bool { return *v != 16 }); got == nil || *got != 8 || l != 8 {
		t.Fatalf("Longest without the /16 = %v at /%d, want the /8", got, l)
	}
	if got, _ := tr.Longest(probe, func(*int) bool { return false }); got != nil {
		t.Fatalf("Longest with nothing acceptable = %d", *got)
	}
	if got, _ := tr.Longest(11<<24|1, func(*int) bool { return true }); got != nil {
		t.Fatalf("Longest outside any prefix = %d", *got)
	}
}

// runModel drives a Trie and a map through the operations ops encodes,
// six bytes each (operation, length, address), checking after every one
// that the two agree; Longest and Walk are checked against a linear scan
// of the map. The map holds, for every live prefix, the pointer Insert
// returned for it and the value written through it: operation 5 reads
// every one of those pointers back, after whatever inserts and removes of
// other prefixes came in between, and counts the nodes the live prefixes
// need; operation 6 removes prefixes from inside a Walk. It ends by
// removing everything, after which the trie must be down to its root.
//
// The operation byte also says where the prefix comes from (byte/14 % 4):
// 0 the address bytes; or, from the previous operation's prefix, 1 its
// address at this length, 2 the next prefix at its length and 3 its
// sibling at its last bit. Random addresses share a few bits; these share
// all but the last few, so a descent resumes far down the last one's path.
func runModel(t *testing.T, ops []byte) {
	type held struct {
		p   *int
		val int
	}
	var tr Trie[int]
	ref := map[key]held{}
	next := 0
	sorted := func() []key {
		ks := make([]key, 0, len(ref))
		for rk := range ref {
			ks = append(ks, rk)
		}
		sortKeys(ks)
		return ks
	}
	checkHeld := func(when string) {
		for rk, h := range ref {
			if *h.p != h.val {
				t.Fatalf("%s: the pointer held for %v reads %d, want %d", when, rk, *h.p, h.val)
			}
			if got := tr.Get(rk.addr, rk.length); got != h.p {
				t.Fatalf("%s: Get %v = %p, want the held %p", when, rk, got, h.p)
			}
		}
		ks := make([]key, 0, len(ref))
		for rk := range ref {
			ks = append(ks, rk)
		}
		if got, want := tr.Nodes(), modelNodes(ks); got != want {
			t.Fatalf("%s: %d nodes, want %d for %d prefixes", when, got, want, len(ref))
		}
	}
	var prevAddr uint32
	var prevLen uint8
	for ; len(ops) >= 6; ops = ops[6:] {
		length := ops[1] % 33
		addr := binary.BigEndian.Uint32(ops[2:6]) // unmasked: the trie ignores the low bits
		switch ops[0] / 14 % 4 {
		case 1:
			addr = prevAddr
		case 2:
			addr, length = prevAddr+1<<(32-prevLen), prevLen // a /0 has no next: 1<<32 is 0
		case 3:
			addr, length = prevAddr^1<<(32-prevLen), prevLen
		}
		prevAddr, prevLen = addr, length
		k := mkKey(addr, length)
		parity := int(ops[0] / 7 % 2) // from the operation, so both halves of the values get picked over a run
		switch ops[0] % 7 {
		case 0:
			v := tr.Insert(addr, length)
			if old, ok := ref[k]; ok {
				if v != old.p {
					t.Fatalf("Insert %v: value moved", k)
				}
			} else {
				// A slot a removed prefix left behind comes back zeroed.
				if *v != 0 {
					t.Fatalf("Insert %v: new value is %d, want zero", k, *v)
				}
				next++
				*v = next
				ref[k] = held{v, next}
			}
		case 1:
			_, want := ref[k]
			if old, got := tr.Remove(addr, length); got != want || old != ref[k].val {
				t.Fatalf("Remove %v = %d, %v; want %d, %v", k, old, got, ref[k].val, want)
			}
			delete(ref, k)
		case 2:
			if got := tr.Get(addr, length); got != ref[k].p {
				t.Fatalf("Get %v = %p, want %p", k, got, ref[k].p)
			}
		case 3:
			accept := func(v *int) bool { return *v%2 == parity }
			var want *int
			best := -1
			for rk, h := range ref {
				if rk.contains(addr) && accept(h.p) && int(rk.length) > best {
					want, best = h.p, int(rk.length)
				}
			}
			got, gotLen := tr.Longest(addr, accept)
			if got != want || (want != nil && int(gotLen) != best) {
				t.Fatalf("Longest(%#x) = %p at /%d, want the /%d value %p", addr, got, gotLen, best, want)
			}
		case 4, 6:
			// 6 removes every visited prefix of one parity from inside the
			// walk, which must still reach every other prefix once.
			remove := ops[0]%7 == 6
			want := sorted()
			i := 0
			tr.Walk(func(a uint32, l uint8, v *int) bool {
				if i >= len(want) || want[i] != (key{a, l}) || ref[want[i]].p != v {
					t.Fatalf("Walk step %d visited %v, want %v", i, key{a, l}, want)
				}
				i++
				if remove && *v%2 == parity {
					if _, ok := tr.Remove(a, l); !ok {
						t.Fatalf("Remove of the visited prefix %v failed", key{a, l})
					}
					delete(ref, key{a, l})
				}
				return true
			})
			if i != len(want) {
				t.Fatalf("Walk visited %d prefixes, want %d", i, len(want))
			}
		case 5:
			checkHeld("mid-run")
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
		}
	}
	checkHeld("at the end")
	for k := range ref {
		if _, ok := tr.Remove(k.addr, k.length); !ok {
			t.Fatalf("final Remove %v reported it absent", k)
		}
	}
	if tr.Len() != 0 || tr.Nodes() != 1 {
		t.Fatalf("emptied trie: Len = %d, %d nodes, want 0 and the root", tr.Len(), tr.Nodes())
	}
}

// TestTrieMatchesModel feeds runModel seeded operations over a universe
// small enough that prefixes nest, collide, and come back after a remove:
// a handful of addresses at lengths that include /0 and /32, and their
// neighbours and siblings.
func TestTrieMatchesModel(t *testing.T) {
	lengths := []uint8{0, 1, 8, 15, 16, 24, 31, 32}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addrs := make([]uint32, 12)
		for i := range addrs {
			// Few distinct high bytes, so short prefixes cover many addresses.
			addrs[i] = uint32(rng.Intn(3))<<30 | uint32(rng.Intn(4))<<22 | uint32(rng.Intn(1<<10))
		}
		ops := make([]byte, 0, 6*5000)
		for i := 0; i < 5000; i++ {
			// Insert, Remove and Get twice as often as the rest, the
			// prefix from one of runModel's four sources.
			ops = append(ops, byte(rng.Intn(10)+14*rng.Intn(4)), lengths[rng.Intn(len(lengths))])
			ops = binary.BigEndian.AppendUint32(ops, addrs[rng.Intn(len(addrs))])
		}
		runModel(t, ops)
	}
}

// FuzzTrie is runModel on whatever bytes the fuzzer finds; the corpus
// under testdata/fuzz/FuzzTrie seeds it with nesting, /0 and /32,
// re-insertion after a remove, a remove that prunes a shared branch,
// pointers held across the reuse of a removed prefix's slot and nodes, and
// a walk that removes a leaf, a prefix with others below it, and the /0.
func FuzzTrie(f *testing.F) { f.Fuzz(runModel) }

// TestEmptiedTrieIsOnlyItsRoot: a trie that held 10 000 prefixes and lost
// them is as small as a new one, whichever order they left in — while a
// prefix sharing the upper part of a branch keeps exactly its own bits.
func TestEmptiedTrieIsOnlyItsRoot(t *testing.T) {
	const n = 10000
	nth := func(i int) uint32 { return 20<<24 | uint32(i)<<8 }
	var tr Trie[int]
	for i := 0; i < n; i++ {
		tr.Insert(nth(i), 24)
	}
	// Consecutive /24s share their upper bits: about two nodes a prefix,
	// not twenty-four.
	if nodes := tr.Nodes(); nodes > 2*n+24 {
		t.Fatalf("%d consecutive /24s took %d nodes, want at most %d", n, nodes, 2*n+24)
	}
	tr.Insert(20<<24, 16)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if _, ok := tr.Remove(nth(i), 24); !ok {
			t.Fatalf("prefix %d was not present", i)
		}
	}
	if nodes := tr.Nodes(); nodes != 1+16 {
		t.Fatalf("%d nodes left beside the /16, want %d", nodes, 1+16)
	}
	if _, ok := tr.Remove(20<<24, 16); !ok || tr.Len() != 0 || tr.Nodes() != 1 {
		t.Fatalf("after the /16 left: Len = %d, %d nodes", tr.Len(), tr.Nodes())
	}
	if _, ok := tr.Remove(20<<24, 16); ok {
		t.Fatal("second remove of the /16 reported it present")
	}
}

// modelNodes is the node count a trie holding exactly ks must have: the
// root and one node per distinct leading run of bits of a prefix.
func modelNodes(ks []key) int {
	runs := map[key]bool{}
	for _, k := range ks {
		for l := uint8(1); l <= k.length; l++ {
			runs[mkKey(k.addr, l)] = true
		}
	}
	return 1 + len(runs)
}

// TestDescentResumesAcrossRemove: a Remove frees a branch that the path
// it leaves led through, and the next Insert hands the freed nodes to
// another prefix; no later descent may resume through them. For siblings
// that fork at the last bit and higher up, every step is checked against
// a map, Len and the node count.
func TestDescentResumesAcrossRemove(t *testing.T) {
	for _, fork := range []uint8{23, 16, 8} {
		var tr Trie[uint32]
		ref := map[key]uint32{}
		a := uint32(10<<24 | 1<<16 | 2<<8)
		b := a ^ 1<<(31-fork)
		far := uint32(200 << 24)
		// check reads the trie by Walk, which leaves the path alone: a Get
		// here would hide a stale one from the step after.
		check := func(step string) {
			t.Helper()
			ks := make([]key, 0, len(ref))
			tr.Walk(func(addr uint32, length uint8, v *uint32) bool {
				if want, ok := ref[key{addr, length}]; !ok || *v != want {
					t.Fatalf("fork /%d, %s: Walk visited %v holding %d, want %d (present %v)", fork, step, key{addr, length}, *v, want, ok)
				}
				ks = append(ks, key{addr, length})
				return true
			})
			if len(ks) != len(ref) {
				t.Fatalf("fork /%d, %s: Walk visited %d prefixes, want %d", fork, step, len(ks), len(ref))
			}
			if tr.Len() != len(ref) || tr.Nodes() != modelNodes(ks) {
				t.Fatalf("fork /%d, %s: Len = %d, %d nodes; want %d and %d", fork, step, tr.Len(), tr.Nodes(), len(ref), modelNodes(ks))
			}
		}
		insert := func(addr uint32) {
			*tr.Insert(addr, 24) = addr
			ref[mkKey(addr, 24)] = addr
			check(fmt.Sprintf("insert %#x", addr))
		}
		remove := func(addr uint32) {
			_, want := ref[mkKey(addr, 24)]
			if v, ok := tr.Remove(addr, 24); ok != want || (ok && v != addr) {
				t.Fatalf("fork /%d: Remove %#x = %d, %v; want present %v", fork, addr, v, ok, want)
			}
			delete(ref, mkKey(addr, 24))
			check(fmt.Sprintf("remove %#x", addr))
		}
		get := func(addr uint32) {
			v, ok := ref[mkKey(addr, 24)]
			if got := tr.Get(addr, 24); (got != nil) != ok || (ok && *got != v) {
				t.Fatalf("fork /%d: Get %#x = %v, want present %v", fork, addr, got, ok)
			}
		}
		insert(a)
		insert(b)
		grown := len(tr.nodes)
		remove(b) // frees b's 24 − fork nodes below the fork
		if tr.freeNodes != int(24-fork) {
			t.Fatalf("fork /%d: removing the sibling freed %d nodes, want %d", fork, tr.freeNodes, 24-fork)
		}
		insert(far) // takes every freed node back
		if tr.freeNodes != 0 || len(tr.nodes) != grown+int(fork) {
			t.Fatalf("fork /%d: the far prefix left %d nodes free and grew the slice to %d, want 0 and %d", fork, tr.freeNodes, len(tr.nodes), grown+int(fork))
		}
		get(b)
		insert(b)
		get(a)
		remove(a)
		get(a)
		insert(a)
		remove(b)
		insert(b)
		remove(far)
		get(b)
		remove(b)
		remove(b)
		insert(b)
		remove(a)
		remove(b)
		if tr.Nodes() != 1 {
			t.Fatalf("fork /%d: %d nodes left, want the root", fork, tr.Nodes())
		}
	}
}

// TestWalkMayRemoveTheVisitedPrefix pins the one mutation Walk allows:
// the FIB's PrunePort removes routes from inside its walk.
func TestWalkMayRemoveTheVisitedPrefix(t *testing.T) {
	var tr Trie[int]
	rng := rand.New(rand.NewSource(5))
	keep := map[key]bool{}
	for i := 0; i < 2000; i++ {
		k := randKey(rng)
		if i%4 == 0 {
			k = mkKey(k.addr, 8+uint8(i%3)*8) // short ones, so removed prefixes have live ones below them
		}
		*tr.Insert(k.addr, k.length) = i % 2
		keep[k] = i%2 == 0
	}
	visited := 0
	tr.Walk(func(addr uint32, length uint8, v *int) bool {
		visited++
		if *v == 1 {
			if _, ok := tr.Remove(addr, length); !ok {
				t.Fatalf("Remove of the visited prefix %v failed", key{addr, length})
			}
		}
		return true
	})
	if visited != len(keep) {
		t.Fatalf("walk visited %d prefixes, want %d", visited, len(keep))
	}
	for k, kept := range keep {
		if got := tr.Get(k.addr, k.length) != nil; got != kept {
			t.Fatalf("%v present = %v, want %v", k, got, kept)
		}
		if kept {
			tr.Remove(k.addr, k.length)
		}
	}
	if tr.Nodes() != 1 {
		t.Fatalf("%d nodes left after everything was removed", tr.Nodes())
	}
}

// TestValuesDoNotMove holds the pointer of the first prefix while the node
// slice and the value slab grow a dozen times over and half the table
// leaves again: it must keep reading what was written through it, and Get
// must keep returning it.
func TestValuesDoNotMove(t *testing.T) {
	var tr Trie[[2]int]
	first := tr.Insert(10<<24, 24)
	*first = [2]int{7, 7}
	ptrs := map[int]*[2]int{}
	for i := 1; i <= 50000; i++ {
		p := tr.Insert(10<<24|uint32(i)<<8, 24)
		*p = [2]int{i, -i}
		ptrs[i] = p
	}
	for i := 1; i <= 50000; i += 2 {
		tr.Remove(10<<24|uint32(i)<<8, 24)
		delete(ptrs, i)
	}
	for i := 50001; i <= 60000; i++ { // into the slots the odd ones left
		p := tr.Insert(10<<24|uint32(i)<<8, 24)
		*p = [2]int{i, -i}
		ptrs[i] = p
	}
	if *first != [2]int{7, 7} || tr.Get(10<<24, 24) != first {
		t.Fatalf("the first prefix's value reads %v through the held pointer, Get = %p, held %p", *first, tr.Get(10<<24, 24), first)
	}
	for i, p := range ptrs {
		if *p != [2]int{i, -i} || tr.Get(10<<24|uint32(i)<<8, 24) != p {
			t.Fatalf("prefix %d: held pointer reads %v", i, *p)
		}
	}
}

// TestRemovedSlotIsZeroedAndReused: Remove clears the value where it lies
// (so what it pointed to is garbage at once, not when the slot is next
// used), and the next new prefix gets that slot rather than a fresh one.
func TestRemovedSlotIsZeroedAndReused(t *testing.T) {
	var tr Trie[*int]
	x := 5
	a := tr.Insert(10<<24, 8)
	*a = &x
	tr.Insert(11<<24, 8)
	if old, ok := tr.Remove(10<<24, 8); !ok || old != &x {
		t.Fatalf("Remove = %p, %v; want the value held, %p", old, ok, &x)
	}
	if *a != nil {
		t.Fatal("the removed prefix's slot still holds its pointer")
	}
	if b := tr.Insert(12<<24, 8); b != a || *b != nil {
		t.Fatalf("the next insert got slot %p holding %v, want the freed slot %p holding nil", b, *b, a)
	}
	if got := len(tr.chunks); got != 1 {
		t.Fatalf("three inserts and a remove took %d value chunks, want 1", got)
	}
}

// BenchmarkTrie inserts, reads back and removes n /24s: in order, the run
// of consecutive prefixes a full table's UPDATE carries, where each
// descent resumes from the last one's path; and the same prefixes
// shuffled, where the path almost never helps and costs what keeping it
// costs. ns/prefix is the time of one prefix's three operations.
func BenchmarkTrie(b *testing.B) {
	for _, n := range []int{100_000} {
		in := make([]uint32, n)
		for i := range in {
			in[i] = 20<<24 | uint32(i)<<8
		}
		shuffled := append([]uint32(nil), in...)
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range []struct {
			name  string
			addrs []uint32
		}{{"consecutive", in}, {"random", shuffled}} {
			b.Run(fmt.Sprintf("%s/n=%d", order.name, n), func(b *testing.B) {
				var tr Trie[uint32]
				for i := 0; i < b.N; i++ {
					for _, a := range order.addrs {
						*tr.Insert(a, 24) = a
					}
					for _, a := range order.addrs {
						if v := tr.Get(a, 24); v == nil || *v != a {
							b.Fatalf("Get %#x = %v", a, v)
						}
					}
					for _, a := range order.addrs {
						if _, ok := tr.Remove(a, 24); !ok {
							b.Fatalf("Remove %#x found nothing", a)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/prefix")
			})
		}
	}
}
