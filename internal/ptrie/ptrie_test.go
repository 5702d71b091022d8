package ptrie

import (
	"encoding/binary"
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
			if !tr.Remove(k.addr, k.length) {
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
		got := tr.Longest(probe, accept)
		if bestLen < 0 {
			if got != nil {
				t.Fatalf("Longest(%#x) found a value, brute force found none", probe)
			}
			continue
		}
		if want := tr.Get(probe, uint8(bestLen)); got != want {
			t.Fatalf("Longest(%#x) = %p, want the /%d value %p", probe, got, bestLen, want)
		}
	}
}

func TestTrieLPMRespectsAcceptFilter(t *testing.T) {
	var tr Trie[int]
	*tr.Insert(10<<24, 8) = 8
	*tr.Insert(10<<24|1<<16, 16) = 16
	probe := uint32(10<<24 | 1<<16 | 2<<8 | 3)
	if got := tr.Longest(probe, func(*int) bool { return true }); got == nil || *got != 16 {
		t.Fatalf("Longest = %v, want the /16", got)
	}
	// A rejected /16 falls back to the /8 above it.
	if got := tr.Longest(probe, func(v *int) bool { return *v != 16 }); got == nil || *got != 8 {
		t.Fatalf("Longest without the /16 = %v, want the /8", got)
	}
	if got := tr.Longest(probe, func(*int) bool { return false }); got != nil {
		t.Fatalf("Longest with nothing acceptable = %d", *got)
	}
	if got := tr.Longest(11<<24|1, func(*int) bool { return true }); got != nil {
		t.Fatalf("Longest outside any prefix = %d", *got)
	}
}

// runModel drives a Trie and a map through the operations ops encodes,
// six bytes each (operation, length, address), checking after every one
// that the two agree; Longest and Walk are checked against a linear scan
// of the map. It ends by removing everything, after which the trie must
// be down to its root.
func runModel(t *testing.T, ops []byte) {
	var tr Trie[int]
	ref := map[key]*int{}
	next := 0
	for ; len(ops) >= 6; ops = ops[6:] {
		length := ops[1] % 33
		addr := binary.BigEndian.Uint32(ops[2:6]) // unmasked: the trie ignores the low bits
		k := mkKey(addr, length)
		switch ops[0] % 5 {
		case 0:
			v := tr.Insert(addr, length)
			if old, ok := ref[k]; ok {
				if v != old {
					t.Fatalf("Insert %v: value moved", k)
				}
			} else {
				if *v != 0 {
					t.Fatalf("Insert %v: new value is %d, want zero", k, *v)
				}
				next++
				*v = next
				ref[k] = v
			}
		case 1:
			_, want := ref[k]
			if got := tr.Remove(addr, length); got != want {
				t.Fatalf("Remove %v = %v, want %v", k, got, want)
			}
			delete(ref, k)
		case 2:
			if got := tr.Get(addr, length); got != ref[k] {
				t.Fatalf("Get %v = %p, want %p", k, got, ref[k])
			}
		case 3:
			// The filter's parity bit comes from the operation, so both
			// halves of the values get rejected over a run.
			accept := func(v *int) bool { return *v%2 == int(ops[0]/5%2) }
			var want *int
			best := -1
			for rk, v := range ref {
				if rk.contains(addr) && accept(v) && int(rk.length) > best {
					want, best = v, int(rk.length)
				}
			}
			if got := tr.Longest(addr, accept); got != want {
				t.Fatalf("Longest(%#x) = %p, want the /%d value %p", addr, got, best, want)
			}
		case 4:
			want := make([]key, 0, len(ref))
			for rk := range ref {
				want = append(want, rk)
			}
			sortKeys(want)
			i := 0
			tr.Walk(func(a uint32, l uint8, v *int) bool {
				if i >= len(want) || want[i] != (key{a, l}) || ref[want[i]] != v {
					t.Fatalf("Walk step %d visited %v, want %v", i, key{a, l}, want)
				}
				i++
				return true
			})
			if i != len(want) {
				t.Fatalf("Walk visited %d prefixes, want %d", i, len(want))
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
		}
	}
	for k := range ref {
		if !tr.Remove(k.addr, k.length) {
			t.Fatalf("final Remove %v reported it absent", k)
		}
	}
	if tr.Len() != 0 || tr.Nodes() != 1 {
		t.Fatalf("emptied trie: Len = %d, %d nodes, want 0 and the root", tr.Len(), tr.Nodes())
	}
}

// TestTrieMatchesModel feeds runModel seeded operations over a universe
// small enough that prefixes nest, collide, and come back after a remove:
// a handful of addresses at lengths that include /0 and /32.
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
			ops = append(ops, byte(rng.Intn(10)), lengths[rng.Intn(len(lengths))])
			ops = binary.BigEndian.AppendUint32(ops, addrs[rng.Intn(len(addrs))])
		}
		runModel(t, ops)
	}
}

// FuzzTrie is runModel on whatever bytes the fuzzer finds; the corpus
// under testdata/fuzz/FuzzTrie seeds it with nesting, /0 and /32,
// re-insertion after a remove, and a remove that prunes a shared branch.
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
		if !tr.Remove(nth(i), 24) {
			t.Fatalf("prefix %d was not present", i)
		}
	}
	if nodes := tr.Nodes(); nodes != 1+16 {
		t.Fatalf("%d nodes left beside the /16, want %d", nodes, 1+16)
	}
	if !tr.Remove(20<<24, 16) || tr.Len() != 0 || tr.Nodes() != 1 {
		t.Fatalf("after the /16 left: Len = %d, %d nodes", tr.Len(), tr.Nodes())
	}
	if tr.Remove(20<<24, 16) {
		t.Fatal("second remove of the /16 reported it present")
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
		if *v == 1 && !tr.Remove(addr, length) {
			t.Fatalf("Remove of the visited prefix %v failed", key{addr, length})
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
