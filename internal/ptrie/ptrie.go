// Package ptrie is the one IPv4 prefix container of the tree: a binary
// trie with one node per prefix bit, keyed by (address, length) and
// holding one value per prefix. The BGP RIB keeps its per-prefix route
// state in one and the simulated FIB its ECMP group numbers.
//
// A per-bit trie pays up to `length` nodes for a prefix that shares no
// bits with another, and two for each of a run of consecutive prefixes —
// which is what every table over a few hundred prefixes in this tree is
// (topo.FullTable's consecutive /24s). On those it is both smaller and
// faster than a path-compressed trie, whose nodes carry their own key and
// whose inserts and removes split and re-join them.
//
// Nothing here is allocated per prefix. Nodes are 12 bytes — two child
// indexes and a value slot number — in one flat slice, freed ones on a
// list threaded through them; with no pointer in it the garbage collector
// never scans the structure, and a descent is one slice index per bit.
// Values live in a slab of chunks, 16 slots and doubling: a chunk never
// moves, so the pointer Insert hands out stays valid until the prefix is
// removed, growth copies nothing, and a 33-prefix table holds one
// 16-slot and one 32-slot chunk. A chunk is a plain []V, so a V without
// pointers makes it noscan like the node slice; both of this tree's are
// (the RIB's 12-byte entry of path numbers, the FIB's group number), and
// the collector walks no table of any size. A removed prefix's slot is
// zeroed at once and handed out again before the slab grows.
//
// Callers pass length ≤ 32; address bits below the length are ignored.
// A Trie is not safe for concurrent use.
package ptrie

import (
	"math/bits"
	"slices"
)

// Trie maps IPv4 prefixes to values of type V. The zero Trie is empty
// and ready to use.
type Trie[V any] struct {
	// nodes[0] is the root once anything was inserted. A free node's
	// child[0] is the next free one; 0, the root, ends every list and
	// marks every absent child.
	nodes     []node
	freeNode  uint32
	freeNodes int

	chunks   [][]V    // chunk i holds slots [16·(2^i − 1), 16·(2^(i+1) − 1))
	slots    uint32   // slots ever handed out: the next fresh one
	freeSlot []uint32 // removed prefixes' slots, zeroed
	n        int
}

type node struct {
	child [2]uint32
	val   uint32 // 1 + the value's slot when a prefix ends here, else 0
}

const firstChunk = 16

// bit is bit i of addr, 0 being the most significant. Remove, which comes
// back up the branch, uses it; the plain descents shift the address left a
// bit a step and read its top bit.
func bit(addr uint32, i uint8) int { return int(addr>>(31-i)) & 1 }

// value is the address of a slot: one chunk lookup per operation, never
// per bit.
func (t *Trie[V]) value(slot uint32) *V {
	c := bits.Len32(slot/firstChunk+1) - 1
	return &t.chunks[c][slot-firstChunk*(1<<c-1)]
}

func (t *Trie[V]) newSlot() uint32 {
	if n := len(t.freeSlot); n > 0 {
		s := t.freeSlot[n-1]
		t.freeSlot = t.freeSlot[:n-1]
		return s
	}
	if t.slots == firstChunk*(1<<len(t.chunks)-1) {
		t.chunks = append(t.chunks, make([]V, firstChunk<<len(t.chunks)))
	}
	t.slots++
	return t.slots - 1
}

func (t *Trie[V]) newNode() uint32 {
	if i := t.freeNode; i != 0 {
		t.freeNode = t.nodes[i].child[0]
		t.freeNodes--
		t.nodes[i] = node{}
		return i
	}
	if len(t.nodes) == cap(t.nodes) {
		// Twice the room, not append's quarter more: a full table's nodes
		// are copied twice over on the way up instead of five times.
		t.nodes = slices.Grow(t.nodes, max(len(t.nodes), 16))
	}
	t.nodes = append(t.nodes, node{})
	return uint32(len(t.nodes) - 1)
}

// Len reports the number of prefixes held.
func (t *Trie[V]) Len() int { return t.n }

// Insert returns the value held for the prefix, which is a new zero V if
// the prefix was absent. The pointer stays valid until the prefix is
// removed, whatever else is inserted or removed meanwhile.
func (t *Trie[V]) Insert(addr uint32, length uint8) *V {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, node{})
	}
	cur := uint32(0)
	for ; length > 0; length-- {
		b := addr >> 31
		addr <<= 1
		next := t.nodes[cur].child[b]
		if next == 0 {
			next = t.newNode()
			t.nodes[cur].child[b] = next
		}
		cur = next
	}
	if t.nodes[cur].val == 0 {
		t.nodes[cur].val = t.newSlot() + 1
		t.n++
	}
	return t.value(t.nodes[cur].val - 1)
}

// Get returns the value held for exactly this prefix, or nil.
func (t *Trie[V]) Get(addr uint32, length uint8) *V {
	nodes := t.nodes
	if len(nodes) == 0 {
		return nil
	}
	cur := uint32(0)
	for ; length > 0; length-- {
		if cur = nodes[cur].child[addr>>31]; cur == 0 {
			return nil
		}
		addr <<= 1
	}
	if nodes[cur].val == 0 {
		return nil
	}
	return t.value(nodes[cur].val - 1)
}

// Remove deletes the prefix and returns the value it held, with whether
// it was present. The slot the value lay in is zeroed, and the nodes that
// led only to the prefix go back on the free list: a withdrawn /24 would
// otherwise strand up to 24 of them, and a full table withdraws by the
// hundred thousand.
func (t *Trie[V]) Remove(addr uint32, length uint8) (old V, ok bool) {
	nodes := t.nodes
	if len(nodes) == 0 {
		return old, false
	}
	var path [32]uint32 // path[i] is the node above bit i
	cur := uint32(0)
	for i := uint8(0); i < length; i++ {
		path[i] = cur
		if cur = nodes[cur].child[bit(addr, i)]; cur == 0 {
			return old, false
		}
	}
	if nodes[cur].val == 0 {
		return old, false
	}
	slot := nodes[cur].val - 1
	v := t.value(slot)
	old, *v = *v, old
	t.freeSlot = append(t.freeSlot, slot)
	nodes[cur].val = 0
	t.n--
	for i := length; i > 0 && nodes[cur] == (node{}); i-- {
		nodes[cur].child[0] = t.freeNode
		t.freeNode = cur
		t.freeNodes++
		cur = path[i-1]
		nodes[cur].child[bit(addr, i-1)] = 0
	}
	return old, true
}

// Longest returns the value and the length of the longest prefix
// containing addr that accept approves, or nil.
func (t *Trie[V]) Longest(addr uint32, accept func(*V) bool) (*V, uint8) {
	nodes := t.nodes
	if len(nodes) == 0 {
		return nil, 0
	}
	var best *V
	var bestLen uint8
	cur := uint32(0)
	for i := uint8(0); ; i++ {
		if val := nodes[cur].val; val != 0 {
			if v := t.value(val - 1); accept(v) {
				best, bestLen = v, i
			}
		}
		if i == 32 {
			break
		}
		if cur = nodes[cur].child[addr>>31]; cur == 0 {
			break
		}
		addr <<= 1
	}
	return best, bestLen
}

// Walk visits every prefix in address-then-length order until visit
// returns false. visit may Remove the prefix it was called with and
// change any value; it may not Insert, nor Remove another prefix.
func (t *Trie[V]) Walk(visit func(addr uint32, length uint8, v *V) bool) {
	if len(t.nodes) > 0 {
		t.walk(0, 0, 0, visit)
	}
}

// walk is pre-order: a node's prefix sorts before every one below it
// (same address or higher, longer) and the 0 branch before the 1 branch.
func (t *Trie[V]) walk(n, addr uint32, depth uint8, visit func(uint32, uint8, *V) bool) bool {
	// Read before visit runs: if it removes the prefix, a childless n is
	// on the free list afterwards and its child[0] is the list's link.
	// With children n stays, and so does everything below it.
	nd := t.nodes[n]
	if nd.val != 0 && !visit(addr, depth, t.value(nd.val-1)) {
		return false
	}
	for b, c := range nd.child {
		if c != 0 && !t.walk(c, addr|uint32(b)<<(31-depth), depth+1, visit) {
			return false
		}
	}
	return true
}

// Nodes counts the trie's nodes, the root included: what a table costs
// in memory beyond its values, 12 bytes apiece. (The node slice does not
// shrink; a freed node is reused by the next insert.)
func (t *Trie[V]) Nodes() int { return max(len(t.nodes)-t.freeNodes, 1) }
