// Package ptrie is the one IPv4 prefix container of the tree: a binary
// trie with one node per prefix bit, keyed by (address, length) and
// holding one value per prefix. The BGP RIB keeps its per-prefix route
// state in one and the simulated FIB its ECMP groups.
//
// A per-bit trie pays up to `length` 24-byte nodes for a prefix that
// shares no bits with another, and two for each of a run of consecutive
// prefixes — which is what every table over a few hundred prefixes in
// this tree is (topo.FullTable's consecutive /24s). On those it is both
// smaller and faster than a path-compressed trie, whose nodes carry
// their own key and whose inserts and removes split and re-join them.
//
// Callers pass length ≤ 32; address bits below the length are ignored.
// A Trie is not safe for concurrent use.
package ptrie

// Trie maps IPv4 prefixes to values of type V. The zero Trie is empty
// and ready to use.
type Trie[V any] struct {
	root node[V]
	n    int
}

type node[V any] struct {
	child [2]*node[V]
	val   *V // non-nil when a prefix ends here
}

// bit is bit i of addr, 0 being the most significant.
func bit(addr uint32, i uint8) int { return int(addr>>(31-i)) & 1 }

// empty reports whether nothing hangs off n: no value, no children.
func (n *node[V]) empty() bool {
	return n.val == nil && n.child[0] == nil && n.child[1] == nil
}

// Len reports the number of prefixes held.
func (t *Trie[V]) Len() int { return t.n }

// Insert returns the value held for the prefix, which is a new zero V if
// the prefix was absent. The pointer stays valid until the prefix is
// removed.
func (t *Trie[V]) Insert(addr uint32, length uint8) *V {
	cur := &t.root
	for i := uint8(0); i < length; i++ {
		b := bit(addr, i)
		if cur.child[b] == nil {
			cur.child[b] = &node[V]{}
		}
		cur = cur.child[b]
	}
	if cur.val == nil {
		cur.val = new(V)
		t.n++
	}
	return cur.val
}

// Get returns the value held for exactly this prefix, or nil.
func (t *Trie[V]) Get(addr uint32, length uint8) *V {
	cur := &t.root
	for i := uint8(0); i < length; i++ {
		if cur = cur.child[bit(addr, i)]; cur == nil {
			return nil
		}
	}
	return cur.val
}

// Remove deletes the prefix and reports whether it was present. The nodes
// that led only to it go too: a withdrawn /24 would otherwise strand up
// to 24 of them, and a full table withdraws by the hundred thousand.
func (t *Trie[V]) Remove(addr uint32, length uint8) bool {
	var path [32]*node[V] // path[i] is the node above bit i
	cur := &t.root
	for i := uint8(0); i < length; i++ {
		path[i] = cur
		if cur = cur.child[bit(addr, i)]; cur == nil {
			return false
		}
	}
	if cur.val == nil {
		return false
	}
	cur.val = nil
	t.n--
	for i := length; i > 0 && cur.empty(); i-- {
		cur = path[i-1]
		cur.child[bit(addr, i-1)] = nil
	}
	return true
}

// Longest returns the value of the longest prefix containing addr that
// accept approves, or nil.
func (t *Trie[V]) Longest(addr uint32, accept func(*V) bool) *V {
	var best *V
	cur := &t.root
	for i := uint8(0); ; i++ {
		if cur.val != nil && accept(cur.val) {
			best = cur.val
		}
		if i == 32 {
			break
		}
		if cur = cur.child[bit(addr, i)]; cur == nil {
			break
		}
	}
	return best
}

// Walk visits every prefix in address-then-length order until visit
// returns false. visit may Remove the prefix it was called with, and no
// other.
func (t *Trie[V]) Walk(visit func(addr uint32, length uint8, v *V) bool) {
	t.root.walk(0, 0, visit)
}

// walk is pre-order: a node's prefix sorts before every one below it
// (same address or higher, longer) and the 0 branch before the 1 branch.
func (n *node[V]) walk(addr uint32, depth uint8, visit func(uint32, uint8, *V) bool) bool {
	if n.val != nil && !visit(addr, depth, n.val) {
		return false
	}
	for b, c := range n.child {
		if c != nil && !c.walk(addr|uint32(b)<<(31-depth), depth+1, visit) {
			return false
		}
	}
	return true
}

// Nodes counts the trie's nodes, the root included: what a table costs
// in memory beyond its values, 24 bytes apiece.
func (t *Trie[V]) Nodes() int { return t.root.nodes() }

func (n *node[V]) nodes() int {
	if n == nil {
		return 0
	}
	return 1 + n.child[0].nodes() + n.child[1].nodes()
}
