package bgp

import (
	"math/bits"
	"net/netip"
)

// A path-compressed binary trie over IPv4 prefixes, keyed by the
// (address, length) pair. Compared to the flat map the seed RIB used,
// the trie gives ordered walks for free (pre-order visitation is
// exactly sortPrefixes order: address ascending, then length
// ascending), longest-prefix match, and a stable per-prefix node whose
// route state the decision process can recompute incrementally — the
// shape of ndn-dpdk's name-prefix FIB container, specialised to 32-bit
// keys.

// trieNode is one trie node. Junction nodes created by path
// compression carry no entry; prefix nodes carry the per-prefix route
// state.
type trieNode struct {
	addr  uint32 // key bits, zero below len
	len   uint8  // prefix length, 0..32
	child [2]*trieNode
	entry *ribEntry // nil on pure junction nodes
}

// prefixTrie is the container: a synthetic 0/0 root (a real 0.0.0.0/0
// route, if ever inserted, becomes its entry) plus an entry count.
type prefixTrie struct {
	root *trieNode
	n    int // number of nodes with entries
}

func newPrefixTrie() *prefixTrie {
	return &prefixTrie{root: &trieNode{}}
}

// v4key converts a masked IPv4 prefix to trie key form.
func v4key(p netip.Prefix) (uint32, uint8) {
	a4 := p.Masked().Addr().As4()
	return uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3]), uint8(p.Bits())
}

// keyPrefix returns the netip form of a trie key.
func keyPrefix(addr uint32, length uint8) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{
		byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr),
	}), int(length))
}

// pfxKey is a trie key packed into one integer, addr<<8 | len. Its
// integer order is the (address, length) order the trie walks in, so a
// batch of prefixes sorts as plain integers; sessions key their pending
// advertisements by it (8 bytes to hash and compare, not a 32-byte
// netip.Prefix).
type pfxKey uint64

// pfxKeyBits is how many low bits of an integer a pfxKey occupies.
const pfxKeyBits = 40

func prefixKey(p netip.Prefix) pfxKey {
	addr, length := v4key(p)
	return pfxKey(addr)<<8 | pfxKey(length)
}

// prefix reads the low pfxKeyBits bits only, so whatever a caller packs
// above them (flushAdv's group number) need not be masked off first.
func (k pfxKey) prefix() netip.Prefix { return keyPrefix(uint32(k>>8), uint8(k)) }

// bitAt extracts bit i (0 = most significant) of addr.
func bitAt(addr uint32, i uint8) int {
	return int(addr>>(31-i)) & 1
}

// commonLen is the length of the longest common prefix of a and b,
// capped at max.
func commonLen(a, b uint32, max uint8) uint8 {
	if c := uint8(bits.LeadingZeros32(a ^ b)); c < max {
		return c
	}
	return max
}

// insert finds or creates the node for (addr, length) and returns its
// entry, allocating one if the node is new or was a junction.
func (t *prefixTrie) insert(addr uint32, length uint8) *ribEntry {
	n := t.root
	for {
		// How much of the key agrees with this node's key?
		cl := commonLen(addr, n.addr, minU8(length, n.len))
		if cl < n.len {
			// Split: a junction at the common length takes over n's
			// position; n descends under it.
			junction := &trieNode{addr: addr & maskBits(cl), len: cl}
			parentAttach(t, n, junction)
			junction.child[bitAt(n.addr, cl)] = n
			if cl == length {
				// The new prefix IS the junction point.
				junction.entry = &ribEntry{}
				t.n++
				return junction.entry
			}
			leaf := &trieNode{addr: addr, len: length, entry: &ribEntry{}}
			junction.child[bitAt(addr, cl)] = leaf
			t.n++
			return leaf.entry
		}
		// cl == n.len: the node's key is a prefix of ours.
		if length == n.len {
			if n.entry == nil {
				n.entry = &ribEntry{}
				t.n++
			}
			return n.entry
		}
		b := bitAt(addr, n.len)
		if n.child[b] == nil {
			leaf := &trieNode{addr: addr, len: length, entry: &ribEntry{}}
			n.child[b] = leaf
			t.n++
			return leaf.entry
		}
		n = n.child[b]
	}
}

// parentAttach replaces old with repl in old's parent slot. The root
// has len 0 and addr 0 and is never split (commonLen ≥ 0 == root.len),
// so old always has a parent.
func parentAttach(t *prefixTrie, old, repl *trieNode) {
	p := t.root
	for {
		b := bitAt(old.addr, p.len)
		if p.child[b] == old {
			p.child[b] = repl
			return
		}
		p = p.child[b]
	}
}

// lookup returns the entry for exactly (addr, length), or nil.
func (t *prefixTrie) lookup(addr uint32, length uint8) *ribEntry {
	n := t.root
	for n != nil {
		if n.len > length || n.addr != addr&maskBits(n.len) {
			return nil
		}
		if n.len == length {
			if n.addr != addr {
				return nil
			}
			return n.entry
		}
		n = n.child[bitAt(addr, n.len)]
	}
	return nil
}

// remove deletes the entry at (addr, length), pruning emptied nodes and
// re-compressing single-child junctions. No-op if absent.
func (t *prefixTrie) remove(addr uint32, length uint8) {
	// Walk down recording the path for pruning on the way back.
	var stack [33]*trieNode
	depth := 0
	n := t.root
	for n != nil {
		if n.len > length || n.addr != addr&maskBits(n.len) {
			return
		}
		if n.len == length && n.addr == addr {
			break
		}
		stack[depth] = n
		depth++
		n = n.child[bitAt(addr, n.len)]
	}
	if n == nil || n.entry == nil {
		return
	}
	n.entry = nil
	t.n--
	// Prune upward: a node with no entry and ≤1 child either vanishes
	// (0 children) or is spliced out (1 child). The root stays.
	for cur := n; cur != t.root && cur.entry == nil; {
		var only *trieNode
		nc := 0
		for _, c := range cur.child {
			if c != nil {
				only = c
				nc++
			}
		}
		if nc > 1 {
			return
		}
		parent := t.root
		if depth > 0 {
			parent = stack[depth-1]
		}
		parent.child[bitAt(cur.addr, parent.len)] = only // may be nil
		if depth == 0 {
			cur = t.root
			break
		}
		depth--
		cur = parent
	}
}

// lpm returns the entry of the longest prefix containing addr for which
// accept returns true, or nil.
func (t *prefixTrie) lpm(addr uint32, accept func(*ribEntry) bool) *ribEntry {
	var best *ribEntry
	n := t.root
	for n != nil {
		if n.addr != addr&maskBits(n.len) {
			break
		}
		if n.entry != nil && accept(n.entry) {
			best = n.entry
		}
		if n.len == 32 {
			break
		}
		n = n.child[bitAt(addr, n.len)]
	}
	return best
}

// walk visits every entry in sortPrefixes order (address ascending,
// then prefix length ascending); returning false stops the walk.
func (t *prefixTrie) walk(visit func(netip.Prefix, *ribEntry) bool) {
	t.root.walk(visit)
}

func (n *trieNode) walk(visit func(netip.Prefix, *ribEntry) bool) bool {
	if n == nil {
		return true
	}
	// Pre-order: this node's key sorts before every descendant's (same
	// leading bits, fewer length bits) and child[0]'s subtree before
	// child[1]'s (next bit 0 < 1).
	if n.entry != nil && !visit(keyPrefix(n.addr, n.len), n.entry) {
		return false
	}
	return n.child[0].walk(visit) && n.child[1].walk(visit)
}

// maskBits is the netmask with the top n bits set.
func maskBits(n uint8) uint32 {
	if n == 0 {
		return 0
	}
	return ^uint32(0) << (32 - n)
}

func minU8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}
