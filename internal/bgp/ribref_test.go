package bgp

import (
	"net/netip"
	"slices"
	"sort"
)

// refRIB is the seed's flat-map RIB, kept verbatim as the differential
// oracle for the trie RIB (the same role the naive max–min solver plays
// for the incremental one): same decision process, different storage
// and candidate assembly. TestRIBTrieMatchesMapOracle drives both under
// seeded churn and requires bit-identical best paths and ECMP sets.
// It is test-only scaffolding and intentionally unexported.
type refRIB struct {
	// adjIn[peer][prefix] = path
	adjIn map[netip.Addr]map[netip.Prefix]*Path
	local map[netip.Prefix]*Path
	// locRIB[prefix] = selected path set (len>1 only with multipath).
	locRIB    map[netip.Prefix][]*Path
	Multipath bool
}

func newRefRIB(multipath bool) *refRIB {
	return &refRIB{
		adjIn:     make(map[netip.Addr]map[netip.Prefix]*Path),
		local:     make(map[netip.Prefix]*Path),
		locRIB:    make(map[netip.Prefix][]*Path),
		Multipath: multipath,
	}
}

func (r *refRIB) SetLocal(p netip.Prefix, attrs PathAttrs) {
	r.local[p.Masked()] = &Path{Attrs: attrsOf(attrs), Local: true}
}

func (r *refRIB) UpdateAdjIn(peer netip.Addr, prefix netip.Prefix, path *Path) bool {
	prefix = prefix.Masked()
	m := r.adjIn[peer]
	if path == nil {
		if m == nil {
			return false
		}
		if _, had := m[prefix]; !had {
			return false
		}
		delete(m, prefix)
		return true
	}
	if m == nil {
		m = make(map[netip.Prefix]*Path)
		r.adjIn[peer] = m
	}
	m[prefix] = path
	return true
}

func (r *refRIB) DropPeer(peer netip.Addr) []netip.Prefix {
	m := r.adjIn[peer]
	if m == nil {
		return nil
	}
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	delete(r.adjIn, peer)
	sortPrefixes(out)
	return out
}

func (r *refRIB) Decide(prefix netip.Prefix) ([]*Path, bool) {
	prefix = prefix.Masked()
	var candidates []*Path
	if lp := r.local[prefix]; lp != nil {
		candidates = append(candidates, lp)
	}
	// Deterministic peer iteration.
	peers := make([]netip.Addr, 0, len(r.adjIn))
	for a := range r.adjIn {
		peers = append(peers, a)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Compare(peers[j]) < 0 })
	for _, a := range peers {
		if p := r.adjIn[a][prefix]; p != nil {
			candidates = append(candidates, p)
		}
	}
	var selected []*Path
	if len(candidates) > 0 {
		best := candidates[0]
		for _, c := range candidates[1:] {
			if pathCompare(c, best) < 0 {
				best = c
			}
		}
		for _, c := range candidates {
			if c == best || (r.Multipath && pathCompare(c, best) == 0) {
				selected = append(selected, c)
			}
		}
		if !r.Multipath && len(selected) > 1 {
			// Single-path mode: final deterministic tiebreak.
			sort.Slice(selected, func(i, j int) bool { return tieBreak(selected[i], selected[j]) })
			selected = selected[:1]
		} else {
			sort.Slice(selected, func(i, j int) bool { return tieBreak(selected[i], selected[j]) })
		}
	}
	old := r.locRIB[prefix]
	if pathSetEqual(old, selected) {
		return selected, false
	}
	if selected == nil {
		delete(r.locRIB, prefix)
	} else {
		r.locRIB[prefix] = selected
	}
	return selected, true
}

func (r *refRIB) Best(prefix netip.Prefix) []*Path { return r.locRIB[prefix.Masked()] }

func (r *refRIB) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(r.locRIB))
	for p := range r.locRIB {
		out = append(out, p)
	}
	sortPrefixes(out)
	return out
}

func (r *refRIB) KnownPrefixes() []netip.Prefix {
	set := make(map[netip.Prefix]bool)
	for p := range r.local {
		set[p] = true
	}
	for _, m := range r.adjIn {
		for p := range m {
			set[p] = true
		}
	}
	out := make([]netip.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sortPrefixes(out)
	return out
}

// sortPrefixes orders prefixes by address, then prefix length — the
// order the RIB trie walks in and pfxKey integers sort in.
func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if c := ps[i].Addr().Compare(ps[j].Addr()); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}

// pathSetEqual is the oracle's change predicate: the selections agree
// path for path under samePath, the one the RIB's decide applies.
func pathSetEqual(a, b []*Path) bool {
	return slices.EqualFunc(a, b, samePath)
}
