package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// ribAPI is the surface shared by the trie RIB and the map-based oracle.
type ribAPI interface {
	UpdateAdjIn(peer netip.Addr, prefix netip.Prefix, path *Path) bool
	DropPeer(peer netip.Addr) []netip.Prefix
	Decide(prefix netip.Prefix) ([]*Path, bool)
	Best(prefix netip.Prefix) []*Path
	Prefixes() []netip.Prefix
	KnownPrefixes() []netip.Prefix
}

// samePathSet compares two selections. Paths fed to both RIBs are shared
// pointers, but either side may legitimately serve an older field-equal
// object (an unchanged Decide keeps its previous buffer; local routes are
// built per-RIB), so pointer inequality falls back to full field compare.
func samePathSet(got, want []*Path) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g == w {
			continue
		}
		if g.Local != w.Local || g.IBGP != w.IBGP ||
			g.PeerAddr != w.PeerAddr || g.PeerRouterID != w.PeerRouterID || g.Port != w.Port {
			return false
		}
		if attrsKey(g.Attrs.PathAttrs) != attrsKey(w.Attrs.PathAttrs) {
			return false
		}
	}
	return true
}

func samePrefixes(a, b []netip.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRIBTrieMatchesMapOracle drives the trie RIB and the seed's map RIB
// (ribref.go) through identical seeded announce/withdraw/flap/peer-down
// churn and requires bit-identical outcomes at every step: same change
// reports, same best paths, same ECMP sets, same RIB contents.
func TestRIBTrieMatchesMapOracle(t *testing.T) {
	peers := []netip.Addr{
		addr("172.16.0.1"), addr("172.16.0.3"), addr("172.16.0.5"), addr("172.16.0.7"),
	}
	rids := []netip.Addr{
		addr("1.1.1.1"), addr("2.2.2.2"), addr("3.3.3.3"), addr("4.4.4.4"),
	}
	for _, multipath := range []bool{false, true} {
		for _, seed := range []int64{1, 42} {
			t.Run(fmt.Sprintf("multipath=%v/seed=%d", multipath, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				// Prefix universe: random spread plus nested chains that
				// exercise trie splits and junction pruning.
				var universe []netip.Prefix
				seen := map[netip.Prefix]bool{}
				for len(universe) < 300 {
					p := randPrefix(rng)
					if !seen[p] {
						seen[p] = true
						universe = append(universe, p)
					}
				}
				for _, s := range []string{
					"10.0.0.0/8", "10.32.0.0/11", "10.32.0.0/16", "10.32.5.0/24", "10.32.5.128/25",
				} {
					if !seen[pfx(s)] {
						universe = append(universe, pfx(s))
					}
				}

				trie := NewRIB(multipath)
				ref := newRefRIB(multipath)

				mkPath := func(k int) *Path {
					a := PathAttrs{Origin: uint8(rng.Intn(2)), NextHop: peers[k]}
					switch rng.Intn(3) {
					case 0:
						a.ASPath = []uint16{65001}
					case 1:
						a.ASPath = []uint16{65002, 65001}
					default:
						a.ASPath = []uint16{uint16(65000 + k)}
					}
					if rng.Intn(4) == 0 {
						a.HasMED, a.MED = true, uint32(rng.Intn(3)*10)
					}
					if rng.Intn(5) == 0 {
						a.HasLP, a.LocalPref = true, uint32(100+rng.Intn(2)*50)
					}
					ibgp := k == 3
					if ibgp && rng.Intn(2) == 0 {
						a.OriginatorID = rids[rng.Intn(len(rids))]
						a.ClusterList = []netip.Addr{addr("9.9.9.1")}
					}
					return &Path{
						Attrs: trie.Intern(a), PeerAddr: peers[k], PeerRouterID: rids[k],
						Port: core.PortID(k + 1), IBGP: ibgp,
					}
				}

				fmtPaths := func(ps []*Path) string {
					s := ""
					for _, p := range ps {
						s += fmt.Sprintf("{peer=%v port=%d local=%v ibgp=%v attrs=%+v} ",
							p.PeerAddr, p.Port, p.Local, p.IBGP, p.Attrs.PathAttrs)
					}
					return s
				}
				decideBoth := func(p netip.Prefix) {
					t.Helper()
					gotSel, gotCh := trie.Decide(p)
					wantSel, wantCh := ref.Decide(p)
					if gotCh != wantCh {
						t.Fatalf("Decide(%v) changed: trie=%v oracle=%v", p, gotCh, wantCh)
					}
					// The returned views must be equivalent under the RIB's
					// own change predicate (an unchanged Decide may serve an
					// older field-equivalent buffer)...
					if !pathSetEqual(gotSel, wantSel) {
						t.Fatalf("Decide(%v) returned views diverged:\n trie:   %s\n oracle: %s",
							p, fmtPaths(gotSel), fmtPaths(wantSel))
					}
					// ...and the stored Loc-RIB selections must be
					// bit-identical: the same Path pointers in the same
					// order (locals excepted — they are built per RIB).
					gotSel, wantSel = trie.Best(p), ref.Best(p)
					if !samePathSet(gotSel, wantSel) {
						var refAdj []*Path
						for _, pa := range peers {
							if rp := ref.adjIn[pa][p]; rp != nil {
								refAdj = append(refAdj, rp)
							}
						}
						var trieAdj []*Path
						if e := trie.trie.Get(v4key(p)); e != nil {
							trieAdj = trie.candidates(e)
						}
						t.Fatalf("Decide(%v) selection diverged:\n trie:   %s\n oracle: %s\n trie adjIn:   %s\n oracle adjIn: %s",
							p, fmtPaths(gotSel), fmtPaths(wantSel), fmtPaths(trieAdj), fmtPaths(refAdj))
					}
				}

				for step := 0; step < 6000; step++ {
					p := universe[rng.Intn(len(universe))]
					k := rng.Intn(len(peers))
					switch {
					case step%500 == 499:
						// Session down: every route from one peer vanishes.
						gotAff := trie.DropPeer(peers[k])
						wantAff := ref.DropPeer(peers[k])
						if !samePrefixes(gotAff, wantAff) {
							t.Fatalf("DropPeer(%v) affected diverged:\n trie:   %v\n oracle: %v",
								peers[k], gotAff, wantAff)
						}
						for _, ap := range gotAff {
							decideBoth(ap)
						}
					case rng.Intn(50) == 0:
						// Local origination.
						la := PathAttrs{Origin: OriginIGP}
						trie.SetLocal(p, la)
						ref.SetLocal(p, la)
						decideBoth(p)
					case rng.Intn(10) < 3:
						// Withdraw.
						got := trie.UpdateAdjIn(peers[k], p, nil)
						want := ref.UpdateAdjIn(peers[k], p, nil)
						if got != want {
							t.Fatalf("withdraw(%v,%v) changed: trie=%v oracle=%v", peers[k], p, got, want)
						}
						decideBoth(p)
					default:
						// Announce (fresh path object, shared by both RIBs).
						path := mkPath(k)
						got := trie.UpdateAdjIn(peers[k], p, path)
						want := ref.UpdateAdjIn(peers[k], p, path)
						if got != want {
							t.Fatalf("announce(%v,%v) changed: trie=%v oracle=%v", peers[k], p, got, want)
						}
						decideBoth(p)
					}

					if step%100 == 99 {
						if !samePrefixes(trie.Prefixes(), ref.Prefixes()) {
							t.Fatalf("Prefixes diverged at step %d:\n trie:   %v\n oracle: %v",
								step, trie.Prefixes(), ref.Prefixes())
						}
						if !samePrefixes(trie.KnownPrefixes(), ref.KnownPrefixes()) {
							t.Fatalf("KnownPrefixes diverged at step %d", step)
						}
						// Longest-prefix-match spot check against a brute
						// force over the oracle's Loc-RIB.
						probe := universe[rng.Intn(len(universe))].Addr()
						bestBits, bestP := -1, netip.Prefix{}
						for _, q := range universe {
							if q.Contains(probe) && len(ref.Best(q)) > 0 && q.Bits() > bestBits {
								bestBits, bestP = q.Bits(), q
							}
						}
						got := trie.Lookup(probe)
						if bestBits < 0 {
							if got != nil {
								t.Fatalf("Lookup(%v) = %v, oracle says unreachable", probe, got)
							}
						} else if !samePathSet(got, ref.Best(bestP)) {
							t.Fatalf("Lookup(%v) diverged from oracle best for %v", probe, bestP)
						}
					}
				}

				// Final sweep: every known prefix agrees on its selection.
				for _, p := range ref.KnownPrefixes() {
					if !samePathSet(trie.Best(p), ref.Best(p)) {
						t.Fatalf("final Best(%v) diverged", p)
					}
				}
			})
		}
	}
}

// TestRIBChurnAllocs guards the steady-state churn allocation profile:
// a withdraw + re-announce + two decisions on a warm RIB must not
// allocate (the scratch/selected double buffer and in-place peer-slice
// edits are the whole point of the trie entry layout).
func TestRIBChurnAllocs(t *testing.T) {
	r := NewRIB(false)
	const n = 256
	peer0, peer1 := addr("172.16.0.1"), addr("172.16.0.3")
	h0 := r.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{65001}, NextHop: peer0})
	h1 := r.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{65002}, NextHop: peer1})
	prefixes := make([]netip.Prefix, n)
	paths0 := make([]*Path, n)
	for i := 0; i < n; i++ {
		prefixes[i] = pfx(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		paths0[i] = &Path{Attrs: h0, PeerAddr: peer0, PeerRouterID: addr("1.1.1.1"), Port: 1}
		r.UpdateAdjIn(peer0, prefixes[i], paths0[i])
		r.UpdateAdjIn(peer1, prefixes[i], &Path{Attrs: h1, PeerAddr: peer1, PeerRouterID: addr("2.2.2.2"), Port: 2})
		r.Decide(prefixes[i])
	}
	avg := testing.AllocsPerRun(20, func() {
		for i, p := range prefixes {
			r.UpdateAdjIn(peer0, p, nil)
			r.Decide(p)
			r.UpdateAdjIn(peer0, p, paths0[i])
			r.Decide(p)
		}
	})
	if perCycle := avg / n; perCycle > 1.0 {
		t.Fatalf("steady-state churn allocates %.2f allocs/cycle, want ~0", perCycle)
	}
}

// scalePrefixes synthesizes n consecutive /24s from 20.0.0.0 — the
// synthetic full-table shape the WAN scenarios originate.
func scalePrefixes(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		a := uint32(0x14000000) + uint32(i)*256
		out[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{
			byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a),
		}), 24)
	}
	return out
}

// benchChurn loads a full table from 8 peers (a WAN PoP's session
// degree), then measures single-route flap cycles (withdraw + decide +
// re-announce + decide) against a warm RIB — the pattern MRAI-paced
// convergence storms produce.
func benchChurn(b *testing.B, r ribAPI, prefixes []netip.Prefix) {
	var peers, rids []netip.Addr
	for k := 0; k < 8; k++ {
		peers = append(peers, addr(fmt.Sprintf("172.16.0.%d", 2*k+1)))
		rids = append(rids, addr(fmt.Sprintf("%d.%d.%d.%d", k+1, k+1, k+1, k+1)))
	}
	paths0 := make([]*Path, len(prefixes))
	for k, peer := range peers {
		h := attrsOf(PathAttrs{Origin: OriginIGP, ASPath: []uint16{uint16(65000 + k), 64512}, NextHop: peer})
		for i, p := range prefixes {
			path := &Path{Attrs: h, PeerAddr: peer, PeerRouterID: rids[k], Port: core.PortID(k + 1)}
			r.UpdateAdjIn(peer, p, path)
			if k == 0 {
				paths0[i] = path
			}
		}
	}
	for _, p := range prefixes {
		r.Decide(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := prefixes[i%len(prefixes)]
		r.UpdateAdjIn(peers[0], p, nil)
		r.Decide(p)
		r.UpdateAdjIn(peers[0], p, paths0[i%len(prefixes)])
		r.Decide(p)
	}
}

// BenchmarkRIBScale compares the trie RIB against the seed's map RIB at
// full-table sizes. The interesting numbers are allocs/op (the trie's
// warm path is allocation free) and the ns/op gap as the table grows.
func BenchmarkRIBScale(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 500_000} {
		prefixes := scalePrefixes(n)
		b.Run(fmt.Sprintf("trie/%d", n), func(b *testing.B) {
			benchChurn(b, NewRIB(false), prefixes)
		})
		b.Run(fmt.Sprintf("map/%d", n), func(b *testing.B) {
			benchChurn(b, newRefRIB(false), prefixes)
		})
	}
}

// BenchmarkUpdatePacking compares attribute-grouped UPDATE packing
// against one-message-per-prefix encoding for a 32-group, 16k-prefix
// advertisement batch (the per-MRAI-window flush shape).
func BenchmarkUpdatePacking(b *testing.B) {
	const groupsN, perGroup = 32, 512
	ps := scalePrefixes(groupsN * perGroup)
	groups := make([]UpdateGroup, groupsN)
	for i := range groups {
		groups[i] = UpdateGroup{
			Attrs: PathAttrs{
				Origin: OriginIGP, ASPath: []uint16{uint16(65000 + i), 64512},
				NextHop: addr("172.16.0.1"),
			},
			NLRI: ps[i*perGroup : (i+1)*perGroup],
		}
	}
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		msgs := 0
		for i := 0; i < b.N; i++ {
			out, err := PackUpdates(nil, groups)
			if err != nil {
				b.Fatal(err)
			}
			msgs = len(out)
		}
		b.ReportMetric(float64(msgs), "msgs")
	})
	b.Run("permsg", func(b *testing.B) {
		b.ReportAllocs()
		msgs := 0
		for i := 0; i < b.N; i++ {
			msgs = 0
			for _, g := range groups {
				for _, p := range g.NLRI {
					if _, err := EncodeUpdate(Update{Attrs: g.Attrs, NLRI: []netip.Prefix{p}}); err != nil {
						b.Fatal(err)
					}
					msgs++
				}
			}
		}
		b.ReportMetric(float64(msgs), "msgs")
	})
}

// TestRIBEntryHoldsNoPointers: the trie's value slab is noscan only while
// ribEntry holds nothing the collector must follow, and a table costs the
// entry's size per prefix.
func TestRIBEntryHoldsNoPointers(t *testing.T) {
	var walk func(typ reflect.Type, at string)
	walk = func(typ reflect.Type, at string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s", at, typ.Kind())
		case reflect.Array:
			walk(typ.Elem(), at+"[i]")
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(typ.Field(i).Type, at+"."+typ.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(ribEntry{}), "ribEntry")
	if size := unsafe.Sizeof(ribEntry{}); size > 24 {
		t.Errorf("ribEntry is %d bytes, want at most 24", size)
	}
}

// updateNLRI is how many /24s an UPDATE of the full-table runs carries: a
// speaker builds one Path per UPDATE.
const updateNLRI = 695

// slash24 is the i-th of the consecutive /24s scalePrefixes lists, made on
// demand: a list of netip.Prefix holds a pointer per prefix, which would
// be measured with the RIB.
func slash24(i int) netip.Prefix {
	a := uint32(0x14000000) + uint32(i)*256
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), 24)
}

// loadFullTable learns n consecutive /24s from each of peers eBGP peers
// with equally long AS paths into a multipath RIB, deciding each route as
// it lands, as a speaker does: one Path per UPDATE, and with two peers
// every prefix holds two candidates and a two-path selection.
func loadFullTable(n, peers int) *RIB {
	r := NewRIB(true)
	for k := range peers {
		peer := netip.AddrFrom4([4]byte{172, 16, 0, byte(2*k + 1)})
		h := r.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{uint16(65001 + k), 64512}, NextHop: peer})
		var path *Path
		for i := range n {
			if i%updateNLRI == 0 {
				path = &Path{Attrs: h, PeerAddr: peer, PeerRouterID: peer, Port: core.PortID(k + 1)}
			}
			p := slash24(i)
			r.UpdateAdjIn(peer, p, path)
			r.Decide(p)
		}
	}
	return r
}

// scanHeap collects and returns the heap bytes the collector scanned.
func scanHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestFullTableRIBIsNotScanned: a full table from one peer gives the
// collector nothing to scan but its few hundred Paths. With a pointer in
// every entry it scanned 78 bytes a prefix.
func TestFullTableRIBIsNotScanned(t *testing.T) {
	const n = 100_000
	before := scanHeap()
	r := loadFullTable(n, 1)
	scanned := scanHeap() - before
	runtime.KeepAlive(r)
	if per := float64(scanned) / n; per >= 4 {
		t.Fatalf("a %d-prefix RIB adds %.1f scannable bytes a prefix, want under 4", n, per)
	}
}

// BenchmarkRIBFullTable loads n consecutive /24s from one or two peers
// (loadFullTable) and reports what the RIB holds afterwards, measured
// across a collection: live B/prefix and objects/prefix, and
// scan-B/prefix, the part of it the collector scans.
func BenchmarkRIBFullTable(b *testing.B) {
	for _, peers := range []int{1, 2} {
		for _, n := range []int{100_000, 250_000, 500_000} {
			b.Run(fmt.Sprintf("peers=%d/n=%d", peers, n), func(b *testing.B) {
				var bytes, objects, scanned float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var m0, m1 runtime.MemStats
					s0 := scanHeap()
					runtime.ReadMemStats(&m0)
					b.StartTimer()
					r := loadFullTable(n, peers)
					b.StopTimer()
					s1 := scanHeap()
					runtime.ReadMemStats(&m1)
					bytes += float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
					objects += float64(m1.HeapObjects) - float64(m0.HeapObjects)
					scanned += float64(s1 - s0)
					runtime.KeepAlive(r)
					b.StartTimer()
				}
				b.ReportMetric(bytes/float64(b.N)/float64(n), "B/prefix")
				b.ReportMetric(objects/float64(b.N)/float64(n), "objects/prefix")
				b.ReportMetric(scanned/float64(b.N)/float64(n), "scan-B/prefix")
			})
		}
	}
}
