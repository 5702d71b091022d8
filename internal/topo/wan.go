package topo

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"repro/internal/core"
)

// This file holds the measured-WAN topology layer: a Rocketfuel-style
// seeded generator (degree-weighted PoP meshes with geographic
// coordinates and distance-derived link latency) plus a small embedded
// set of named backbones. Every PoP is one BGP router with one attached
// host; all routers share a single AS, so the control plane runs iBGP
// with route reflection (see internal/cm.BGPConfig.RouteReflection).
// Reflectors are chosen as a greedy connected dominating set, which
// guarantees the two invariants the RR wiring relies on: the reflector
// subgraph is connected through physical links, and every non-reflector
// PoP is physically adjacent to at least one reflector.

// FiberDelayPerKm is the propagation delay of light in fiber
// (~200,000 km/s), used to derive link latency from PoP distance.
const FiberDelayPerKm = 5 * core.Microsecond

// wanAccessDelay is the (scaled) propagation delay of a PoP's host
// access link; access spans are metro-scale, not geographic.
const wanAccessDelay = core.Microsecond

// The generated WANs' fixed parameters: every router of a single-AS WAN
// (and the first AS of a multi-AS chain) is in AS wanASN; every backbone,
// access and peering link runs at wanLinkRate; generated PoP fields span
// wanRegionKm (continental scale); and adjacent ASes of a chain are
// joined by peeringLinks cables (a primary and a geographically
// redundant crossing, landing on distinct border PoPs on both sides).
// A generated mesh adds PoPs/2 shortcut chords.
const (
	wanASN       = 65000
	wanLinkRate  = 10 * core.Gbps
	wanRegionKm  = 4000
	peeringLinks = 2
)

// WANOpts parameterizes WANGraph and WANNamed.
type WANOpts struct {
	// PoPs is the number of points of presence (router + host pairs)
	// in a generated mesh; ignored by WANNamed. Minimum 3, maximum 200.
	PoPs int
	// Seed drives every random choice of WANGraph; the same seed and
	// parameters reproduce the identical graph, link for link.
	Seed int64
	// DelayScale multiplies every geographic propagation delay; the
	// zero value means 1 (fiber at 5µs/km). Negative, NaN and infinite
	// values are rejected.
	DelayScale float64
	// ZeroLatency zeroes every propagation delay (a DelayScale of 0
	// cannot be expressed directly, since 0 is the "default" value).
	// Zero-latency WANs are the parity ablation: identical structure,
	// instantaneous control plane delivery.
	ZeroLatency bool
}

func (o WANOpts) withDefaults() (WANOpts, error) {
	if o.DelayScale < 0 || math.IsNaN(o.DelayScale) || math.IsInf(o.DelayScale, 1) {
		return o, fmt.Errorf("topo: WAN delay scale must be a finite number >= 0, got %v", o.DelayScale)
	}
	if o.DelayScale == 0 {
		o.DelayScale = 1
	}
	if o.ZeroLatency {
		o.DelayScale = 0
	}
	return o, nil
}

// linkDelay converts a PoP distance in km into a propagation delay.
func (o WANOpts) linkDelay(km float64) core.Time {
	return core.Time(float64(FiberDelayPerKm) * km * o.DelayScale)
}

// WANGraph generates a seeded Rocketfuel-style WAN: PoPs scattered over
// a wanRegionKm field, joined by degree-weighted preferential attachment
// (heavy-tailed PoP degrees, as measured ISP maps show) with a distance
// penalty (fiber follows geography), plus PoPs/2 distance-biased
// shortcut links. Link delay is distance at fiber speed (5µs/km) times
// DelayScale. Reflectors are a greedy connected dominating set over the
// result. The same WANOpts produce the identical graph.
func WANGraph(o WANOpts) (*Graph, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.PoPs < 3 {
		return nil, fmt.Errorf("topo: WAN needs >= 3 PoPs, got %d", o.PoPs)
	}
	if o.PoPs > 200 {
		return nil, fmt.Errorf("topo: WAN larger than addressing space: %d PoPs", o.PoPs)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	m := genWANMesh(o.PoPs, rng)

	names := make([]string, o.PoPs)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	adj := adjacency(o.PoPs, func(yield func(a, b int)) {
		for _, e := range m.edges {
			yield(e[0], e[1])
		}
	})
	delays := make([]core.Time, len(m.edges))
	for i, e := range m.edges {
		delays[i] = o.linkDelay(m.dist(e[0], e[1]))
	}
	return buildWAN(o, names, adj, func(i int) (int, int) { return m.edges[i][0], m.edges[i][1] }, len(m.edges), delays)
}

// wanMesh is one generated PoP field: coordinates in km plus backbone
// edges. Shared by WANGraph (one mesh = one AS) and WANMultiAS (one
// mesh per component AS).
type wanMesh struct {
	xs, ys []float64
	edges  [][2]int
}

// dist is the euclidean PoP distance in km.
func (m *wanMesh) dist(i, j int) float64 {
	dx, dy := m.xs[i]-m.xs[j], m.ys[i]-m.ys[j]
	return math.Hypot(dx, dy)
}

// genWANMesh draws a Rocketfuel-style mesh from rng: PoPs scattered over
// a wanRegionKm field, joined by degree-weighted distance-penalized
// preferential attachment plus pops/2 shortcut chords. The rng is
// consumed in a fixed order, so the same stream reproduces the
// identical mesh.
func genWANMesh(pops int, rng *rand.Rand) wanMesh {
	// PoP coordinates: uniform over a continental-aspect field.
	xs := make([]float64, pops)
	ys := make([]float64, pops)
	for i := range xs {
		xs[i] = rng.Float64() * wanRegionKm
		ys[i] = rng.Float64() * wanRegionKm * 0.6
	}
	m := wanMesh{xs: xs, ys: ys}

	// Degree-weighted, distance-penalized preferential attachment.
	deg := make([]int, pops)
	seen := make(map[[2]int]bool)
	addEdge := func(a, b int) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return false
		}
		seen[[2]int{a, b}] = true
		m.edges = append(m.edges, [2]int{a, b})
		deg[a]++
		deg[b]++
		return true
	}
	addEdge(0, 1)
	for i := 2; i < pops; i++ {
		// Weight existing PoPs by degree over distance.
		total := 0.0
		w := make([]float64, i)
		for j := 0; j < i; j++ {
			w[j] = float64(deg[j]+1) / (0.1 + m.dist(i, j)/wanRegionKm)
			total += w[j]
		}
		pick := rng.Float64() * total
		j := 0
		for ; j < i-1; j++ {
			pick -= w[j]
			if pick <= 0 {
				break
			}
		}
		addEdge(i, j)
	}
	// Shortcut chords, biased toward short spans: sample pairs and keep
	// the closer of two candidates.
	chords := pops / 2
	for added, tries := 0, 0; added < chords && tries < 50*chords; tries++ {
		a1, b1 := rng.Intn(pops), rng.Intn(pops)
		a2, b2 := rng.Intn(pops), rng.Intn(pops)
		if a1 != b1 && (a2 == b2 || m.dist(a1, b1) <= m.dist(a2, b2)) {
			if addEdge(a1, b1) {
				added++
			}
		} else if a2 != b2 {
			if addEdge(a2, b2) {
				added++
			}
		}
	}
	return m
}

// WANNames lists the embedded named topologies accepted by WANNamed.
func WANNames() []string { return []string{"abilene", "tier1"} }

// wanCity is one PoP of an embedded named topology.
type wanCity struct {
	name     string
	lat, lon float64
}

// abilene approximates the Abilene / Internet2 research backbone:
// 11 PoPs, 14 links.
var abileneCities = []wanCity{
	{"sea", 47.61, -122.33}, // Seattle
	{"snv", 37.37, -122.04}, // Sunnyvale
	{"lax", 34.05, -118.24}, // Los Angeles
	{"den", 39.74, -104.99}, // Denver
	{"ksc", 39.10, -94.58},  // Kansas City
	{"hou", 29.76, -95.37},  // Houston
	{"chi", 41.88, -87.63},  // Chicago
	{"ipl", 39.77, -86.16},  // Indianapolis
	{"atl", 33.75, -84.39},  // Atlanta
	{"wdc", 38.91, -77.04},  // Washington DC
	{"nyc", 40.71, -74.01},  // New York
}

var abileneLinks = [][2]int{
	{0, 1}, {0, 3}, // sea-snv, sea-den
	{1, 2}, {1, 3}, // snv-lax, snv-den
	{2, 5},         // lax-hou
	{3, 4},         // den-ksc
	{4, 5}, {4, 7}, // ksc-hou, ksc-ipl
	{5, 8},          // hou-atl
	{6, 7}, {6, 10}, // chi-ipl, chi-nyc
	{7, 8},  // ipl-atl
	{8, 9},  // atl-wdc
	{9, 10}, // wdc-nyc
}

// tier1 is a tier-1-like transatlantic backbone: a US long-haul mesh,
// a European ring, and two ocean crossings. 18 PoPs, 26 links.
var tier1Cities = []wanCity{
	{"sea", 47.61, -122.33},
	{"sjc", 37.34, -121.89},
	{"lax", 34.05, -118.24},
	{"den", 39.74, -104.99},
	{"dfw", 32.78, -96.80},
	{"chi", 41.88, -87.63},
	{"atl", 33.75, -84.39},
	{"mia", 25.76, -80.19},
	{"wdc", 38.91, -77.04},
	{"nyc", 40.71, -74.01},
	{"lon", 51.51, -0.13},
	{"par", 48.86, 2.35},
	{"ams", 52.37, 4.90},
	{"fra", 50.11, 8.68},
	{"mad", 40.42, -3.70},
	{"mil", 45.46, 9.19},
	{"sto", 59.33, 18.07},
	{"vie", 48.21, 16.37},
}

var tier1Links = [][2]int{
	{0, 1}, {0, 3}, // sea-sjc, sea-den
	{1, 2}, {1, 3}, // sjc-lax, sjc-den
	{2, 4},         // lax-dfw
	{3, 5},         // den-chi
	{4, 5}, {4, 6}, // dfw-chi, dfw-atl
	{5, 9},         // chi-nyc
	{6, 7}, {6, 8}, // atl-mia, atl-wdc
	{8, 9},           // wdc-nyc
	{9, 10}, {8, 10}, // nyc-lon, wdc-lon (transatlantic)
	{10, 11}, {10, 12}, // lon-par, lon-ams
	{11, 13}, {11, 14}, // par-fra, par-mad
	{12, 13}, {12, 16}, // ams-fra, ams-sto
	{13, 15}, {13, 17}, // fra-mil, fra-vie
	{14, 15}, // mad-mil
	{15, 17}, // mil-vie
	{16, 17}, // sto-vie
	{16, 13}, // sto-fra
}

// WANNamed builds one of the embedded measured topologies ("abilene",
// "tier1") with link latency derived from great-circle city distance.
// Seed and PoPs in opts are ignored; DelayScale and ZeroLatency apply.
func WANNamed(name string, o WANOpts) (*Graph, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	var cities []wanCity
	var links [][2]int
	switch name {
	case "abilene":
		cities, links = abileneCities, abileneLinks
	case "tier1":
		cities, links = tier1Cities, tier1Links
	default:
		return nil, fmt.Errorf("topo: unknown WAN topology %q (have %v)", name, WANNames())
	}
	names := make([]string, len(cities))
	for i, c := range cities {
		names[i] = c.name
	}
	adj := adjacency(len(cities), func(yield func(a, b int)) {
		for _, l := range links {
			yield(l[0], l[1])
		}
	})
	delays := make([]core.Time, len(links))
	for i, l := range links {
		delays[i] = o.linkDelay(haversineKm(cities[l[0]], cities[l[1]]))
	}
	return buildWAN(o, names, adj, func(i int) (int, int) { return links[i][0], links[i][1] }, len(links), delays)
}

// MultiASOpts parameterizes WANMultiAS: a chain of WANGraph-style
// backbones, one autonomous system each, joined by eBGP peering links.
type MultiASOpts struct {
	// WANOpts applies to each component AS: PoPs sizes every backbone
	// and Seed drives all random choices. The fields WANGraph validates
	// are validated here with the same limits.
	WANOpts
	// ASes is how many backbones to compose (default 3, range 2..8 —
	// bounded by the per-AS 10.(as+1).pop.0/24 addressing plan).
	ASes int
	// FullTablePrefixes synthesizes an Internet-scale routing table:
	// this many /24s drawn from 20.0.0.0 are split between the two
	// edge (stub) ASes of the chain and originated round-robin by
	// their PoP routers (Node.Originate). No hosts sit behind them;
	// they exist to drive RIB size and UPDATE volume. Max 524288.
	FullTablePrefixes int
}

// maxFullTablePrefixes bounds the synthetic table: half a million /24s
// (full current-Internet scale) keeps the 20.0.0.0-based block clear of
// both the 10.0.0.0/8 PoP space and the 172.16.0.0/12 p2p space.
const maxFullTablePrefixes = 1 << 19

// fullTablePrefix is the k-th synthetic /24 (20.0.0.0, 20.0.1.0, ...).
func fullTablePrefix(k int) netip.Prefix {
	return netip.PrefixFrom(core.IPv4FromUint32(0x1400_0000+uint32(k)*256), 24)
}

// WANMultiAS composes ASes seeded backbones into a west-to-east chain of
// eBGP-peered autonomous systems: each AS is a WANGraph-style mesh with
// its own ASN (wanASN+as), addressing (10.(as+1).pop.0/24), and iBGP route
// reflector set; adjacent ASes are joined by peeringLinks cables between
// their geographically closest border PoPs, which become eBGP sessions
// when the control plane is wired (internal/cm peers by ASN equality).
// The two edge ASes originate FullTablePrefixes synthetic /24s between
// them, modelling stub networks injecting a full table into the transit
// core. The same options reproduce the identical graph.
func WANMultiAS(o MultiASOpts) (*Graph, error) {
	wo, err := o.WANOpts.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.ASes == 0 {
		o.ASes = 3
	}
	if o.ASes < 2 || o.ASes > 8 {
		return nil, fmt.Errorf("topo: multi-AS WAN wants 2..8 ASes, got %d", o.ASes)
	}
	if wo.PoPs < 3 {
		return nil, fmt.Errorf("topo: WAN needs >= 3 PoPs per AS, got %d", wo.PoPs)
	}
	if wo.PoPs > 200 {
		return nil, fmt.Errorf("topo: WAN larger than addressing space: %d PoPs per AS", wo.PoPs)
	}
	if o.FullTablePrefixes < 0 || o.FullTablePrefixes > maxFullTablePrefixes {
		return nil, fmt.Errorf("topo: full-table size %d out of range [0, %d]", o.FullTablePrefixes, maxFullTablePrefixes)
	}

	// One mesh per AS from a single rng stream, fields offset eastward
	// so inter-AS spans carry geographic delay like intra-AS ones.
	rng := rand.New(rand.NewSource(wo.Seed))
	meshes := make([]wanMesh, o.ASes)
	for a := range meshes {
		meshes[a] = genWANMesh(wo.PoPs, rng)
		off := float64(a) * wanRegionKm * 1.25
		for i := range meshes[a].xs {
			meshes[a].xs[i] += off
		}
	}

	g := New()
	routers := make([][]*Node, o.ASes)
	accessDelay := core.Time(float64(wanAccessDelay) * wo.DelayScale)
	for a := 0; a < o.ASes; a++ {
		m := &meshes[a]
		adj := adjacency(wo.PoPs, func(yield func(x, y int)) {
			for _, e := range m.edges {
				yield(e[0], e[1])
			}
		})
		reflectors := chooseReflectors(adj)
		routers[a] = make([]*Node, wo.PoPs)
		for i := 0; i < wo.PoPs; i++ {
			r := g.AddRouter(fmt.Sprintf("a%dr%d", a, i))
			r.Idx = i
			r.Pod = a // Pod doubles as the AS index
			r.IP = netip.AddrFrom4([4]byte{10, byte(a + 1), byte(i), 1})
			r.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(a + 1), byte(i), 0}), 24)
			r.ASN = wanASN + uint32(a)
			if reflectors[i] {
				r.RouteReflector = true
				r.Layer = LayerCore
			} else {
				r.Layer = LayerEdge
			}
			routers[a][i] = r
			h := g.AddHost(fmt.Sprintf("ha%dr%d", a, i))
			h.Idx = i
			h.Pod = a
			h.IP = netip.AddrFrom4([4]byte{10, byte(a + 1), byte(i), 2})
			h.Prefix = netip.PrefixFrom(h.IP, 32)
			g.Connect(r, h, wanLinkRate, accessDelay)
		}
		for _, e := range m.edges {
			g.Connect(routers[a][e[0]], routers[a][e[1]], wanLinkRate, wo.linkDelay(m.dist(e[0], e[1])))
		}
	}

	// eBGP peering: each adjacent AS pair joins at its peeringLinks
	// closest cross-field PoP pairs, preferring distinct border routers
	// on both sides so one PoP failure cannot partition the chain.
	for a := 0; a+1 < o.ASes; a++ {
		type crossing struct {
			i, j int
			km   float64
		}
		cands := make([]crossing, 0, wo.PoPs*wo.PoPs)
		for i := 0; i < wo.PoPs; i++ {
			for j := 0; j < wo.PoPs; j++ {
				dx := meshes[a].xs[i] - meshes[a+1].xs[j]
				dy := meshes[a].ys[i] - meshes[a+1].ys[j]
				cands = append(cands, crossing{i, j, math.Hypot(dx, dy)})
			}
		}
		sort.Slice(cands, func(x, y int) bool {
			if cands[x].km != cands[y].km {
				return cands[x].km < cands[y].km
			}
			if cands[x].i != cands[y].i {
				return cands[x].i < cands[y].i
			}
			return cands[x].j < cands[y].j
		})
		usedI := make(map[int]bool)
		usedJ := make(map[int]bool)
		added := 0
		for _, c := range cands {
			if added == peeringLinks {
				break
			}
			if usedI[c.i] || usedJ[c.j] {
				continue
			}
			usedI[c.i], usedJ[c.j] = true, true
			g.Connect(routers[a][c.i], routers[a+1][c.j], wanLinkRate, wo.linkDelay(c.km))
			added++
		}
	}

	// Full-table origination: synthetic /24s alternate between the two
	// edge ASes and round-robin over each one's PoP routers.
	if o.FullTablePrefixes > 0 {
		edgeASes := []int{0, o.ASes - 1}
		owner := func(k int) *Node {
			rs := routers[edgeASes[k%len(edgeASes)]]
			return rs[(k/len(edgeASes))%len(rs)]
		}
		// Count each router's share first: grown by append, a 12 500-entry
		// list is copied a dozen times on the way up.
		share := make([]int, len(g.Nodes))
		for k := 0; k < o.FullTablePrefixes; k++ {
			share[owner(k).ID]++
		}
		for id, n := range share {
			if n > 0 {
				g.Nodes[id].Originate = make([]netip.Prefix, 0, n)
			}
		}
		for k := 0; k < o.FullTablePrefixes; k++ {
			r := owner(k)
			r.Originate = append(r.Originate, fullTablePrefix(k))
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// haversineKm is the great-circle distance between two cities.
func haversineKm(a, b wanCity) float64 {
	const earthRadiusKm = 6371
	rad := func(deg float64) float64 { return deg * math.Pi / 180 }
	dLat := rad(b.lat - a.lat)
	dLon := rad(b.lon - a.lon)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(rad(a.lat))*math.Cos(rad(b.lat))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// adjacency materializes an adjacency list from an edge enumerator.
func adjacency(n int, edges func(yield func(a, b int))) [][]int {
	adj := make([][]int, n)
	edges(func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	})
	return adj
}

// chooseReflectors returns a greedy connected dominating set: start from
// the highest-degree PoP, then repeatedly absorb the neighbor of the
// current set covering the most uncovered PoPs (ties to the lower
// index). On a connected graph the result is connected through physical
// links and dominates every PoP — exactly the invariants the per-link
// iBGP route-reflector wiring needs. Deterministic.
func chooseReflectors(adj [][]int) map[int]bool {
	n := len(adj)
	best := 0
	for i := 1; i < n; i++ {
		if len(adj[i]) > len(adj[best]) {
			best = i
		}
	}
	set := map[int]bool{best: true}
	covered := make([]bool, n)
	cover := func(v int) {
		covered[v] = true
		for _, u := range adj[v] {
			covered[u] = true
		}
	}
	cover(best)
	allCovered := func() bool {
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}
	for !allCovered() {
		cand, candGain := -1, -1
		// Frontier: neighbors of the set, in sorted order for
		// determinism.
		frontier := map[int]bool{}
		for v := range set {
			for _, u := range adj[v] {
				if !set[u] {
					frontier[u] = true
				}
			}
		}
		keys := make([]int, 0, len(frontier))
		for v := range frontier {
			keys = append(keys, v)
		}
		sort.Ints(keys)
		for _, v := range keys {
			gain := 0
			if !covered[v] {
				gain++
			}
			for _, u := range adj[v] {
				if !covered[u] {
					gain++
				}
			}
			if gain > candGain {
				cand, candGain = v, gain
			}
		}
		if cand < 0 {
			break // disconnected graph; remaining PoPs cannot be dominated
		}
		set[cand] = true
		cover(cand)
	}
	return set
}

// buildWAN assembles the graph: one router + host per PoP, backbone
// cables with the given per-link delays, reflector flags from the
// greedy dominating set.
func buildWAN(o WANOpts, names []string, adj [][]int, link func(i int) (a, b int), nlinks int, delays []core.Time) (*Graph, error) {
	n := len(names)
	reflectors := chooseReflectors(adj)
	g := New()
	routers := make([]*Node, n)
	accessDelay := core.Time(float64(wanAccessDelay) * o.DelayScale)
	for i := 0; i < n; i++ {
		r := g.AddRouter(names[i])
		r.Idx = i
		r.IP = netip.AddrFrom4([4]byte{10, 1, byte(i), 1})
		r.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i), 0}), 24)
		r.ASN = wanASN
		if reflectors[i] {
			r.RouteReflector = true
			r.Layer = LayerCore
		} else {
			r.Layer = LayerEdge
		}
		routers[i] = r
		h := g.AddHost("h" + names[i])
		h.Idx = i
		h.IP = netip.AddrFrom4([4]byte{10, 1, byte(i), 2})
		h.Prefix = netip.PrefixFrom(h.IP, 32)
		g.Connect(r, h, wanLinkRate, accessDelay)
	}
	for i := 0; i < nlinks; i++ {
		a, b := link(i)
		g.Connect(routers[a], routers[b], wanLinkRate, delays[i])
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
