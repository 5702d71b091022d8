// Package fluid implements Horse's simulated data plane: a fluid traffic
// model in which flows are continuous rates rather than packets. Link
// bandwidth is shared by max–min fairness (water-filling), which is the
// behaviour the paper's constant-rate UDP demo workload induces.
//
// The model is purely event-driven: rates only change when the flow set or
// the routing changes, so between control plane events the simulator can
// fast-forward (DES mode) at almost zero cost — this is precisely where
// Horse's speedup over packet-level emulation comes from.
//
// # Storage layout
//
// The set stores flows and links in struct-of-arrays form: a dense integer
// handle is assigned to each flow at Add (recycled through a freelist on
// Remove) and to each link the first time it is seen, and every per-flow
// and per-link attribute lives in its own parallel slice indexed by
// handle. Paths and link membership lists are blocks carved out of two
// shared pair arenas (see pairArena): a flow's path block holds, per hop,
// the link handle and the flow's index in that link's member list; a
// link's member block holds, per member, the flow handle and the hop index
// within that flow's path. Both sides store *relative* indices, so a block
// relocation (growth or compaction) never invalidates the back-references
// and detach stays O(path length) via swap-remove.
//
// Public identifiers (FlowID, core.LinkID) are translated to handles at
// the Set boundary; no handle ever escapes. Accessors return value
// snapshots (Flow) rather than pointers into the store.
//
// # Solver architecture
//
// The set keeps persistent per-link state — capacity, the member list of
// active flows crossing the link, and the granted load — updated
// incrementally on Add, Remove and SetPath rather than rebuilt inside
// Solve. A mutation seeds its links into the dirty set. Solve expands the
// seeds, in seeding order, into connected components of links and flows
// reachable through shared links and re-solves only those regions, one
// after another, leaving every other allocation (and link load) untouched.
// Within a component, rates are computed by sorted water-filling: links
// sit in a min-heap keyed by the fill level at which they saturate, and
// each round freezes a whole saturated link (all its unfrozen flows at the
// current level) or a batch of demand-limited flows — never one epsilon
// increment at a time. The re-solve path
// performs no heap allocations in steady state: component discovery writes
// flow and link handles into two grown-once scratch slices shared by all
// tasks of a solve (a CSR over components), and the water-fill reuses one
// grown-once heap slice.
//
// # Speculative closure: passive and active links
//
// Max–min allocation is bottleneck-local: a flow is governed by the one
// saturated link that froze it, and a link that ends a fill unsaturated
// never fired and set no level. Where links outnumber flows most of a
// region's links are of that kind, so the closure speculates. A link whose
// standing granted load sits below its capacity by more than a margin
// (slack) is passive for the solve: it does not pull its other members
// into the region, does not enter the saturation heap and is not synced
// when a flow freezes. Every other link is active and behaves as
// described above. The flows attached since the last solve are seeds in
// their own right, since a passive link would not lead to them.
//
// After the fill the speculation is checked (promote): each passive
// link's load is recomputed over all its members, inside the region or
// not, and a link found over capacity is promoted to active, the closure
// continues from it, and the whole region discovered so far is filled
// again as one component. At most maxSpecRefills such refills are followed
// by one fill with every link of the region active, which is the full
// closure, so a solve is bounded by a fixed number of fills of at most its
// full component however the speculation fares.
//
// The result is exact by the bottleneck property, not by agreement with a
// second solver. Every link that can fire is active and has all its
// members in the region, so the region's flows are frozen exactly as a
// full fill would freeze them once no passive link is over capacity. A
// flow left outside was frozen by its demand or by a link that fired in
// an earlier fill; that link is saturated up to epsilon per member, hence
// not slack, hence never passive: had the region touched it, the flow
// would be inside. It meets region flows only on links verified to stay
// within capacity, so its bottleneck stands. A link whose capacity just
// changed is always active (its standing load says nothing about its new
// capacity), as are zero-capacity links and links within the margin.
//
// Speculating trims per-link work and risks redoing per-flow work, so it
// is gated on two things the Set observes. First, fewer live flows than
// known links: with 60 000 flows on a 768-link fat-tree every link is
// saturated or nearly so, nothing would stay passive, and the check would
// be pure overhead. Second, the solve answers a single mutation (a direct
// Add, Remove, SetPath or SetCapacity), not a Defer batch: standing loads
// predict well when one mutation separates the standing allocation from
// the new one and badly after a coalesced reroute storm (0.14 refills per
// solve under flow churn against 0.7-0.85 over the batches of a BGP
// convergence, same fat-tree), and batches are what the control plane
// produces in wall-clock order, where a fill of history-dependent regions
// would leave history-dependent last bits in the converged rates (below).
// Gated off, every link is active, no flow is a seed that its links have
// not already reached, and the solve is the plain closure and fill: same
// regions, same discovery order, same arithmetic (up to the level cut).
//
// # Level cut
//
// Water-filling raises one level in order, so after a single Add or
// Remove every step of the fill below that flow's level repeats and the
// flows frozen below it cannot move. A solve that answers exactly one
// Add or Remove therefore holds them. The mutation fixes the solve's
// level τ:
//
//   - Remove of an attached flow: its standing rate. It was unfrozen up to
//     that level, so none of its links fired below it.
//   - Add of an active routed flow: its demand, capped by capacity over
//     member count (the flow included) on each link of its path. Each link
//     grants each member at least that share, so none fires below it, and
//     the new rate is at least τ.
//   - Anything else (SetPath, SetCapacity, a Defer batch, or more than one
//     mutation since the last solve): 0, which holds nobody.
//
// A member is held when its standing rate is below τ - epsilon and it was
// not attached since the last solve (an attached flow is a seed and always
// joins). expand does not pull a held member in; on a link in the fill,
// held members are fixed load: the residual starts at capacity minus their
// sum, the unfrozen count is the number of members in the region, and the
// granted load starts at their sum, as it does for a component with no
// flow in the region. Refills after promote keep τ.
//
// The result is exact up to epsilon. Below τ the new fill takes the same
// steps as the old one, so every flow frozen below τ keeps its rate, and
// a held flow's bottleneck fired below τ and still does. A flow at or
// above τ that the region does not reach meets it only through held flows
// or passive links, and promote verifies those as before. With nobody
// held the fill is the plain one: same region, same order, same
// arithmetic.
//
// Solver output is defined up to epsilon, not to the bit: when several
// links sit within epsilon of a round's level, whichever is on top of the
// heap sets it, and the heap's order depends on which links are in it. Two
// histories reaching the same state — or two versions of this solver —
// may differ in the last bits of a rate (a few ulp, healing on the next
// solve of the region), the more so the more the regions they filled
// differ, which is the second reason batches take the plain closure. What
// is bit-identical is one history, every time: discovery order and fill
// arithmetic depend on the mutation history alone (the golden rate digests
// in the tests pin it); across versions the contract is the fingerprint
// digests of the pinned specs.
//
// Complexity per fill, for a dirty component with F flows, L active links
// and P hops of which Pa cross active links: O(P + F log F + (L + Pa) log L),
// where F counts only the flows at or above the level cut and Pa includes
// the held members of the region's active links, which are summed but not
// filled; a speculating solve adds O(P) for the check and makes at most
// maxSpecRefills+2 fills.
package fluid

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// FlowID identifies a flow within one experiment.
type FlowID uint64

// flowReserved is a reserved id rejected by Add (historically the
// insertion-order tombstone marker; kept reserved for compatibility).
const flowReserved = ^FlowID(0)

// State is the lifecycle of a flow.
type State uint8

const (
	// Pending flows have been requested but are not yet forwarded
	// (e.g. waiting for a reactive controller to install rules).
	Pending State = iota
	// Active flows are routed and receive a rate allocation.
	Active
	// Done flows have finished.
	Done

	// stateFree marks a recycled flow slot in the store; it never escapes
	// through the public API.
	stateFree State = 0xFF
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Done:
		return "done"
	}
	return fmt.Sprintf("state%d", int(s))
}

// Flow is the public view of one fluid flow: the spec a caller hands to
// Add, and the value snapshot accessors return. The Set copies the spec
// into its struct-of-arrays store; the caller's struct is not retained,
// and later rate or state changes are observed through Flow/Flows/
// AppendFlows, not through the struct passed to Add.
type Flow struct {
	ID    FlowID
	Tuple core.FiveTuple
	Src   core.NodeID // source host
	Dst   core.NodeID // destination host

	// Demand is the offered rate (the demo: 1 Gbps UDP per host).
	Demand core.Rate

	// Path is the route as directed link IDs; nil/empty means the flow is
	// blackholed (no route) and receives rate 0. In a spec it is the
	// initial route (changed later through Set.SetPath); in snapshots it
	// is non-nil only where documented (Flows copies it, Flow and
	// AppendFlows leave it nil — use AppendPath).
	Path []core.LinkID

	// Rate is the current max–min fair allocation.
	Rate core.Rate

	// Bytes accumulates delivered bytes (rate integrated over time).
	Bytes uint64

	State State
}

// block is one allocation out of a pairArena: n live entries at off, with
// room for cap before the block must be relocated.
type block struct {
	off, n, cap int32
}

// pairArena is a block allocator over two parallel int32 payload slices —
// the backing store for path blocks (link handle, member index) and
// member blocks (flow handle, hop index). Blocks grow by relocation to
// the end of the arena (doubling), abandoning their old region; the
// abandoned volume is tracked in dead and reclaimed by compact, which
// ping-pongs the payload into a spare backing so steady-state compaction
// allocates nothing once both backings have grown to size.
type pairArena struct {
	a, b           []int32
	spareA, spareB []int32
	dead           int32
}

// grow ensures blk has capacity for need entries, relocating its n live
// entries to the end of the arena if not.
func (ar *pairArena) grow(blk *block, need int32) {
	if blk.cap >= need {
		return
	}
	ncap := blk.cap * 2
	if ncap < need {
		ncap = need
	}
	if ncap < 4 {
		ncap = 4
	}
	off := int32(len(ar.a))
	ar.a = append(ar.a, ar.a[blk.off:blk.off+blk.n]...)
	ar.b = append(ar.b, ar.b[blk.off:blk.off+blk.n]...)
	pad := ncap - blk.n
	for i := int32(0); i < pad; i++ {
		ar.a = append(ar.a, 0)
		ar.b = append(ar.b, 0)
	}
	ar.dead += blk.cap
	blk.off, blk.cap = off, ncap
}

// append1 appends one pair to blk and returns its index within the block.
func (ar *pairArena) append1(blk *block, x, y int32) int32 {
	if blk.n == blk.cap {
		ar.grow(blk, blk.n+1)
	}
	i := blk.off + blk.n
	ar.a[i], ar.b[i] = x, y
	blk.n++
	return blk.n - 1
}

// setLen resizes blk to n entries, reusing its region when it fits (the
// common case under churn: a recycled flow slot whose new path is no
// longer than the old one) and relocating otherwise. Contents are
// unspecified afterwards; the caller rewrites them.
func (ar *pairArena) setLen(blk *block, n int32) {
	if n > blk.cap {
		blk.n = 0 // old contents are dead; don't copy them
		ar.grow(blk, n)
	}
	blk.n = n
}

// needCompact reports whether abandoned regions dominate the arena. The
// absolute floor keeps tiny sets from compacting on every churn op.
func (ar *pairArena) needCompact() bool {
	return ar.dead > 1024 && int(ar.dead)*2 > len(ar.a)
}

// compact rewrites every owner block contiguously into the spare backing
// and swaps backings. Blocks shrink to their live length; relative
// indices stored in payloads stay valid because only offsets change.
func (ar *pairArena) compact(blocks []block) {
	da, db := ar.spareA[:0], ar.spareB[:0]
	for i := range blocks {
		blk := &blocks[i]
		if blk.cap == 0 {
			continue
		}
		off := int32(len(da))
		da = append(da, ar.a[blk.off:blk.off+blk.n]...)
		db = append(db, ar.b[blk.off:blk.off+blk.n]...)
		blk.off, blk.cap = off, blk.n
	}
	ar.spareA, ar.a = ar.a, da
	ar.spareB, ar.b = ar.b, db
	ar.dead = 0
}

// bytes reports the arena's resident size, both backings included.
func (ar *pairArena) bytes() int {
	return 4 * (cap(ar.a) + cap(ar.b) + cap(ar.spareA) + cap(ar.spareB))
}

// MemStats gauges the set's resident storage after a solve. Everything
// here is a function of the mutation history alone.
type MemStats struct {
	// FlowSlots is the length of the dense flow table: live flows plus
	// freelist slots awaiting reuse.
	FlowSlots int
	// LiveFlows is the number of live (pending or active) flows.
	LiveFlows int
	// FreeFlows is the freelist depth (slots recycled by Remove and not
	// yet reused by Add).
	FreeFlows int
	// LinkSlots is the number of links ever seen (links are not freed).
	LinkSlots int
	// PathArenaBytes and MemberArenaBytes are the resident sizes of the
	// two pair arenas (path blocks and link member blocks).
	PathArenaBytes   int
	MemberArenaBytes int
	// ScratchBytes is the component-discovery CSR scratch (shared task
	// flow/link handle slices), grown once and reused across solves.
	ScratchBytes int
}

// max folds the elementwise maximum of o into m (peak tracking).
func (m *MemStats) max(o MemStats) {
	if o.FlowSlots > m.FlowSlots {
		m.FlowSlots = o.FlowSlots
	}
	if o.LiveFlows > m.LiveFlows {
		m.LiveFlows = o.LiveFlows
	}
	if o.FreeFlows > m.FreeFlows {
		m.FreeFlows = o.FreeFlows
	}
	if o.LinkSlots > m.LinkSlots {
		m.LinkSlots = o.LinkSlots
	}
	if o.PathArenaBytes > m.PathArenaBytes {
		m.PathArenaBytes = o.PathArenaBytes
	}
	if o.MemberArenaBytes > m.MemberArenaBytes {
		m.MemberArenaBytes = o.MemberArenaBytes
	}
	if o.ScratchBytes > m.ScratchBytes {
		m.ScratchBytes = o.ScratchBytes
	}
}

// SolveStats describes the work done by one solve, the sample Totals
// accumulates. A solve covering several independent dirty components
// reports their merged totals.
type SolveStats struct {
	// Flows and Links are the total sizes of the re-solved dirty
	// components (Links includes memberless links whose load was reset
	// and passive links whose load was recomputed).
	Flows, Links int
	// Rounds is the number of water-filling freeze rounds, summed over
	// components and over refills.
	Rounds int
	// Refills counts the fills of the region beyond the first, each after
	// a passive link was found over capacity; Promoted counts the links
	// turned active for them. Both stay 0 where the speculation is gated
	// off (at least as many live flows as known links, or a Defer batch).
	Refills, Promoted int
	// Components is the number of independent dirty components
	// water-filled by this solve (1 after a refill, which fills everything
	// discovered as one component).
	Components int
	// MaxComponentFlows is the flow count of the largest component.
	MaxComponentFlows int
	// Mem gauges resident storage as of this solve.
	Mem MemStats
}

// Totals aggregates SolveStats over the lifetime of a Set. Accumulation
// happens exactly once per solve, at the end of Solve — a Defer/Resume
// batch therefore contributes a single sample no matter how many
// mutations it coalesced.
type Totals struct {
	// Solves counts solver runs.
	Solves int
	// Flows, Links and Rounds sum the per-solve dirty-region sizes.
	Flows, Links, Rounds int
	// Refills and Promoted sum the per-solve speculation misses.
	Refills, Promoted int
	// Components sums per-solve independent component counts.
	Components int
	// MaxComponentFlows is the largest single component ever solved.
	MaxComponentFlows int
	// ParallelSolves is never written: bench/layers.go still reads it.
	ParallelSolves int
	// Mem is the elementwise peak of the per-solve memory gauges.
	Mem MemStats
}

// taskRef is one independent dirty component: a slice of the shared
// discovery CSR (taskFlows/taskLinks) plus the rounds its last fill took.
type taskRef struct {
	fOff, fN int32 // flow handles: taskFlows[fOff : fOff+fN]
	lOff, lN int32 // active link handles: taskLinks[lOff : lOff+lN]
	rounds   int
}

// Set is the collection of flows sharing a network, responsible for rate
// allocation and byte accounting. Not safe for concurrent use; all access
// happens on the simulation engine goroutine.
type Set struct {
	caps    func(core.LinkID) core.Rate
	delayOf func(core.LinkID) core.Time // per-link propagation delay (nil = 0)
	lastAt  core.Time
	epsilon core.Rate

	// Flow store: handle-indexed parallel slices plus the id boundary map
	// and the freelist of recycled slots.
	byID    map[FlowID]int32
	free    []int32
	fID     []FlowID
	fTuple  []core.FiveTuple
	fSrc    []core.NodeID
	fDst    []core.NodeID
	fDemand []core.Rate
	fRate   []core.Rate
	fBytes  []uint64
	fState  []State
	fAttach []bool   // holds link memberships
	fVisit  []uint64 // component-walk epoch marker
	fPath   []block  // into paths: (link handle, member index) per hop

	// Link store: handle-indexed parallel slices (links are never freed).
	// lResidual/lLast/lKey/lNact are water-filling transients valid only
	// during one solve: lResidual is the unallocated capacity as of fill
	// level lLast, and the level at which the link saturates
	// (lLast + lResidual/lNact) is invariant under lazy sync while lNact
	// is unchanged.
	byLink    map[core.LinkID]int32
	lID       []core.LinkID
	lCap      []core.Rate
	lLoad     []core.Rate // sum of granted rates of member flows
	lBytes    []uint64    // delivered bytes (the former linkB map)
	lVisit    []uint64    // component-walk epoch
	lSeeded   []uint64    // dirty-seed epoch
	lCapGen   []uint64    // seedGen of the last SetCapacity: never passive in that solve
	lPassive  []bool      // speculated slack by the current solve: left out of the fill
	lResidual []core.Rate
	lLast     []core.Rate
	lKey      []core.Rate // heap key: saturation level when pushed
	lNact     []int32
	lMem      []block // into members: (flow handle, hop index) per member

	paths   pairArena
	members pairArena

	epoch   uint64 // component-walk epoch counter
	seedGen uint64 // seed-dedup epoch counter

	// seeds lists the links dirtied since the last solve, in seeding order.
	seeds []int32

	// seedFlows lists the flows attached since the last solve. Their path
	// links are seeded too, but a passive link does not pull its members
	// into the region, so the flow that changed is named itself.
	seedFlows []int32

	// tau is the level cut of the next solve, set by the mutation it
	// answers: members standing below it are held (see held). Zero holds
	// nobody.
	tau core.Rate

	deferDepth int // >0 suspends solving (batched mutations)
	last       SolveStats
	totals     Totals

	// Solve scratch, reused across solves; the steady-state re-solve path
	// allocates nothing. tasks/taskFlows/taskLinks form the component
	// CSR (taskLinks holds active links only); passive lists the links the
	// region's flows cross that were speculated slack, shared by all
	// tasks; heap is the water-filling heap.
	tasks     []taskRef
	taskFlows []int32
	taskLinks []int32
	passive   []int32
	heap      []int32
}

// NewSet creates a flow set over a network whose link capacities are
// reported by caps. A link's capacity is read once, when the set first
// sees the link; SetCapacity changes it afterwards.
func NewSet(caps func(core.LinkID) core.Rate) *Set {
	return &Set{
		caps:    caps,
		byID:    make(map[FlowID]int32),
		byLink:  make(map[core.LinkID]int32),
		epsilon: 1, // 1 bps resolution
		seedGen: 1,
	}
}

// SetDelayOf installs the per-link propagation delay function (netmodel
// wires it to the topology's link delays). It feeds PathLatency and
// MeanPathLatency; rate allocation is unaffected — in the fluid model
// latency shifts when bytes arrive, not how many can be in flight.
func (s *Set) SetDelayOf(f func(core.LinkID) core.Time) { s.delayOf = f }

// PathLatency reports the one-way propagation latency of a flow's
// current path (zero for blackholed flows or when no delay function is
// installed), and whether the flow exists.
func (s *Set) PathLatency(id FlowID) (core.Time, bool) {
	fh, ok := s.byID[id]
	if !ok {
		return 0, false
	}
	return s.pathLatencyOf(fh), true
}

func (s *Set) pathLatencyOf(fh int32) core.Time {
	if s.delayOf == nil {
		return 0
	}
	var total core.Time
	b := s.fPath[fh]
	for i := int32(0); i < b.n; i++ {
		total += s.delayOf(s.lID[s.paths.a[b.off+i]])
	}
	return total
}

// MeanPathLatency is the rate-weighted mean one-way path latency over
// active flows — the latency an average delivered bit experiences. Zero
// when nothing is flowing.
func (s *Set) MeanPathLatency() core.Time {
	if s.delayOf == nil {
		return 0
	}
	var weighted float64
	var total core.Rate
	for fh := range s.fID {
		if s.fState[fh] != Active || s.fRate[fh] <= 0 {
			continue
		}
		weighted += float64(s.fRate[fh]) * float64(s.pathLatencyOf(int32(fh)))
		total += s.fRate[fh]
	}
	if total <= 0 {
		return 0
	}
	return core.Time(weighted / float64(total))
}

// Totals reports the cumulative solver statistics, accumulated exactly
// once per solve regardless of Defer/Resume batching.
func (s *Set) Totals() Totals { return s.totals }

// Defer suspends rate recomputation so a batch of mutations (e.g. a
// reroute storm after control plane convergence) pays for one solve
// instead of one per mutation. Nestable; each Defer must be matched by a
// Resume.
func (s *Set) Defer() { s.deferDepth++ }

// Resume re-enables solving and, when the outermost deferred batch ends,
// runs the solver over everything the batch dirtied. A batch's solve
// never speculates (see the package comment).
func (s *Set) Resume(now core.Time) {
	if s.deferDepth > 0 {
		s.deferDepth--
	}
	s.solve(true)
}

// capOf reads a link's capacity from the caps callback, clamped at zero.
func (s *Set) capOf(id core.LinkID) core.Rate {
	if c := s.caps(id); c > 0 {
		return c
	}
	return 0
}

// linkHandle returns (creating if needed) the dense handle of link id.
func (s *Set) linkHandle(id core.LinkID) int32 {
	if lh, ok := s.byLink[id]; ok {
		return lh
	}
	lh := int32(len(s.lID))
	s.byLink[id] = lh
	s.lID = append(s.lID, id)
	s.lCap = append(s.lCap, s.capOf(id))
	s.lLoad = append(s.lLoad, 0)
	s.lBytes = append(s.lBytes, 0)
	s.lVisit = append(s.lVisit, 0)
	s.lSeeded = append(s.lSeeded, 0)
	s.lCapGen = append(s.lCapGen, 0)
	s.lPassive = append(s.lPassive, false)
	s.lResidual = append(s.lResidual, 0)
	s.lLast = append(s.lLast, 0)
	s.lKey = append(s.lKey, 0)
	s.lNact = append(s.lNact, 0)
	s.lMem = append(s.lMem, block{})
	return lh
}

// allocFlow pops a recycled slot off the freelist or extends the store.
func (s *Set) allocFlow() int32 {
	if n := len(s.free); n > 0 {
		fh := s.free[n-1]
		s.free = s.free[:n-1]
		return fh
	}
	fh := int32(len(s.fID))
	s.fID = append(s.fID, 0)
	s.fTuple = append(s.fTuple, core.FiveTuple{})
	s.fSrc = append(s.fSrc, 0)
	s.fDst = append(s.fDst, 0)
	s.fDemand = append(s.fDemand, 0)
	s.fRate = append(s.fRate, 0)
	s.fBytes = append(s.fBytes, 0)
	s.fState = append(s.fState, stateFree)
	s.fAttach = append(s.fAttach, false)
	s.fVisit = append(s.fVisit, 0)
	s.fPath = append(s.fPath, block{})
	return fh
}

// seed marks a link as a dirty-region seed for the next solve.
func (s *Set) seed(lh int32) {
	if s.lSeeded[lh] == s.seedGen {
		return
	}
	s.lSeeded[lh] = s.seedGen
	s.seeds = append(s.seeds, lh)
}

// storePath writes the flow's path into the path arena as link handles
// (reusing the slot's block when it fits). Member indices are filled by
// attach; an unattached (pending) flow's path keeps its hops for
// PathLatency and snapshots without holding memberships.
func (s *Set) storePath(fh int32, path []core.LinkID) {
	b := &s.fPath[fh]
	s.paths.setLen(b, int32(len(path)))
	for i, lid := range path {
		lh := s.linkHandle(lid)
		s.paths.a[b.off+int32(i)] = lh
		s.paths.b[b.off+int32(i)] = 0
	}
}

// attach inserts an active routed flow into the member list of every link
// on its stored path and seeds those links and the flow itself.
func (s *Set) attach(fh int32) {
	b := s.fPath[fh]
	if s.fState[fh] != Active || b.n == 0 {
		return
	}
	for i := int32(0); i < b.n; i++ {
		lh := s.paths.a[b.off+i]
		s.paths.b[b.off+i] = s.members.append1(&s.lMem[lh], fh, i)
		s.seed(lh)
	}
	s.fAttach[fh] = true
	s.seedFlows = append(s.seedFlows, fh)
}

// detach removes the flow from its links' member lists (O(path length)
// swap-removes, fixing the moved member's back-reference through its own
// path block) and seeds them so the freed bandwidth is redistributed.
func (s *Set) detach(fh int32) {
	if !s.fAttach[fh] {
		return
	}
	b := s.fPath[fh]
	for i := int32(0); i < b.n; i++ {
		lh := s.paths.a[b.off+i]
		mi := s.paths.b[b.off+i]
		mb := &s.lMem[lh]
		last := mb.n - 1
		mf, mp := s.members.a[mb.off+last], s.members.b[mb.off+last]
		s.members.a[mb.off+mi] = mf
		s.members.b[mb.off+mi] = mp
		fb := s.fPath[mf]
		s.paths.b[fb.off+mp] = mi
		mb.n = last
		s.seed(lh)
	}
	s.fAttach[fh] = false
}

// maybeCompact reclaims arena garbage once abandoned regions dominate.
func (s *Set) maybeCompact() {
	if s.paths.needCompact() {
		s.paths.compact(s.fPath)
	}
	if s.members.needCompact() {
		s.members.compact(s.lMem)
	}
}

// Add inserts a flow (copying the spec into the store) and recomputes
// allocations. The spec's Path and State must already be set by the
// caller (the routing layer); its Rate and Bytes are ignored.
func (s *Set) Add(f *Flow, now core.Time) {
	if _, dup := s.byID[f.ID]; dup {
		panic(fmt.Sprintf("fluid: duplicate flow id %d", f.ID))
	}
	if f.ID == flowReserved {
		panic("fluid: flow id ^uint64(0) is reserved")
	}
	s.Integrate(now)
	fh := s.allocFlow()
	s.byID[f.ID] = fh
	s.fID[fh] = f.ID
	s.fTuple[fh] = f.Tuple
	s.fSrc[fh] = f.Src
	s.fDst[fh] = f.Dst
	s.fDemand[fh] = f.Demand
	s.fRate[fh] = 0
	s.fBytes[fh] = 0
	s.fState[fh] = f.State
	s.fAttach[fh] = false
	s.fVisit[fh] = 0
	single := len(s.seeds) == 0
	s.storePath(fh, f.Path)
	s.attach(fh)
	s.tau = 0
	if single && s.fAttach[fh] {
		s.tau = s.addLevel(fh)
	}
	s.maybeCompact()
	s.Solve(now)
}

// addLevel is the level cut of a lone Add: the flow's demand, capped by
// each path link's capacity over its members, the flow included. Every
// link grants each member at least that equal share, so no link on the
// path fires below it and the new rate is at least as high.
func (s *Set) addLevel(fh int32) core.Rate {
	level := s.fDemand[fh]
	b := s.fPath[fh]
	for i := int32(0); i < b.n; i++ {
		lh := s.paths.a[b.off+i]
		level = min(level, s.lCap[lh]/core.Rate(s.lMem[lh].n))
	}
	return max(level, 0)
}

// Remove finishes a flow, recycles its slot and recomputes allocations.
// It returns the flow's final snapshot (state Done, rate 0, bytes
// integrated up to now; Path nil) — the last chance to read its byte
// count, since the handle is recycled. ok is false if the flow did not
// exist.
func (s *Set) Remove(id FlowID, now core.Time) (final Flow, ok bool) {
	fh, exists := s.byID[id]
	if !exists {
		return Flow{}, false
	}
	s.Integrate(now)
	// A lone departure's level cut is its standing rate: it was unfrozen
	// up to that level, so none of its links fired below it.
	s.tau = 0
	if len(s.seeds) == 0 && s.fAttach[fh] {
		s.tau = s.fRate[fh]
	}
	s.detach(fh)
	final = s.snapshot(fh)
	final.State = Done
	final.Rate = 0
	delete(s.byID, id)
	s.fState[fh] = stateFree
	s.fRate[fh] = 0
	s.fPath[fh].n = 0 // keep the block's capacity for slot reuse
	s.free = append(s.free, fh)
	s.maybeCompact()
	s.Solve(now)
	return final, true
}

// snapshot builds the public value view of a flow slot (Path left nil).
func (s *Set) snapshot(fh int32) Flow {
	return Flow{
		ID:     s.fID[fh],
		Tuple:  s.fTuple[fh],
		Src:    s.fSrc[fh],
		Dst:    s.fDst[fh],
		Demand: s.fDemand[fh],
		Rate:   s.fRate[fh],
		Bytes:  s.fBytes[fh],
		State:  s.fState[fh],
	}
}

// Flow returns a value snapshot of the flow with the given id. The
// snapshot's Path is nil — use AppendPath or PathEqual for the route.
func (s *Set) Flow(id FlowID) (Flow, bool) {
	fh, ok := s.byID[id]
	if !ok {
		return Flow{}, false
	}
	return s.snapshot(fh), true
}

// Len reports the number of live flows (pending or active).
func (s *Set) Len() int { return len(s.byID) }

// SetPath reroutes a flow (or blackholes it with nil) and recomputes.
func (s *Set) SetPath(id FlowID, path []core.LinkID, now core.Time) {
	fh, ok := s.byID[id]
	if !ok {
		return
	}
	s.Integrate(now)
	s.tau = 0
	s.detach(fh)
	s.storePath(fh, path)
	s.fRate[fh] = 0
	if len(path) == 0 {
		s.fState[fh] = Pending
	} else {
		s.fState[fh] = Active
	}
	s.attach(fh)
	s.maybeCompact()
	s.Solve(now)
}

// PathEqual reports whether the flow's stored route equals path (compared
// hop by hop), without copying either. A missing flow never equals.
func (s *Set) PathEqual(id FlowID, path []core.LinkID) bool {
	fh, ok := s.byID[id]
	if !ok {
		return false
	}
	b := s.fPath[fh]
	if int(b.n) != len(path) {
		return false
	}
	for i, lid := range path {
		lh, known := s.byLink[lid]
		if !known || s.paths.a[b.off+int32(i)] != lh {
			return false
		}
	}
	return true
}

// AppendPath appends the flow's current route to buf and returns it —
// the allocation-free companion to the nil Path in snapshots. Missing
// flows append nothing.
func (s *Set) AppendPath(buf []core.LinkID, id FlowID) []core.LinkID {
	fh, ok := s.byID[id]
	if !ok {
		return buf
	}
	return s.appendPathOf(buf, fh)
}

func (s *Set) appendPathOf(buf []core.LinkID, fh int32) []core.LinkID {
	b := s.fPath[fh]
	for i := int32(0); i < b.n; i++ {
		buf = append(buf, s.lID[s.paths.a[b.off+i]])
	}
	return buf
}

// SetCapacity changes one link's capacity and recomputes the affected
// allocations. It is the fluid layer's failure/dynamics injection seam:
// a link-down clamps the capacity to zero (flows crossing it collapse to
// rate 0 on the spot), a link-up or rate change restores it. It seeds only
// the mutated link, so the next solve is confined to the dirty component
// around the failure and performs no heap allocations beyond the link slot
// created the first time the link is ever seen. The caps callback is not
// consulted again for a link the set already knows.
func (s *Set) SetCapacity(id core.LinkID, c core.Rate, now core.Time) {
	if c < 0 {
		c = 0
	}
	lh := s.linkHandle(id)
	if s.lCap[lh] == c {
		return
	}
	s.Integrate(now)
	s.tau = 0
	s.lCap[lh] = c
	s.lCapGen[lh] = s.seedGen
	s.seed(lh)
	s.Solve(now)
}

// Capacity reports the solver's current cached capacity for a link (the
// value from the caps callback or the last SetCapacity). A read creates no
// link slot: a link the set has not seen yet answers from the callback.
func (s *Set) Capacity(id core.LinkID) core.Rate {
	if lh, ok := s.byLink[id]; ok {
		return s.lCap[lh]
	}
	return s.capOf(id)
}

// Integrate accrues delivered bytes at the current rates up to now.
// It must be called before any rate-affecting mutation. The clock never
// runs backwards: a now at or before the last integration is a no-op.
func (s *Set) Integrate(now core.Time) {
	dt := now - s.lastAt
	if dt <= 0 {
		return
	}
	for fh := range s.fID {
		if s.fState[fh] != Active || s.fRate[fh] <= 0 {
			continue
		}
		bytes := s.fRate[fh].BytesIn(dt)
		s.fBytes[fh] += bytes
		pb := s.fPath[fh]
		for i := int32(0); i < pb.n; i++ {
			s.lBytes[s.paths.a[pb.off+i]] += bytes
		}
	}
	s.lastAt = now
}

// Solve recomputes max–min fair allocations over the dirty region. It is
// a no-op when nothing changed since the last solve or while a Defer
// batch is open.
func (s *Set) Solve(now core.Time) { s.solve(false) }

// solve is Solve; batch says that the solve ends a Defer batch.
func (s *Set) solve(batch bool) {
	if s.deferDepth > 0 || len(s.seeds) == 0 {
		return
	}
	if batch {
		s.tau = 0
	}
	// Passive links trim per-link work and risk redoing per-flow work, and
	// they are picked by the standing loads: the closure speculates only
	// where links outnumber flows and one mutation separates the standing
	// allocation from the new one.
	s.solveDirty(!batch && len(s.byID) < len(s.lID))
	s.endSolve()
}

// endSolve closes a solve: the seeds are spent, the memory gauged and the
// solve's stats folded into the lifetime totals.
func (s *Set) endSolve() {
	s.seeds = s.seeds[:0]
	s.seedFlows = s.seedFlows[:0]
	s.seedGen++
	s.last.Mem = s.memStats()
	s.accumulate()
}

// memStats gauges resident storage.
func (s *Set) memStats() MemStats {
	return MemStats{
		FlowSlots:        len(s.fID),
		LiveFlows:        len(s.byID),
		FreeFlows:        len(s.free),
		LinkSlots:        len(s.lID),
		PathArenaBytes:   s.paths.bytes(),
		MemberArenaBytes: s.members.bytes(),
		ScratchBytes:     4 * (cap(s.taskFlows) + cap(s.taskLinks) + cap(s.passive)),
	}
}

// accumulate folds the finished solve's stats into the lifetime totals —
// the single place they are recorded, so a Defer/Resume batch counts once.
func (s *Set) accumulate() {
	st := s.last
	s.totals.Solves++
	s.totals.Flows += st.Flows
	s.totals.Links += st.Links
	s.totals.Rounds += st.Rounds
	s.totals.Refills += st.Refills
	s.totals.Promoted += st.Promoted
	s.totals.Components += st.Components
	if st.MaxComponentFlows > s.totals.MaxComponentFlows {
		s.totals.MaxComponentFlows = st.MaxComponentFlows
	}
	s.totals.Mem.max(st.Mem)
}

// maxSpecRefills caps the speculative refills of one solve; a check that
// still fails after them is answered by one pass with every link of the
// region active, so a solve costs at most maxSpecRefills+2 fills of its
// region no matter how the speculation fares.
const maxSpecRefills = 2

// slack reports whether the link's standing load sits below its capacity
// by more than the speculation margin. lLoad is the load granted by the
// previous solve: it still counts a flow detached since (erring towards
// "saturated") and does not yet count one attached since (which the check
// after the fill catches). The margin keeps every link that bound a flow
// in the standing allocation out of the passive set — a link that fired
// is saturated up to epsilon per member, and no link ever had more members
// than there are flow slots — as it does zero-capacity links.
func (s *Set) slack(lh int32) bool {
	c := s.lCap[lh]
	return c-s.lLoad[lh] > c/8+s.epsilon*core.Rate(len(s.fID)+1)
}

// visitLink enters an unvisited link into the region: onto taskLinks when
// it is active, onto the passive list when it is speculated to stay slack.
func (s *Set) visitLink(lh int32, speculate bool) {
	s.lVisit[lh] = s.epoch
	if speculate && s.lCapGen[lh] != s.seedGen && s.slack(lh) {
		s.lPassive[lh] = true
		s.passive = append(s.passive, lh)
		return
	}
	s.lPassive[lh] = false
	s.taskLinks = append(s.taskLinks, lh)
}

// visitFlow enters an unvisited flow into the region and every link of
// its path with it.
func (s *Set) visitFlow(fh int32, speculate bool) {
	s.fVisit[fh] = s.epoch
	s.taskFlows = append(s.taskFlows, fh)
	pb := s.fPath[fh]
	for p := int32(0); p < pb.n; p++ {
		if nl := s.paths.a[pb.off+p]; s.lVisit[nl] != s.epoch {
			s.visitLink(nl, speculate)
		}
	}
}

// held reports whether a member keeps its standing rate through the solve:
// it stands below the level cut by more than epsilon and was not attached
// since the last solve (see the package comment). A solve with a cut
// answers one mutation, so seedFlows holds at most the flow it added.
func (s *Set) held(fh int32) bool {
	return s.fRate[fh] < s.tau-s.epsilon && !slices.Contains(s.seedFlows, fh)
}

// heldLoad sums the standing rates of a link's members outside the region
// and counts those inside: after expand the members outside are exactly
// its held ones, and at a level cut of 0 nobody is held.
func (s *Set) heldLoad(lh int32) (load core.Rate, in int32) {
	mb := s.lMem[lh]
	if s.tau == 0 {
		return 0, mb.n
	}
	for j := int32(0); j < mb.n; j++ {
		if fh := s.members.a[mb.off+j]; s.fVisit[fh] == s.epoch {
			in++
		} else {
			load += s.fRate[fh]
		}
	}
	return load, in
}

// expand closes the region over taskLinks[from:]: every member of an
// active link that is not held joins and drags the links of its path in,
// active ones to be expanded in turn. A passive link pulls in nobody.
func (s *Set) expand(from int32, speculate bool) {
	for i := from; i < int32(len(s.taskLinks)); i++ {
		mb := s.lMem[s.taskLinks[i]]
		for j := int32(0); j < mb.n; j++ {
			if fh := s.members.a[mb.off+j]; s.fVisit[fh] != s.epoch && !s.held(fh) {
				s.visitFlow(fh, speculate)
			}
		}
	}
}

// closeTask expands what a seed entered at (fOff, lOff) into one
// component and files it as a task. A component without flows (e.g. a
// capacity change on an idle link, or a departure whose link partners are
// all held) needs no water-fill: its loads are set to their held members'
// rates inline and their count returned.
func (s *Set) closeTask(fOff, lOff int32, speculate bool) (quiet int) {
	s.expand(lOff, speculate)
	fN := int32(len(s.taskFlows)) - fOff
	lN := int32(len(s.taskLinks)) - lOff
	if fN == 0 {
		for _, lh := range s.taskLinks[lOff:] {
			s.lLoad[lh], _ = s.heldLoad(lh)
		}
		s.taskLinks = s.taskLinks[:lOff]
		return int(lN)
	}
	s.tasks = append(s.tasks, taskRef{fOff: fOff, fN: fN, lOff: lOff, lN: lN})
	return 0
}

// promote checks the speculation after a fill: each passive link's load is
// recomputed over all its members, re-solved or not, and a link found over
// capacity turns active — onto taskLinks, for expand to close the region
// from. With all set, every remaining passive link is promoted unchecked.
func (s *Set) promote(all bool) {
	keep := s.passive[:0]
	for _, lh := range s.passive {
		if !all {
			mb := s.lMem[lh]
			var load core.Rate
			for j := int32(0); j < mb.n; j++ {
				load += s.fRate[s.members.a[mb.off+j]]
			}
			s.lLoad[lh] = load
			if load <= s.lCap[lh]+s.epsilon {
				keep = append(keep, lh)
				continue
			}
		}
		s.lPassive[lh] = false
		s.taskLinks = append(s.taskLinks, lh)
	}
	s.passive = keep
}

// solveDirty expands the dirty seeds into independent connected
// components and water-fills them one after another, leaving all other
// allocations untouched.
//
// Seeds are visited in seeding order, then the attached flows, and each
// unvisited seed's closure — every flow on an active component link joins
// and drags all links of its path in — is appended to the shared task CSR
// (taskFlows/taskLinks) and becomes one task. Because the closure is an
// equivalence class, a seed already visited belongs entirely to an earlier
// task and is skipped, and two tasks can never share a flow or an active
// link: each task's water-fill touches disjoint state, so the order the
// tasks are filled in does not show in the rates.
//
// With speculate the closure is speculative (see the package comment):
// slack links stay passive, the fill is checked against them afterwards,
// and a miss promotes the link and refills.
func (s *Set) solveDirty(speculate bool) {
	s.epoch++
	quietLinks := 0
	s.tasks = s.tasks[:0]
	s.taskFlows = s.taskFlows[:0]
	s.taskLinks = s.taskLinks[:0]
	s.passive = s.passive[:0]
	for _, lh := range s.seeds {
		if s.lVisit[lh] == s.epoch {
			continue
		}
		fOff, lOff := int32(len(s.taskFlows)), int32(len(s.taskLinks))
		s.visitLink(lh, speculate)
		quietLinks += s.closeTask(fOff, lOff, speculate)
	}
	for _, fh := range s.seedFlows {
		if !s.fAttach[fh] || s.fVisit[fh] == s.epoch {
			continue // gone again, or reached through an active link
		}
		fOff, lOff := int32(len(s.taskFlows)), int32(len(s.taskLinks))
		s.visitFlow(fh, speculate)
		s.closeTask(fOff, lOff, speculate)
	}
	s.last = SolveStats{Components: len(s.tasks)}
	for i := range s.tasks {
		s.waterfill(&s.tasks[i])
		s.last.Rounds += s.tasks[i].rounds
		if n := int(s.tasks[i].fN); n > s.last.MaxComponentFlows {
			s.last.MaxComponentFlows = n
		}
	}
	// Verify, promote, refill. A refill continues the closure from the
	// promoted links and fills everything discovered so far as one
	// component: a promoted link may join what were separate tasks. The
	// last allowed refill promotes every passive link left and closes
	// without speculating, which is the full closure.
	for len(s.passive) > 0 {
		lOff := int32(len(s.taskLinks))
		s.promote(false)
		if int32(len(s.taskLinks)) == lOff {
			break
		}
		last := s.last.Refills == maxSpecRefills
		if last {
			s.promote(true)
		}
		s.last.Refills++
		s.last.Promoted += len(s.taskLinks) - int(lOff)
		s.expand(lOff, !last)
		s.tasks = append(s.tasks[:0], taskRef{fN: int32(len(s.taskFlows)), lN: int32(len(s.taskLinks))})
		s.waterfill(&s.tasks[0])
		s.last.Rounds += s.tasks[0].rounds
		s.last.Components = 1
		s.last.MaxComponentFlows = len(s.taskFlows)
	}
	s.last.Flows = len(s.taskFlows)
	s.last.Links = quietLinks + len(s.taskLinks) + len(s.passive)
}

// satLevel is the fill level at which the link saturates given its
// current unfrozen membership.
func (s *Set) satLevel(lh int32) core.Rate {
	n := s.lNact[lh]
	if n == 0 {
		return core.Rate(math.Inf(1))
	}
	return s.lLast[lh] + s.lResidual[lh]/core.Rate(n)
}

// syncLink brings the link's residual forward to the given fill level.
func (s *Set) syncLink(lh int32, level core.Rate) {
	if s.lNact[lh] > 0 && level > s.lLast[lh] {
		s.lResidual[lh] -= (level - s.lLast[lh]) * core.Rate(s.lNact[lh])
		if s.lResidual[lh] < 0 {
			s.lResidual[lh] = 0 // numeric dust
		}
	}
	s.lLast[lh] = level
}

// waterfill computes max–min rates for one component task by sorted
// water-filling: a min-heap orders links by the fill level at which they
// saturate; each round raises the water level to the next event — a link
// saturating (all its unfrozen flows freeze at the level) or the smallest
// unmet demand (those flows freeze at their demand) — so whole links
// freeze per round rather than epsilon steps.
func (s *Set) waterfill(t *taskRef) {
	flows := s.taskFlows[t.fOff : t.fOff+t.fN]
	links := s.taskLinks[t.lOff : t.lOff+t.lN]
	inf := core.Rate(math.Inf(1))
	// Held members are fixed load: the fill shares what they leave among
	// the region's members.
	for _, lh := range links {
		held, in := s.heldLoad(lh)
		s.lResidual[lh] = max(s.lCap[lh]-held, 0)
		s.lLast[lh] = 0
		s.lNact[lh] = in
		s.lLoad[lh] = held
	}
	remaining := len(flows)
	uniform := true
	var d0 core.Rate
	for i, fh := range flows {
		if i == 0 {
			d0 = s.fDemand[fh]
		} else if s.fDemand[fh] != d0 {
			uniform = false
		}
		s.fRate[fh] = -1 // unfrozen marker
	}
	// Flows with no positive demand freeze at zero before filling starts.
	for _, fh := range flows {
		if s.fDemand[fh] <= 0 {
			s.freeze(fh, 0, 0)
			remaining--
		}
	}
	// Demand-sorted order makes the smallest unmet demand a cursor scan;
	// uniform demands (the demo workload) skip the sort entirely.
	if !uniform {
		slices.SortFunc(flows, func(a, b int32) int {
			da, db := s.fDemand[a], s.fDemand[b]
			switch {
			case da < db:
				return -1
			case da > db:
				return 1
			default:
				return 0
			}
		})
	}
	heap := s.heap[:0]
	for _, lh := range links {
		if s.lNact[lh] > 0 {
			s.lKey[lh] = s.satLevel(lh)
			heap = s.heapPush(heap, lh)
		}
	}

	level := core.Rate(0)
	di := 0
	rounds := 0
	for remaining > 0 {
		rounds++
		for di < len(flows) && s.fRate[flows[di]] >= 0 {
			di++
		}
		lambdaD := inf
		if di < len(flows) {
			lambdaD = s.fDemand[flows[di]]
		}
		// Refresh stale heap entries: keys only grow as flows freeze, so
		// a link whose current saturation level moved past its key is
		// re-keyed and sifted down where it sits (lazy update).
		lambdaL := inf
		for len(heap) > 0 {
			top := heap[0]
			if s.lNact[top] == 0 {
				heap = s.heapPop(heap)
				continue
			}
			cur := s.satLevel(top)
			if cur > s.lKey[top]+s.epsilon {
				s.lKey[top] = cur
				s.siftDown(heap, 0)
				continue
			}
			lambdaL = cur
			break
		}
		level = lambdaD
		if lambdaL < level {
			level = lambdaL
		}
		if math.IsInf(float64(level), 1) {
			break // cannot happen: unfrozen flows always bound lambdaD
		}
		// Freeze demand-limited flows at the new level.
		if lambdaD <= lambdaL+s.epsilon {
			for di < len(flows) {
				fh := flows[di]
				if s.fRate[fh] >= 0 {
					di++
					continue
				}
				if s.fDemand[fh] > level+s.epsilon {
					break
				}
				s.freeze(fh, s.fDemand[fh], level)
				remaining--
				di++
			}
		}
		// Freeze saturated links: every unfrozen flow crossing them stops
		// at the current level.
		if lambdaL <= lambdaD+s.epsilon {
			for len(heap) > 0 {
				top := heap[0]
				if s.lNact[top] == 0 {
					heap = s.heapPop(heap)
					continue
				}
				if s.satLevel(top) > level+s.epsilon {
					break
				}
				heap = s.heapPop(heap)
				mb := s.lMem[top]
				for j := int32(0); j < mb.n; j++ {
					fh := s.members.a[mb.off+j]
					if s.fRate[fh] < 0 {
						s.freeze(fh, level, level)
						remaining--
					}
				}
			}
		}
	}
	t.rounds = rounds
	s.heap = heap[:0]
}

// freeze finalizes a flow's rate and retires it from every active link it
// crosses: the links' residuals are synced to the fill level, their
// unfrozen counts drop, and the granted load is recorded. Passive links
// take no part in the fill; promote recomputes their load afterwards.
func (s *Set) freeze(fh int32, rate, level core.Rate) {
	s.fRate[fh] = rate
	b := s.fPath[fh]
	for i := int32(0); i < b.n; i++ {
		lh := s.paths.a[b.off+i]
		if s.lPassive[lh] {
			continue
		}
		s.syncLink(lh, level)
		s.lNact[lh]--
		s.lLoad[lh] += rate
	}
}

// heapPush and heapPop maintain a binary min-heap of link handles keyed
// by lKey (saturation level). Hand-rolled over the Set's scratch slice so
// the solve path stays allocation-free.
func (s *Set) heapPush(h []int32, lh int32) []int32 {
	h = append(h, lh)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.lKey[h[parent]] <= s.lKey[h[i]] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func (s *Set) heapPop(h []int32) []int32 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	s.siftDown(h, 0)
	return h
}

// siftDown restores the heap order below position i after its key grew.
func (s *Set) siftDown(h []int32, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && s.lKey[h[l]] < s.lKey[h[smallest]] {
			smallest = l
		}
		if r < len(h) && s.lKey[h[r]] < s.lKey[h[smallest]] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// AggregateRx reports the total rate currently arriving at all
// destination hosts — the quantity the paper's demo graphs plot
// ("aggregated rate of all flows arriving at the hosts").
func (s *Set) AggregateRx() core.Rate {
	var sum core.Rate
	for fh := range s.fID {
		if s.fState[fh] == Active {
			sum += s.fRate[fh]
		}
	}
	return sum
}

// RxRateByDst reports the current receive rate per destination host into
// out, clearing and reusing it (allocate one when nil) — the sampling
// tick calls this every interval, so the map must not be rebuilt per
// call. Returns out.
func (s *Set) RxRateByDst(out map[core.NodeID]core.Rate) map[core.NodeID]core.Rate {
	if out == nil {
		out = make(map[core.NodeID]core.Rate)
	} else {
		clear(out)
	}
	for fh := range s.fID {
		if s.fState[fh] == Active {
			out[s.fDst[fh]] += s.fRate[fh]
		}
	}
	return out
}

// LinkRate reports the instantaneous load on a directed link in O(1) from
// the persistent per-link granted load.
func (s *Set) LinkRate(l core.LinkID) core.Rate {
	if lh, ok := s.byLink[l]; ok {
		return s.lLoad[lh]
	}
	return 0
}

// LinkBytes reports the bytes delivered over a directed link so far
// (integrate first to bring the figure up to now).
func (s *Set) LinkBytes(l core.LinkID) uint64 {
	if lh, ok := s.byLink[l]; ok {
		return s.lBytes[lh]
	}
	return 0
}

// Flows returns value snapshots of the live flows, Path included
// (copied), in ascending handle order — insertion order as long as no
// flow has been removed; after churn, recycled slots surface in the
// removed flow's position. Allocates; iteration-heavy callers should use
// AppendFlows.
func (s *Set) Flows() []Flow {
	out := make([]Flow, 0, len(s.byID))
	for fh := range s.fID {
		if s.fState[fh] == stateFree {
			continue
		}
		f := s.snapshot(int32(fh))
		if n := s.fPath[fh].n; n > 0 {
			f.Path = s.appendPathOf(make([]core.LinkID, 0, n), int32(fh))
		}
		out = append(out, f)
	}
	return out
}

// AppendFlows appends value snapshots of the live flows (Path nil) to buf
// and returns it — the allocation-free iteration surface (netmodel's
// reroute pass reuses one buffer across control plane events).
func (s *Set) AppendFlows(buf []Flow) []Flow {
	for fh := range s.fID {
		if s.fState[fh] == stateFree {
			continue
		}
		buf = append(buf, s.snapshot(int32(fh)))
	}
	return buf
}
