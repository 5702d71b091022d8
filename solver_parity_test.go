package horse

// Golden histories for the incremental max–min solver: a seeded
// failure-injection history (link flaps via netmodel's SetCableState,
// capacity changes, flow churn) on a fat-tree must produce
//
//   - the same rates to the bit every time: an FNV-1a digest over every
//     flow's rate after every event is pinned as a golden value (one
//     history, one answer — a change that moves a digest has changed
//     discovery order or fill arithmetic and has to say so), and
//   - after every event, an allocation that passes fluid's
//     CheckInvariants: within capacity, loads equal to the member rates,
//     every flow at its demand or bottlenecked (max–min allocations are
//     unique, so this is the whole contract; the fluid package's own
//     tests hold the solver to a from-scratch reference as well).

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/netmodel"
	"repro/internal/topo"
)

// parityNet is the data plane under test: a fat-tree data plane driven
// directly (AutoReroute off — no control plane, so paths stay fixed and
// every violation is attributable to the solver).
type parityNet struct {
	net *netmodel.Network
	g   *topo.Graph
	fp  *topo.FatTreePaths
}

func newParityNet(t *testing.T, k int) *parityNet {
	t.Helper()
	g, err := topo.FatTree(topo.FatTreeOpts{K: k})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := topo.NewFatTreePaths(g, k)
	if err != nil {
		t.Fatal(err)
	}
	n := netmodel.New(g)
	n.AutoReroute = false
	return &parityNet{net: n, g: g, fp: fp}
}

// parityEvent is one step of the injection history. Cables are
// identified by position in the eligible-cable list.
type parityEvent struct {
	kind   int // 0 = cable flap, 1 = cable rate, 2 = flow churn, 3 = multi-pod batch, 4 = walk step
	cable  int // index into the eligible-cable list
	down   bool
	rate   core.Rate
	flow   fluid.FlowID
	hash   uint64
	cables []int       // kinds 3/4: cables rate-changed in one coalesced batch
	rates  []core.Rate // kind 4: per-cable walked rate, parallel to cables
}

// eligibleCables lists backbone cables (switch-switch) in deterministic
// order — the FlapRandomLinks candidate set.
func eligibleCables(g *topo.Graph) []*topo.Link {
	var cables []*topo.Link
	for _, l := range g.Links {
		if l.ID > l.Reverse {
			continue
		}
		if g.Nodes[l.From].Kind == topo.Host || g.Nodes[l.To].Kind == topo.Host {
			continue
		}
		cables = append(cables, l)
	}
	return cables
}

// foldRates folds the id and the rate bits of every live flow into h.
func foldRates(h hash.Hash64, s *fluid.Set) {
	for _, f := range s.Flows() {
		fmt.Fprintf(h, "%d=%016x;", f.ID, math.Float64bits(float64(f.Rate)))
	}
}

func TestSolverParityUnderFailures(t *testing.T) {
	const k = 8
	const nFlows = 256
	const nEvents = 120
	const golden = 0x02dcb58ffcbfb205

	c := newParityNet(t, k)
	digest := fnv.New64a()

	// Seed a pod-local workload: src and dst share a pod, so the fat-tree decomposes into k independent
	// fluid components and multi-pod event batches solve several of them
	// at once. (Cross-core traffic fuses everything into one component;
	// the fluid-level tests cover that shape.)
	rng := rand.New(rand.NewSource(7))
	hosts := c.g.Hosts()
	hostsPerPod := k * k / 4
	type flowSpec struct{ src, dst int }
	specs := make([]flowSpec, 0, nFlows)
	for i := 0; i < nFlows; i++ {
		si := rng.Intn(len(hosts))
		pod := si / hostsPerPod
		di := pod*hostsPerPod + rng.Intn(hostsPerPod)
		for di == si {
			di = pod*hostsPerPod + rng.Intn(hostsPerPod)
		}
		specs = append(specs, flowSpec{src: si, dst: di})
	}
	pathHash := rng.Uint64()
	c.net.Flows.Defer()
	for i, sp := range specs {
		src, dst := hosts[sp.src], hosts[sp.dst]
		path, err := c.fp.Path(src.ID, dst.ID, pathHash+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		c.net.Flows.Add(&fluid.Flow{
			ID: fluid.FlowID(i + 1), Src: src.ID, Dst: dst.ID,
			Demand: core.Gbps, Path: path, State: fluid.Active,
		}, 0)
	}
	c.net.Flows.Resume(0)
	checkSolved(t, c, "initial workload")
	foldRates(digest, c.net.Flows)

	// Seeded event history: flaps (SetCableState, the FlapRandomLinks
	// mechanism at netmodel level), capacity changes and flow churn.
	cables := eligibleCables(c.g)
	flapped := map[int]bool{}
	// A fixed seeded cable subset carries a multiplicative capacity
	// random walk across events — the WalkLinkRates capacity-churn
	// workload expressed at netmodel level, with factors clamped the same
	// way ([0.1, 1.0]·base).
	walkSet := make([]int, 8)
	walkFactors := make([]float64, len(walkSet))
	for i := range walkSet {
		walkSet[i] = rng.Intn(len(cables))
		walkFactors[i] = 1
	}
	var events []parityEvent
	for i := 0; i < nEvents; i++ {
		switch r := rng.Float64(); {
		case r < 0.35:
			ci := rng.Intn(len(cables))
			down := !flapped[ci]
			flapped[ci] = down
			events = append(events, parityEvent{kind: 0, cable: ci, down: down})
		case r < 0.5:
			rates := []core.Rate{200 * core.Mbps, 500 * core.Mbps, core.Gbps}
			events = append(events, parityEvent{
				kind: 1, cable: rng.Intn(len(cables)), rate: rates[rng.Intn(len(rates))],
			})
		case r < 0.7:
			events = append(events, parityEvent{
				kind: 2, flow: fluid.FlowID(rng.Intn(nFlows) + 1), hash: rng.Uint64(),
			})
		case r < 0.85:
			// A coalesced storm touching several pods at once — the shape
			// the Connection Manager produces: several components a solve.
			batch := make([]int, 6)
			for j := range batch {
				batch[j] = rng.Intn(len(cables))
			}
			events = append(events, parityEvent{
				kind: 3, rate: core.Rate(rng.Intn(800)+200) * core.Mbps, cables: batch,
			})
		default:
			// One walk tick: every walked cable takes a multiplicative
			// step, applied as a single coalesced batch.
			ev := parityEvent{
				kind:   4,
				cables: append([]int(nil), walkSet...),
				rates:  make([]core.Rate, len(walkSet)),
			}
			for j := range walkSet {
				f := walkFactors[j] * (0.75 + rng.Float64()*0.5)
				if f > 1 {
					f = 1
				}
				if f < 0.1 {
					f = 0.1
				}
				walkFactors[j] = f
				ev.rates[j] = core.Rate(f * float64(core.Gbps))
			}
			events = append(events, ev)
		}
	}

	for i, ev := range events {
		cable := cables[ev.cable]
		switch ev.kind {
		case 0:
			c.net.SetCableState(cable.ID, ev.down, 0)
		case 1:
			c.net.SetCableRate(cable.ID, ev.rate, 0)
		case 3:
			c.net.Flows.Defer()
			for _, ci := range ev.cables {
				c.net.SetCableRate(cables[ci].ID, ev.rate, 0)
			}
			c.net.Flows.Resume(0)
		case 4:
			c.net.Flows.Defer()
			for j, ci := range ev.cables {
				c.net.SetCableRate(cables[ci].ID, ev.rates[j], 0)
			}
			c.net.Flows.Resume(0)
		case 2:
			f, ok := c.net.Flows.Flow(ev.flow)
			if !ok {
				t.Fatalf("flow %d missing", ev.flow)
			}
			src, dst := f.Src, f.Dst
			demand := f.Demand
			c.net.Flows.Remove(ev.flow, 0)
			path, err := c.fp.Path(src, dst, ev.hash)
			if err != nil {
				t.Fatal(err)
			}
			c.net.Flows.Add(&fluid.Flow{
				ID: ev.flow, Src: src, Dst: dst,
				Demand: demand, Path: path, State: fluid.Active,
			}, 0)
		}
		checkSolved(t, c, fmt.Sprintf("event %d (%+v)", i, ev))
		foldRates(digest, c.net.Flows)
	}

	// The multi-pod batches must actually have solved several components.
	tot := c.net.Flows.Totals()
	if tot.Components <= tot.Solves {
		t.Errorf("no solve ever covered more than one component: %+v", tot)
	}
	if got := digest.Sum64(); got != golden {
		t.Errorf("rate digest %#016x, want %#016x", got, uint64(golden))
	}
}

// checkSolved holds the data plane's allocation to the max–min invariants.
func checkSolved(t *testing.T, c *parityNet, ctx string) {
	t.Helper()
	if err := c.net.Flows.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// TestSolverParityPartitioned is the same contract on a live topology that
// an outage has cut into pieces: an edge switch of a fat-tree k=4 goes down
// and comes back at the netmodel level with nothing rerouting, so flows
// keep paths into the dead switch (rate 0) while reroutes, churn and
// coalesced rate changes land on both sides of the cut.
func TestSolverParityPartitioned(t *testing.T) {
	const k = 4
	const nFlows = 48
	const golden = 0x97c3c97031f18fb8

	c := newParityNet(t, k)
	digest := fnv.New64a()
	rng := rand.New(rand.NewSource(11))
	nHosts := len(c.g.Hosts())
	nCables := len(c.g.Links) / 2

	// step applies one mutation and checks the allocation it leaves.
	step := func(ctx string, apply func()) {
		t.Helper()
		apply()
		checkSolved(t, c, ctx)
		foldRates(digest, c.net.Flows)
	}
	// ends[id] are the host indices flow id runs between; add and reroute
	// put it on the hash-selected path between them.
	ends := make([][2]int, nFlows+1)
	route := func(id int, hash uint64) (src, dst core.NodeID, path []core.LinkID) {
		hosts := c.g.Hosts()
		src, dst = hosts[ends[id][0]].ID, hosts[ends[id][1]].ID
		path, err := c.fp.Path(src, dst, hash)
		if err != nil {
			t.Fatal(err)
		}
		return src, dst, path
	}
	add := func(id int, hash uint64, demand core.Rate) {
		src, dst, path := route(id, hash)
		c.net.Flows.Add(&fluid.Flow{
			ID: fluid.FlowID(id), Src: src, Dst: dst,
			Demand: demand, Path: path, State: fluid.Active,
		}, 0)
	}
	reroute := func(id int, hash uint64) {
		_, _, path := route(id, hash)
		c.net.Flows.SetPath(fluid.FlowID(id), path, 0)
	}
	// cable is the i-th cable of the graph, host access cables included.
	cable := func(i int) core.LinkID {
		for _, l := range c.g.Links {
			if l.ID < l.Reverse {
				if i == 0 {
					return l.ID
				}
				i--
			}
		}
		t.Fatalf("no cable %d", i)
		return 0
	}

	for id := 1; id <= nFlows; id++ {
		si := rng.Intn(nHosts)
		ends[id] = [2]int{si, (si + 1 + rng.Intn(nHosts-1)) % nHosts}
		hash, demand := rng.Uint64(), core.Rate(rng.Intn(900)+100)*core.Mbps
		step(fmt.Sprintf("add flow %d", id), func() { add(id, hash, demand) })
	}

	// churn is a seeded mix of reroutes, remove-and-re-add, single rate
	// changes and coalesced batches mixing all three across the topology.
	churn := func(phase string, n int) {
		for i := 0; i < n; i++ {
			id := 1 + rng.Intn(nFlows)
			hash := rng.Uint64()
			ci, rate := rng.Intn(nCables), core.Rate(rng.Intn(800)+200)*core.Mbps
			ctx := fmt.Sprintf("%s op %d", phase, i)
			switch r := rng.Float64(); {
			case r < 0.3:
				step(ctx, func() { reroute(id, hash) })
			case r < 0.55:
				step(ctx, func() {
					f, _ := c.net.Flows.Remove(fluid.FlowID(id), 0)
					add(id, hash, f.Demand)
				})
			case r < 0.7:
				step(ctx, func() { c.net.SetCableRate(cable(ci), rate, 0) })
			default:
				other := 1 + rng.Intn(nFlows)
				cj := rng.Intn(nCables)
				step(ctx, func() {
					c.net.Flows.Defer()
					c.net.SetCableRate(cable(ci), rate, 0)
					reroute(id, hash)
					c.net.SetCableRate(cable(cj), rate/2, 0)
					reroute(other, hash+1)
					c.net.Flows.Resume(0)
				})
			}
		}
	}

	edge := c.g.Hosts()[0].Ports[0].Peer
	churn("whole", 20)
	step("edge switch down", func() { c.net.SetNodeState(edge, true, 0) })
	churn("partitioned", 60)
	step("edge switch up", func() { c.net.SetNodeState(edge, false, 0) })
	churn("healed", 20)

	if got := digest.Sum64(); got != golden {
		t.Errorf("rate digest %#016x, want %#016x", got, uint64(golden))
	}
}
