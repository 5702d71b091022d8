package horse

// Parity oracle for the incremental max–min solver: a seeded
// failure-injection history (link flaps via netmodel's SetCableState,
// capacity changes, flow churn) on a fat-tree must produce
//
//   - the same rates to the bit every time: an FNV-1a digest over every
//     flow's rate after every event is pinned as a golden value (one
//     history, one answer — a change that moves a digest has changed
//     discovery order or fill arithmetic and has to say so), and
//   - rates agreeing with the from-scratch naive solver within float
//     tolerance (max–min allocations are unique; the naive solver's
//     different operation order makes bit equality too strong).

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

// parityNet is one solver configuration under test: a fat-tree k=8 data
// plane driven directly (AutoReroute off — no control plane, so paths
// stay fixed and every divergence is attributable to the solver).
type parityNet struct {
	name string
	net  *netmodel.Network
	g    *topo.Graph
	fp   *topo.FatTreePaths
}

func newParityNet(t *testing.T, k int, name string, naive bool) *parityNet {
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
	if naive {
		n.Flows.SetNaive(true)
	}
	return &parityNet{name: name, net: n, g: g, fp: fp}
}

// parityEvent is one step of the shared injection history. Cables and
// flows are identified by position so the event applies to each
// configuration's own graph instance.
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
	const golden = 0x705be7bbf2afd449

	configs := []*parityNet{
		newParityNet(t, k, "incremental", false),
		newParityNet(t, k, "naive", true),
	}
	digest := fnv.New64a()

	// Seed the same pod-local workload into every configuration: src and
	// dst share a pod, so the fat-tree decomposes into k independent
	// fluid components and multi-pod event batches solve several of them
	// at once. (Cross-core traffic fuses everything into one component;
	// the fluid-level tests cover that shape.)
	rng := rand.New(rand.NewSource(7))
	hosts := configs[0].g.Hosts()
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
	for _, c := range configs {
		ch := c.g.Hosts()
		c.net.Flows.Defer()
		for i, sp := range specs {
			src, dst := ch[sp.src], ch[sp.dst]
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
	}
	assertParity(t, configs, "initial workload")
	foldRates(digest, configs[0].net.Flows)

	// Shared seeded event history: flaps (SetCableState, the
	// FlapRandomLinks mechanism at netmodel level), capacity changes and
	// flow churn.
	cables := eligibleCables(configs[0].g)
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
		for _, c := range configs {
			cc := eligibleCables(c.g)
			cable := cc[ev.cable]
			switch ev.kind {
			case 0:
				c.net.SetCableState(cable.ID, ev.down, 0)
			case 1:
				c.net.SetCableRate(cable.ID, ev.rate, 0)
			case 3:
				c.net.Flows.Defer()
				for _, ci := range ev.cables {
					c.net.SetCableRate(cc[ci].ID, ev.rate, 0)
				}
				c.net.Flows.Resume(0)
			case 4:
				c.net.Flows.Defer()
				for j, ci := range ev.cables {
					c.net.SetCableRate(cc[ci].ID, ev.rates[j], 0)
				}
				c.net.Flows.Resume(0)
			case 2:
				f, ok := c.net.Flows.Flow(ev.flow)
				if !ok {
					t.Fatalf("%s: flow %d missing", c.name, ev.flow)
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
		}
		assertParity(t, configs, fmt.Sprintf("event %d (%+v)", i, ev))
		foldRates(digest, configs[0].net.Flows)
	}

	// The multi-pod batches must actually have solved several components.
	tot := configs[0].net.Flows.Totals()
	if tot.Components <= tot.Solves {
		t.Errorf("no solve ever covered more than one component: %+v", tot)
	}
	if got := digest.Sum64(); got != golden {
		t.Errorf("rate digest %#016x, want %#016x", got, uint64(golden))
	}
}

// assertParity checks every configuration's allocation against the max–min
// invariants and the naive oracle against the incremental solver within
// relative tolerance.
func assertParity(t *testing.T, configs []*parityNet, ctx string) {
	t.Helper()
	for _, c := range configs {
		if err := c.net.Flows.CheckInvariants(); err != nil {
			t.Fatalf("%s: %s: %v", ctx, c.name, err)
		}
	}
	ref := configs[0]
	for _, c := range configs[1:] {
		for _, f := range ref.net.Flows.Flows() {
			o, ok := c.net.Flows.Flow(f.ID)
			if !ok {
				t.Fatalf("%s: %s missing flow %d", ctx, c.name, f.ID)
			}
			if !ratesClose(f.Rate, o.Rate) {
				t.Fatalf("%s: flow %d rate %v (%s) vs %v (%s)",
					ctx, f.ID, f.Rate, ref.name, o.Rate, c.name)
			}
		}
	}
}

func ratesClose(a, b core.Rate) bool {
	diff := math.Abs(float64(a - b))
	return diff <= 1e-3 || diff <= 1e-6*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
}

// TestSolverParityPartitioned is the same contract on a live topology that
// an outage has cut into pieces: an edge switch of a fat-tree k=4 goes down
// and comes back at the netmodel level with nothing rerouting, so flows
// keep paths into the dead switch (rate 0) while reroutes, churn and
// coalesced rate changes land on both sides of the cut.
func TestSolverParityPartitioned(t *testing.T) {
	const k = 4
	const nFlows = 48
	const golden = 0x4dd74715a92edd1a

	configs := []*parityNet{
		newParityNet(t, k, "incremental", false),
		newParityNet(t, k, "naive", true),
	}
	digest := fnv.New64a()
	rng := rand.New(rand.NewSource(11))
	nHosts := len(configs[0].g.Hosts())
	nCables := len(configs[0].g.Links) / 2

	// step applies one mutation to every configuration and checks them.
	step := func(ctx string, apply func(c *parityNet)) {
		t.Helper()
		for _, c := range configs {
			apply(c)
		}
		assertParity(t, configs, ctx)
		foldRates(digest, configs[0].net.Flows)
	}
	// ends[id] are the host indices flow id runs between; add and reroute
	// put it on the hash-selected path between them.
	ends := make([][2]int, nFlows+1)
	route := func(c *parityNet, id int, hash uint64) (src, dst core.NodeID, path []core.LinkID) {
		hosts := c.g.Hosts()
		src, dst = hosts[ends[id][0]].ID, hosts[ends[id][1]].ID
		path, err := c.fp.Path(src, dst, hash)
		if err != nil {
			t.Fatal(err)
		}
		return src, dst, path
	}
	add := func(c *parityNet, id int, hash uint64, demand core.Rate) {
		src, dst, path := route(c, id, hash)
		c.net.Flows.Add(&fluid.Flow{
			ID: fluid.FlowID(id), Src: src, Dst: dst,
			Demand: demand, Path: path, State: fluid.Active,
		}, 0)
	}
	reroute := func(c *parityNet, id int, hash uint64) {
		_, _, path := route(c, id, hash)
		c.net.Flows.SetPath(fluid.FlowID(id), path, 0)
	}
	// cable is the i-th cable of the graph, host access cables included.
	cable := func(c *parityNet, i int) core.LinkID {
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
		step(fmt.Sprintf("add flow %d", id), func(c *parityNet) { add(c, id, hash, demand) })
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
				step(ctx, func(c *parityNet) { reroute(c, id, hash) })
			case r < 0.55:
				step(ctx, func(c *parityNet) {
					f, _ := c.net.Flows.Remove(fluid.FlowID(id), 0)
					add(c, id, hash, f.Demand)
				})
			case r < 0.7:
				step(ctx, func(c *parityNet) { c.net.SetCableRate(cable(c, ci), rate, 0) })
			default:
				other := 1 + rng.Intn(nFlows)
				cj := rng.Intn(nCables)
				step(ctx, func(c *parityNet) {
					c.net.Flows.Defer()
					c.net.SetCableRate(cable(c, ci), rate, 0)
					reroute(c, id, hash)
					c.net.SetCableRate(cable(c, cj), rate/2, 0)
					reroute(c, other, hash+1)
					c.net.Flows.Resume(0)
				})
			}
		}
	}

	edgeOf := func(c *parityNet) core.NodeID { return c.g.Hosts()[0].Ports[0].Peer }
	churn("whole", 20)
	step("edge switch down", func(c *parityNet) { c.net.SetNodeState(edgeOf(c), true, 0) })
	churn("partitioned", 60)
	step("edge switch up", func(c *parityNet) { c.net.SetNodeState(edgeOf(c), false, 0) })
	churn("healed", 20)

	if got := digest.Sum64(); got != golden {
		t.Errorf("rate digest %#016x, want %#016x", got, uint64(golden))
	}
}
