package horse

// Parity oracle for the component-sharded parallel max–min solver: the
// same failure-injection history (seeded link flaps via netmodel's
// SetCableState, capacity changes, flow churn) on a fat-tree k=8 must
// produce
//
//   - bit-identical rates at solver worker counts 1, 2 and 8 (the
//     determinism guarantee: component discovery is sequential, each
//     component is solved by one goroutine, stats merge in order), and
//   - rates agreeing with the from-scratch naive solver within float
//     tolerance (max–min allocations are unique; the naive solver's
//     different operation order makes bit equality too strong).
//
// The whole suite runs under `go test -race` in CI, so the parallel
// fan-out is also race-checked here.

import (
	"fmt"
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

func newParityNet(t *testing.T, k int, name string, workers int, naive bool) *parityNet {
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
	n.Flows.SetWorkers(workers)
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

func TestParallelSolverParityUnderFailures(t *testing.T) {
	const k = 8
	const nFlows = 256
	const nEvents = 120

	configs := []*parityNet{
		newParityNet(t, k, "workers=1", 1, false),
		newParityNet(t, k, "workers=2", 2, false),
		newParityNet(t, k, "workers=8", 8, false),
		newParityNet(t, k, "naive", 1, true),
	}

	// Seed the same pod-local workload into every configuration: src and
	// dst share a pod, so the fat-tree decomposes into k independent
	// fluid components and multi-pod event batches exercise the parallel
	// fan-out. (Cross-core traffic fuses everything into one component —
	// correctly solved inline; the fluid-level tests cover that shape.)
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
			// the Connection Manager produces, and the one that fans out.
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
	}

	// The parallel configurations must actually have fanned out.
	for _, c := range configs[1:3] {
		if c.net.Flows.Totals().ParallelSolves == 0 {
			t.Errorf("%s: no solve ever used more than one worker", c.name)
		}
	}
}

// assertParity checks every configuration's allocation against the max–min
// invariants, workers=2/8 bit-identical with workers=1, and the naive
// oracle within relative tolerance.
func assertParity(t *testing.T, configs []*parityNet, ctx string) {
	t.Helper()
	for _, c := range configs {
		if err := c.net.Flows.CheckInvariants(); err != nil {
			t.Fatalf("%s: %s: %v", ctx, c.name, err)
		}
	}
	ref := configs[0]
	for _, c := range configs[1:] {
		naive := c.net.Flows.Naive()
		for _, f := range ref.net.Flows.Flows() {
			o, ok := c.net.Flows.Flow(f.ID)
			if !ok {
				t.Fatalf("%s: %s missing flow %d", ctx, c.name, f.ID)
			}
			if naive {
				if !ratesClose(f.Rate, o.Rate) {
					t.Fatalf("%s: flow %d rate %v (workers=1) vs %v (naive oracle)",
						ctx, f.ID, f.Rate, o.Rate)
				}
				continue
			}
			if math.Float64bits(float64(f.Rate)) != math.Float64bits(float64(o.Rate)) {
				t.Fatalf("%s: flow %d rate %v (workers=1) vs %v (%s) — not bit-identical",
					ctx, f.ID, f.Rate, o.Rate, c.name)
			}
		}
	}
}

func ratesClose(a, b core.Rate) bool {
	diff := math.Abs(float64(a - b))
	return diff <= 1e-3 || diff <= 1e-6*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
}
