package cm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/netmodel"
	"repro/internal/topo"
)

// outageModel is the plain-map specification of outage state: what each
// injection records, with liveness derived and nothing else kept.
type outageModel struct {
	linkDown map[core.LinkID]bool // by the cable's lower-numbered link
	nodeDown map[core.NodeID]bool
	rate     map[core.LinkID]core.Rate
	// changes counts liveness changes plus rate changes: what
	// Stats.Injections must read.
	changes uint64
}

func (o *outageModel) alive(l *topo.Link) bool {
	return !o.linkDown[cableKey(l)] && !o.nodeDown[l.From] && !o.nodeDown[l.To]
}

func cableKey(l *topo.Link) core.LinkID { return min(l.ID, l.Reverse) }

// step applies one action to the model, counting the cables whose
// liveness it changed.
func (o *outageModel) step(cables []*topo.Link, act func()) {
	before := make([]bool, len(cables))
	for i, l := range cables {
		before[i] = o.alive(l)
	}
	act()
	for i, l := range cables {
		if o.alive(l) != before[i] {
			o.changes++
		}
	}
}

// typeOK checks the manager's state against the model: per cable,
// LinkAlive is the conjunction of the model's three flags, and the fluid
// layer's capacity in both directions is the model's rate while the cable
// is alive and zero otherwise; the injection count is the model's.
func typeOK(m *Manager, o *outageModel, cables []*topo.Link) error {
	for _, n := range m.G.Nodes {
		if n.Down() != o.nodeDown[n.ID] {
			return fmt.Errorf("node %s down=%v, model %v", n.Name, n.Down(), o.nodeDown[n.ID])
		}
	}
	for _, l := range cables {
		want := o.alive(l)
		wantCap := core.Rate(0)
		if want {
			wantCap = o.rate[cableKey(l)]
		}
		for _, id := range []core.LinkID{l.ID, l.Reverse} {
			if got := m.G.LinkAlive(id); got != want {
				return fmt.Errorf("link %d LinkAlive=%v, model %v", id, got, want)
			}
			if got := m.Net.Flows.Capacity(id); got != wantCap {
				return fmt.Errorf("link %d capacity %v, model %v", id, got, wantCap)
			}
		}
	}
	if got := m.Stats.Injections.Load(); got != o.changes {
		return fmt.Errorf("injections %d, model %d", got, o.changes)
	}
	return nil
}

// TestOutageCompositionMatchesModel drives an unwired manager through
// seeded random interleavings of CableDown, CableUp, NodeDown, NodeUp and
// CableRate and checks typeOK after every action. The root composition
// tests each pin one sequence; this covers the interleavings.
func TestOutageCompositionMatchesModel(t *testing.T) {
	ring, err := topo.WANRing(4, 0, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	fattree, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *topo.Graph
	}{{"WANRing(4,0)", ring}, {"fattree:4", fattree}} {
		t.Run(tc.name, func(t *testing.T) {
			const actions = 600
			g := tc.g
			m := New(newEngine(), netmodel.New(g), nil)
			o := &outageModel{
				linkDown: map[core.LinkID]bool{},
				nodeDown: map[core.NodeID]bool{},
				rate:     map[core.LinkID]core.Rate{},
			}
			var cables []*topo.Link
			for _, l := range g.Links {
				if l.ID < l.Reverse {
					cables = append(cables, l)
					o.rate[l.ID] = l.Rate()
				}
			}
			// One single-link flow per direction gives every link a slot in
			// the solver, so Capacity reads the cached value the injections
			// maintain rather than the topology callback.
			for _, l := range g.Links {
				m.Net.Flows.Add(&fluid.Flow{
					ID: fluid.FlowID(l.ID + 1), Src: l.From, Dst: l.To,
					Demand: core.Gbps, Path: []core.LinkID{l.ID}, State: fluid.Active,
				}, 0)
			}
			rates := []core.Rate{100 * core.Mbps, 400 * core.Mbps, core.Gbps}
			rng := rand.New(rand.NewSource(27))
			for i := 0; i < actions; i++ {
				l := cables[rng.Intn(len(cables))]
				if rng.Intn(2) == 0 {
					l = g.Link(l.Reverse) // either direction names the cable
				}
				n := g.Nodes[rng.Intn(len(g.Nodes))]
				var desc string
				switch r := rng.Intn(5); r {
				case 0, 1:
					down := r == 0
					desc = fmt.Sprintf("CableDown=%v %d", down, l.ID)
					o.step(cables, func() { o.linkDown[cableKey(l)] = down })
					if down {
						m.CableDown(l)
					} else {
						m.CableUp(l)
					}
				case 2, 3:
					down := r == 2
					desc = fmt.Sprintf("NodeDown=%v %s", down, n.Name)
					o.step(cables, func() { o.nodeDown[n.ID] = down })
					if down {
						m.NodeDown(n.ID)
					} else {
						m.NodeUp(n.ID)
					}
				default:
					rate := rates[rng.Intn(len(rates))]
					desc = fmt.Sprintf("CableRate %d %v", l.ID, rate)
					o.rate[cableKey(l)] = rate
					o.changes++
					m.CableRate(l, rate)
				}
				if err := typeOK(m, o, cables); err != nil {
					t.Fatalf("action %d (%s): %v", i, desc, err)
				}
			}
		})
	}
}
