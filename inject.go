package horse

import (
	"fmt"
	"math/rand"

	"repro/internal/cm"
	"repro/internal/topo"
)

// This file is the public face of the failure & dynamics injection
// subsystem: scripted events that happen *during* a run, so the emulated
// control plane has something to react to — link failures and repairs,
// capacity changes, node crashes, and random link flapping. Injections
// are declared before Run (against the already-set topology, so name
// errors surface at scripting time) and executed as simulation events;
// each one is a control plane event, dropping the hybrid clock into FTI
// so BGP speakers and OpenFlow controllers repair paths in wall time.
//
//	exp.At(5*horse.Second).LinkDown("agg-0-0", "core-0-0")
//	exp.At(10*horse.Second).LinkUp("agg-0-0", "core-0-0")
//	exp.At(3*horse.Second).SetLinkRate("s0", "s1", 100*horse.Mbps)
//	exp.At(7*horse.Second).NodeDown("core-0-1")
//	exp.FlapRandomLinks(42, 3, 2*horse.Second, 18*horse.Second,
//	    4*horse.Second, 500*horse.Millisecond)

// injection is one scheduled event: apply runs on the engine goroutine.
type injection struct {
	at    Time
	apply func(m *cm.Manager)
}

// InjectionPoint schedules events at one virtual time; obtained from
// Experiment.At.
type InjectionPoint struct {
	e  *Experiment
	at Time
}

// At returns an injection point for virtual time t. The topology must be
// set first so injected names resolve. Calling At after Run started has
// no effect (events are scheduled once, at Run).
func (e *Experiment) At(t Time) *InjectionPoint {
	return &InjectionPoint{e: e, at: t}
}

// cable resolves the cable between two named nodes.
func (p *InjectionPoint) cable(a, b string) (*topo.Link, error) {
	if p.e.g == nil {
		return nil, fmt.Errorf("horse: set a topology before scheduling injections")
	}
	na, ok := p.e.g.NodeByName(a)
	if !ok {
		return nil, fmt.Errorf("horse: unknown node %q", a)
	}
	nb, ok := p.e.g.NodeByName(b)
	if !ok {
		return nil, fmt.Errorf("horse: unknown node %q", b)
	}
	ab := p.e.g.CableBetween(na.ID, nb.ID)
	if ab == nil {
		return nil, fmt.Errorf("horse: no link between %q and %q", a, b)
	}
	return ab, nil
}

func (p *InjectionPoint) node(name string) (*topo.Node, error) {
	if p.e.g == nil {
		return nil, fmt.Errorf("horse: set a topology before scheduling injections")
	}
	n, ok := p.e.g.NodeByName(name)
	if !ok {
		return nil, fmt.Errorf("horse: unknown node %q", name)
	}
	return n, nil
}

// LinkDown fails the link between nodes a and b (both directions) at
// this injection point's time. The fluid layer clamps the link to zero
// capacity on the spot; adjacent forwarding state is invalidated; BGP
// sessions across the link reset and flood withdrawals; OpenFlow
// agents report PORT_STATUS so the controller app repairs paths.
func (p *InjectionPoint) LinkDown(a, b string) error {
	ab, err := p.cable(a, b)
	if err != nil {
		return err
	}
	p.e.addInjection(p.at, func(m *cm.Manager) { m.CableDown(ab) })
	return nil
}

// LinkUp repairs a previously failed link: capacity returns, BGP
// re-peers over a fresh session, and the controller learns the port is
// back — restoring the pre-failure forwarding (and allocation, once the
// control plane re-converges).
func (p *InjectionPoint) LinkUp(a, b string) error {
	ab, err := p.cable(a, b)
	if err != nil {
		return err
	}
	p.e.addInjection(p.at, func(m *cm.Manager) { m.CableUp(ab) })
	return nil
}

// SetLinkRate changes the capacity of the link between a and b (both
// directions) — the "explicit reaction to capacity change" scenario.
// Allocations re-solve incrementally over the dirty region around the
// link; no routing state changes.
func (p *InjectionPoint) SetLinkRate(a, b string, r Rate) error {
	if r < 0 || !r.Finite() {
		return fmt.Errorf("horse: link rate %v is negative or not finite", r)
	}
	ab, err := p.cable(a, b)
	if err != nil {
		return err
	}
	p.e.addInjection(p.at, func(m *cm.Manager) { m.CableRate(ab, r) })
	return nil
}

// NodeDown crashes a node: every attached link fails (neighbors react as
// for LinkDown) and the node stops forwarding.
func (p *InjectionPoint) NodeDown(name string) error {
	n, err := p.node(name)
	if err != nil {
		return err
	}
	id := n.ID
	p.e.addInjection(p.at, func(m *cm.Manager) { m.NodeDown(id) })
	return nil
}

// NodeUp restores a crashed node and every link of it whose far end is
// up and which no LinkDown holds; the control plane re-converges around
// it.
func (p *InjectionPoint) NodeUp(name string) error {
	n, err := p.node(name)
	if err != nil {
		return err
	}
	id := n.ID
	p.e.addInjection(p.at, func(m *cm.Manager) { m.NodeUp(id) })
	return nil
}

// FlapRandomLinks schedules seeded random link flapping: count distinct
// cables between forwarding nodes (host access links are spared, so no
// host is silently cut from its only port) each go down and come back up
// repeatedly within (start, until). Up-times are exponential with mean
// meanUp, outages exponential with mean meanDown; every scheduled outage
// is paired with its repair inside the window, so the topology ends the
// window fully healed. The same seed reproduces the same flap schedule.
// It returns the number of scheduled injections.
func (e *Experiment) FlapRandomLinks(seed int64, count int, start, until, meanUp, meanDown Time) (int, error) {
	if e.g == nil {
		return 0, fmt.Errorf("horse: set a topology before scheduling injections")
	}
	if count <= 0 || meanUp <= 0 || meanDown <= 0 || until <= start {
		return 0, fmt.Errorf("horse: invalid flap parameters")
	}
	cables := e.backboneCables()
	if count > len(cables) {
		return 0, fmt.Errorf("horse: %d flap links requested, topology has %d eligible cables", count, len(cables))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cables), func(i, j int) { cables[i], cables[j] = cables[j], cables[i] })
	expo := func(mean Time) Time {
		d := Time(rng.ExpFloat64() * float64(mean))
		if d <= 0 {
			d = 1
		}
		return d
	}
	scheduled := 0
	for _, ab := range cables[:count] {
		ab := ab
		t := start + expo(meanUp)
		for {
			downAt := t
			upAt := downAt + expo(meanDown)
			if upAt >= until {
				break // an outage that cannot heal inside the window is dropped
			}
			e.addInjection(downAt, func(m *cm.Manager) { m.CableDown(ab) })
			e.addInjection(upAt, func(m *cm.Manager) { m.CableUp(ab) })
			scheduled += 2
			t = upAt + expo(meanUp)
			if t >= until {
				break
			}
		}
	}
	return scheduled, nil
}

// backboneCables lists the forwarding-node to forwarding-node cables
// (one entry per cable; host access links are spared so no host is
// silently cut from its only port) — the candidate set both
// FlapRandomLinks and WalkLinkRates draw from, in deterministic
// topology order.
func (e *Experiment) backboneCables() []*topo.Link {
	var cables []*topo.Link
	for _, l := range e.g.Links {
		if l.ID > l.Reverse {
			continue // one entry per cable
		}
		if e.g.Nodes[l.From].Kind == topo.Host || e.g.Nodes[l.To].Kind == topo.Host {
			continue
		}
		cables = append(cables, l)
	}
	return cables
}

// Walk step bounds: each step multiplies a cable's capacity factor by a
// draw from [walkStepMin, walkStepMax), clamped to
// [walkFloor, 1.0]·configured rate — capacity dips and recovers but
// never exceeds the provisioned link and never quite reaches zero (a
// zero-capacity walk would be a failure, which is FlapRandomLinks'
// job).
const (
	walkStepMin = 0.75
	walkStepMax = 1.25
	walkFloor   = 0.1
)

// WalkLinkRates schedules a seeded multiplicative random walk over the
// capacity of every backbone cable: every period from start until
// until, each cable's capacity factor takes one step and a SetLinkRate
// injection applies factor·(configured rate) — the time-varying link
// capacity workload (ABC-style cellular traces, but synthesized). The
// same seed reproduces the same schedule; factors are relative to the
// capacity configured at scripting time, so the walk composes with
// heterogeneous link rates. It returns the number of scheduled
// capacity changes.
func (e *Experiment) WalkLinkRates(seed int64, start, period, until Time) (int, error) {
	if e.g == nil {
		return 0, fmt.Errorf("horse: set a topology before scheduling injections")
	}
	if period <= 0 || until <= start {
		return 0, fmt.Errorf("horse: invalid walk parameters (period %v, window %v..%v)", period, start, until)
	}
	cables := e.backboneCables()
	if len(cables) == 0 {
		return 0, fmt.Errorf("horse: topology has no backbone cables to walk")
	}
	rng := rand.New(rand.NewSource(seed))
	factors := make([]float64, len(cables))
	for i := range factors {
		factors[i] = 1
	}
	scheduled := 0
	for t := start; t < until; t += period {
		for i, ab := range cables {
			f := factors[i] * (walkStepMin + rng.Float64()*(walkStepMax-walkStepMin))
			if f > 1 {
				f = 1
			}
			if f < walkFloor {
				f = walkFloor
			}
			factors[i] = f
			ab := ab
			rate := Rate(f * float64(ab.Rate()))
			e.addInjection(t, func(m *cm.Manager) { m.CableRate(ab, rate) })
			scheduled++
		}
	}
	return scheduled, nil
}

// addInjection records one scheduled event.
func (e *Experiment) addInjection(at Time, apply func(m *cm.Manager)) {
	if at < 0 {
		at = 0
	}
	e.injections = append(e.injections, injection{at: at, apply: apply})
}
