// BGP WAN example: Horse is "not restricted to DCs and can also be used
// for other types of networks, e.g., Wide Area Networks" (paper §3).
//
// This example runs the full WAN scenario stack (docs/WAN.md): a
// measured backbone topology (Abilene-like by default) whose links
// carry geographic propagation delay, a single AS running iBGP with a
// route reflector hierarchy, and control plane messages delivered at
// fiber speed — so convergence ripples across the continent in RTTs
// instead of instantaneously. After convergence, a seeded link flap
// storm exercises route flap dampening: flapping routes accrue penalty,
// are suppressed, and return once the penalty decays.
//
//	go run ./examples/bgpwan
//	go run ./examples/bgpwan -topo tier1 -dur 30s -delay-scale 2
//	go run ./examples/bgpwan -flaps 0            # convergence only
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	horse "repro"
)

func main() {
	var (
		topoName   = flag.String("topo", "abilene", "embedded WAN topology: abilene, tier1")
		dur        = flag.Duration("dur", 20*time.Second, "virtual duration")
		pacing     = flag.Float64("pacing", 10, "FTI pacing (1 = paper-faithful real time)")
		delayScale = flag.Float64("delay-scale", 1, "scale geographic link delays (0 = zero latency)")
		flaps      = flag.Int("flaps", 2, "cables to flap in the dampening phase (0 disables)")
	)
	flag.Parse()

	g, err := horse.WAN(*topoName, horse.DelayScale(*delayScale))
	if err != nil {
		log.Fatal(err)
	}
	reflectors := 0
	for _, r := range g.Routers() {
		if r.RouteReflector {
			reflectors++
		}
	}

	exp := horse.NewExperiment(horse.Config{
		Pacing:         *pacing,
		SampleInterval: 10 * horse.Millisecond,
	})
	exp.SetTopology(g)
	opts := horse.BGPOptions{
		RouteReflection: true,
		LinkLatency:     true,
	}
	virt := horse.Time(dur.Nanoseconds())
	if *flaps > 0 {
		// Dampening runs on the experiment's virtual clock. Demo-grade
		// aggressive thresholds (suppress on the first flap, reuse after
		// one half-life-ish of quiet) sized to the storm's cadence below,
		// so one run shows the whole suppress -> park -> reuse lifecycle.
		opts.Dampening = &horse.Dampening{
			Penalty:  1000,
			Suppress: 800,
			Reuse:    600,
			HalfLife: (virt / 8).Duration(),
		}
	}
	exp.UseBGP(opts)

	// Every PoP's host sends to a distinct remote PoP; nothing flows
	// until the reflector hierarchy has distributed reachability.
	if err := exp.SendPermutation(7, 500*horse.Mbps, 0, 0); err != nil {
		log.Fatal(err)
	}

	// Phase 2: a seeded storm over backbone cables. Each flap resets
	// the BGP sessions on the cable; the withdraw/re-announce churn at
	// the neighbors accrues dampening penalty.
	if *flaps > 0 {
		n, err := exp.FlapRandomLinks(99, *flaps,
			virt/3, virt*2/3, virt/8, virt/16)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flap storm        : %d scheduled down/up events on %d cables\n", n, *flaps)
	}

	res, err := exp.Run(virt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("topology          : %s — %d PoPs, %d route reflectors\n",
		*topoName, res.Topology.Routers, reflectors)
	fmt.Printf("route installs    : %d (+%d withdraws) over %d bytes of real BGP\n",
		res.RouteInstalls, res.RouteWithdraws, res.ControlBytes)
	if conv, ok := res.ConvergedAt(0.95); ok {
		fmt.Printf("convergence       : aggregate rx at 95%% of steady by t=%v\n", conv)
	}
	fmt.Printf("path latency      : %v rate-weighted mean one-way (delay-scale %v)\n",
		res.MeanPathLatency, *delayScale)
	fmt.Printf("steady rx         : %v\n", res.SteadyAggregateRx())
	fmt.Printf("wall time         : %v for %v virtual (pacing %v, DES saved the rest)\n",
		res.Sim.WallTotal.Round(time.Millisecond), res.Sim.VirtualEnd, *pacing)
	if *flaps > 0 {
		fmt.Printf("injections        : %d applied\n", res.Injections)
		var suppressed, reused, loops uint64
		for _, r := range g.Routers() {
			if sp := exp.Manager().Speaker(r.ID); sp != nil {
				suppressed += sp.Stats.RoutesSuppressed.Load()
				reused += sp.Stats.RoutesReused.Load()
				loops += sp.Stats.ReflectionLoops.Load()
			}
		}
		fmt.Printf("flap dampening    : %d announcements suppressed, %d reused after decay\n",
			suppressed, reused)
		fmt.Printf("reflection loops  : %d stopped by ORIGINATOR_ID/CLUSTER_LIST\n", loops)
	}
	for _, f := range res.Flows {
		fmt.Printf("  flow %-38v %9d bytes  lat=%-12v state=%s\n",
			f.Tuple, f.Bytes, f.PathLatency, f.State)
	}
}
