// Workload shootout: TE policies under time-varying capacity and
// non-permutation traffic.
//
// Runs the demo's three traffic-engineering approaches on the same
// fat-tree, workload and capacity schedule — by default a seeded
// Pareto heavy-tail workload under a random-walk capacity churn — and
// prints for each the steady aggregate rx plus the second-half goodput
// tracking and min-host-rx floor a churning fabric carves out. Because
// every run goes through internal/spec, each row is the identical
// experiment to the matching cmd/horse or campaign invocation.
//
//	go run ./examples/workloads
//	go run ./examples/workloads -traffic incast:42:8 -capacity walk:7:250ms
//	go run ./examples/workloads -traffic matrix:demands.csv -capacity trace:sched.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	horse "repro"
	"repro/internal/spec"
)

func main() {
	var (
		k        = flag.Int("k", 4, "fat-tree arity")
		dur      = flag.Duration("dur", 10*time.Second, "virtual experiment duration")
		pacing   = flag.Float64("pacing", 10, "FTI pacing (virtual:wall)")
		seed     = flag.Int64("seed", 42, "seed for seedable -traffic/-capacity templates")
		traffic  = flag.String("traffic", "pareto", "workload spec (pareto, incast:SEED:FANIN, matrix:FILE, alltoall, ...)")
		capacity = flag.String("capacity", "walk", "capacity churn spec (walk[:SEED[:PERIOD]], trace:FILE, none)")
	)
	flag.Parse()

	// Instantiate seedable templates ("pareto", "walk") with -seed so the
	// default invocation is fully pinned, mirroring campaign expansion.
	ts, err := spec.ParseTraffic(*traffic)
	if err != nil {
		log.Fatal(err)
	}
	if ts.Seeded() && !ts.ExplicitSeed {
		ts = ts.WithSeed(*seed)
	}
	cs, err := spec.ParseCapacity(*capacity)
	if err != nil {
		log.Fatal(err)
	}
	if cs.Seeded() && !cs.ExplicitSeed {
		cs = cs.WithSeed(*seed)
	}
	capStr := ""
	if cs.Kind != "" {
		capStr = cs.String()
	}

	hosts := *k * *k * *k / 4
	fmt.Printf("fat-tree k=%d (%d hosts), traffic %s, capacity %s, %v virtual\n\n",
		*k, hosts, ts, orNone(capStr), *dur)
	fmt.Printf("%-10s %-12s %-14s %-14s %-14s %-12s\n",
		"TE", "exec(wall)", "steady-rx", "goodput-mean", "goodput-min", "host-floor")

	for _, scenario := range []string{"bgp-ecmp", "hedera", "ecmp5"} {
		run := spec.Run{
			Topo:           fmt.Sprintf("fattree:%d", *k),
			Scenario:       scenario,
			Traffic:        ts.String(),
			Capacity:       capStr,
			Dur:            spec.Duration(*dur),
			Pacing:         *pacing,
			SampleInterval: spec.Duration(10 * time.Millisecond),
		}
		exp, err := run.Experiment()
		if err != nil {
			log.Fatal(err)
		}
		end := run.Until()
		res, err := exp.Run(end)
		if err != nil {
			log.Fatal(err)
		}
		// Second-half window: past convergence, inside the churn.
		half := end / 2
		floor := "n/a"
		if min, ok := res.MinHostRx.MinBetween(half, end); ok {
			floor = horse.Rate(min.Value).String()
		}
		gmin := "n/a"
		if min, ok := res.AggregateRx.MinBetween(half, end); ok {
			gmin = horse.Rate(min.Value).String()
		}
		fmt.Printf("%-10s %-12v %-14v %-14v %-14s %-12s\n",
			scenario,
			res.Sim.WallTotal.Round(time.Millisecond),
			res.SteadyAggregateRx(),
			horse.Rate(res.AggregateRx.MeanBetween(half, end)),
			gmin,
			floor)
	}
}

// orNone renders an empty capacity spec as "none".
func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
