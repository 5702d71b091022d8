// Hedera datacenter example: dynamic flow scheduling on a fat-tree.
//
// Runs the same permutation workload twice on a k=4 fat-tree — once under
// plain reactive ECMP (Hedera's baseline) and once under the full Hedera
// scheduler (demand estimation + Global First Fit every 5 virtual
// seconds) — and compares the aggregate goodput. Hedera's win comes from
// moving hash-collided elephants onto disjoint core paths, which is the
// paper's TE story.
//
//	go run ./examples/hederadc
package main

import (
	"fmt"
	"log"
	"time"

	horse "repro"
)

func run(name string, app horse.App, seed int64) {
	topo, err := horse.FatTree(4, horse.SDN())
	if err != nil {
		log.Fatal(err)
	}
	exp := horse.NewExperiment(horse.Config{
		// Accelerated FTI so the example finishes in seconds; set
		// Pacing: 1 for paper-faithful real-time control plane.
		Pacing: 10,
	})
	exp.SetTopology(topo)
	exp.UseSDN(app)
	if err := exp.SendPermutation(seed, 1*horse.Gbps, 0, 0); err != nil {
		log.Fatal(err)
	}
	res, err := exp.Run(30 * horse.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s steady-rx=%-10v wall=%-8v packet-ins=%-4d stats-polls=%d\n",
		name, res.SteadyAggregateRx(), res.Sim.WallTotal.Round(time.Millisecond),
		res.PacketIns, res.StatsQueries)
}

func main() {
	fmt.Println("k=4 fat-tree, 16 hosts, permutation workload, 16 Gbps offered")
	// Use the same seed so both schemes face identical traffic.
	run("ecmp (baseline)", horse.AppReactive(), 11)
	run("hedera", horse.AppHedera(5*horse.Second), 11)
}
