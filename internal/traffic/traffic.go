// Package traffic generates experiment workloads. The paper's demo uses a
// single pattern — "each server of the DC sends a single UDP flow to
// another server inside the DC, at the constant rate of 1 Gbps" — which is
// Permutation here; Stride and the generators in patterns.go cover other
// common DC evaluation patterns.
package traffic

import (
	"math/rand"

	"repro/internal/core"
)

// Spec describes one flow by host index (resolved to topology hosts by
// the experiment runner).
type Spec struct {
	SrcHost  int
	DstHost  int
	Rate     core.Rate
	Start    core.Time
	Duration core.Time // 0 = until experiment end
	Proto    core.Proto
	SrcPort  uint16
	DstPort  uint16
}

// Pattern produces the flow set for a host count.
type Pattern func(nHosts int) []Spec

// Permutation sends one flow per host to a random distinct destination,
// with every host receiving exactly one flow (a random derangement,
// seeded for reproducibility). This is the paper's demo workload.
func Permutation(seed int64, rate core.Rate, start, duration core.Time) Pattern {
	return func(n int) []Spec {
		if n < 2 {
			return nil
		}
		rng := rand.New(rand.NewSource(seed))
		perm := derangement(rng, n)
		out := make([]Spec, 0, n)
		for src, dst := range perm {
			out = append(out, Spec{
				SrcHost: src, DstHost: dst,
				Rate: rate, Start: start, Duration: duration,
				Proto:   core.ProtoUDP,
				SrcPort: uint16(10000 + src),
				DstPort: uint16(20000 + dst),
			})
		}
		return out
	}
}

// derangement returns a permutation with no fixed points.
func derangement(rng *rand.Rand, n int) []int {
	perm := rng.Perm(n)
	for {
		fixed := -1
		for i, v := range perm {
			if i == v {
				fixed = i
				break
			}
		}
		if fixed == -1 {
			return perm
		}
		// Swap the fixed point with a random other position; repeat.
		j := rng.Intn(n)
		if j == fixed {
			j = (j + 1) % n
		}
		perm[fixed], perm[j] = perm[j], perm[fixed]
	}
}

// Stride sends host i to host (i+stride) mod n, the classic fat-tree
// stress pattern (stride = hosts-per-pod forces all traffic across the
// core).
func Stride(stride int, rate core.Rate, start, duration core.Time) Pattern {
	return func(n int) []Spec {
		if n < 2 || stride%n == 0 {
			return nil
		}
		out := make([]Spec, 0, n)
		for src := 0; src < n; src++ {
			out = append(out, Spec{
				SrcHost: src, DstHost: (src + stride) % n,
				Rate: rate, Start: start, Duration: duration,
				Proto:   core.ProtoUDP,
				SrcPort: uint16(10000 + src),
				DstPort: uint16(20000 + (src+stride)%n),
			})
		}
		return out
	}
}
