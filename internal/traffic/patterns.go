package traffic

// Heavy-tailed, incast and ML-collective workload generators. All of
// them reuse the Spec/Pattern machinery: a generator is a pure function
// of its parameters and the host count, so the same seed always yields
// the identical []Spec — the property the campaign seed axis and the
// worker-count parity tests rely on.

import (
	"math"
	"math/rand"

	"repro/internal/core"
)

// Heavy-tail shape defaults. Flow *size* (bytes to deliver) is the
// heavy-tailed quantity, the standard DC-workload model: most flows are
// mice, a few elephants carry most bytes. At a fixed per-flow rate a
// size maps 1:1 onto a lifetime, which is what the fluid model
// schedules.
const (
	// ParetoAlpha is the Pareto tail exponent (1 < α < 2 gives the
	// infinite-variance regime measured in DC traces).
	ParetoAlpha = 1.5
	// LognormalSigma is the log-scale standard deviation.
	LognormalSigma = 1.5
	// heavyMeanLife is the mean flow lifetime both distributions are
	// normalized to, so sweeps across distributions hold offered load
	// roughly constant.
	heavyMeanLife = 200 * core.Millisecond
)

// heavyTail generates n flows between random distinct hosts with
// arrivals uniform in the horizon and lifetimes drawn from sample (a
// size distribution expressed directly in lifetime at the given rate).
// n <= 0 defaults to 4 flows per host.
func heavyTail(seed int64, n int, rate core.Rate, horizon core.Time, sample func(*rand.Rand) core.Time) Pattern {
	return func(nHosts int) []Spec {
		if nHosts < 2 || horizon <= 0 || rate <= 0 {
			return nil
		}
		count := n
		if count <= 0 {
			count = 4 * nHosts
		}
		rng := rand.New(rand.NewSource(seed))
		out := make([]Spec, 0, count)
		for i := 0; i < count; i++ {
			src := rng.Intn(nHosts)
			dst := rng.Intn(nHosts - 1)
			if dst >= src {
				dst++
			}
			out = append(out, Spec{
				SrcHost: src, DstHost: dst,
				Rate:     rate,
				Start:    core.Time(rng.Int63n(int64(horizon))),
				Duration: sample(rng),
				Proto:    core.ProtoUDP,
				SrcPort:  uint16(1024 + i%60000),
				// The offset by i/60000 keeps (SrcPort, DstPort) pairs
				// distinct after the src range wraps; plain i/60000 here
				// used to collapse almost every flow onto port 1024,
				// starving 5-tuple ECMP of hash entropy.
				DstPort: uint16(1024 + (i+i/60000)%60000),
			})
		}
		return out
	}
}

// Pareto generates n flows (0 = 4 per host) whose sizes follow a
// Pareto(α=ParetoAlpha) distribution with mean size rate·heavyMeanLife,
// arriving uniformly within the horizon. The classic heavy-tailed DC
// workload: a handful of elephants among mice.
func Pareto(seed int64, n int, rate core.Rate, horizon core.Time) Pattern {
	// Mean of Pareto(xm, α) is α·xm/(α-1); solve xm for the target mean
	// lifetime. Sampling by inversion: xm · U^(-1/α).
	xm := float64(heavyMeanLife) * (ParetoAlpha - 1) / ParetoAlpha
	return heavyTail(seed, n, rate, horizon, func(rng *rand.Rand) core.Time {
		u := rng.Float64()
		for u == 0 { // U=0 would be an infinite flow
			u = rng.Float64()
		}
		d := core.Time(xm * math.Pow(u, -1/ParetoAlpha))
		if d <= 0 {
			d = 1
		}
		return d
	})
}

// Lognormal generates n flows (0 = 4 per host) whose sizes follow a
// lognormal(σ=LognormalSigma) distribution with mean size
// rate·heavyMeanLife, arriving uniformly within the horizon — the
// lighter-tailed alternative to Pareto.
func Lognormal(seed int64, n int, rate core.Rate, horizon core.Time) Pattern {
	// Mean of lognormal(μ, σ) is exp(μ+σ²/2); solve μ for the target.
	mu := math.Log(float64(heavyMeanLife)) - LognormalSigma*LognormalSigma/2
	return heavyTail(seed, n, rate, horizon, func(rng *rand.Rand) core.Time {
		d := core.Time(math.Exp(mu + LognormalSigma*rng.NormFloat64()))
		if d <= 0 {
			d = 1
		}
		return d
	})
}

// Incast timing defaults: one synchronized burst per period, each
// lasting burst.
const (
	IncastPeriod = core.Second
	IncastBurst  = 500 * core.Millisecond
)

// Incast schedules N→1 synchronized bursts: every IncastPeriod a seeded
// victim host is picked and fanin distinct other hosts all start a flow
// to it at exactly the same instant for IncastBurst — the partition/
// aggregate pattern that stresses a single access link. fanin <= 0
// defaults to half the hosts; fanin is clamped to nHosts-1. Bursts
// repeat until the horizon.
func Incast(seed int64, fanin int, rate core.Rate, horizon core.Time) Pattern {
	return func(nHosts int) []Spec {
		if nHosts < 2 || horizon <= 0 {
			return nil
		}
		f := fanin
		if f <= 0 {
			f = nHosts / 2
		}
		if f > nHosts-1 {
			f = nHosts - 1
		}
		if f < 1 {
			f = 1
		}
		rng := rand.New(rand.NewSource(seed))
		var out []Spec
		flowID := 0
		for start := core.Time(0); start < horizon; start += IncastPeriod {
			victim := rng.Intn(nHosts)
			// A seeded partial Fisher–Yates over the non-victim hosts
			// picks f distinct senders.
			senders := make([]int, 0, nHosts-1)
			for h := 0; h < nHosts; h++ {
				if h != victim {
					senders = append(senders, h)
				}
			}
			rng.Shuffle(len(senders), func(i, j int) { senders[i], senders[j] = senders[j], senders[i] })
			burst := IncastBurst
			if start+burst > horizon {
				burst = horizon - start
			}
			for _, src := range senders[:f] {
				out = append(out, Spec{
					SrcHost: src, DstHost: victim,
					Rate: rate, Start: start, Duration: burst,
					Proto:   core.ProtoUDP,
					SrcPort: uint16(1024 + flowID%60000),
					DstPort: uint16(5001),
				})
				flowID++
			}
		}
		return out
	}
}

// CollectivePhase is the default duration of one collective phase/step.
const CollectivePhase = core.Second

// AllToAll schedules the ML-collective all-to-all exchange decomposed
// into phases: in phase p (0-based) every host i sends to host
// (i+p+1) mod n for one phase duration, so after n-1 phases every
// ordered pair has been exercised exactly once with no receiver ever
// hearing two phase-mates at once. phases <= 0 runs the full n-1;
// phase <= 0 uses CollectivePhase.
func AllToAll(phases int, rate core.Rate, phase core.Time) Pattern {
	return func(nHosts int) []Spec {
		if nHosts < 2 {
			return nil
		}
		if phase <= 0 {
			phase = CollectivePhase
		}
		np := phases
		if np <= 0 || np > nHosts-1 {
			np = nHosts - 1
		}
		out := make([]Spec, 0, np*nHosts)
		flowID := 0
		for p := 0; p < np; p++ {
			start := core.Time(p) * phase
			for src := 0; src < nHosts; src++ {
				out = append(out, Spec{
					SrcHost: src, DstHost: (src + p + 1) % nHosts,
					Rate: rate, Start: start, Duration: phase,
					Proto:   core.ProtoUDP,
					SrcPort: uint16(1024 + flowID%60000),
					DstPort: uint16(7001 + p%100),
				})
				flowID++
			}
		}
		return out
	}
}

// Ring schedules the ring-collective neighbor exchange: in even steps
// every host i sends to (i+1) mod n, in odd steps to (i-1+n) mod n —
// the alternating send direction of a ring allreduce
// (reduce-scatter + allgather is 2(n-1) such steps). steps <= 0 runs
// the full 2(n-1); phase <= 0 uses CollectivePhase.
func Ring(steps int, rate core.Rate, phase core.Time) Pattern {
	return func(nHosts int) []Spec {
		if nHosts < 2 {
			return nil
		}
		if phase <= 0 {
			phase = CollectivePhase
		}
		ns := steps
		if ns <= 0 {
			ns = 2 * (nHosts - 1)
		}
		out := make([]Spec, 0, ns*nHosts)
		flowID := 0
		for s := 0; s < ns; s++ {
			start := core.Time(s) * phase
			for src := 0; src < nHosts; src++ {
				dst := (src + 1) % nHosts
				if s%2 == 1 {
					dst = (src - 1 + nHosts) % nHosts
				}
				out = append(out, Spec{
					SrcHost: src, DstHost: dst,
					Rate: rate, Start: start, Duration: phase,
					Proto:   core.ProtoUDP,
					SrcPort: uint16(1024 + flowID%60000),
					DstPort: uint16(8001 + s%100),
				})
				flowID++
			}
		}
		return out
	}
}
