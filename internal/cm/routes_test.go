package cm

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// slash24s is n consecutive /24s from 20.0.0.0 on.
func slash24s(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		out[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + i>>16), byte(i >> 8), byte(i), 0}), 24)
	}
	return out
}

// TestSteadyRouteBurstAllocatesNothing: once the route log and the FIB have
// grown to a burst's size, queueing that burst again — 1 000 changes
// sharing one next-hop slice — and draining it allocates nothing.
func TestSteadyRouteBurstAllocatesNothing(t *testing.T) {
	g, _ := topo.TwoRouters(core.Gbps, 0)
	r1, _ := g.NodeByName("r1")
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()
	// An ended run drops posts; the test drains in the engine's place.
	engine.Run(0)
	hops := []fib.NextHop{{Port: 1, Via: netip.MustParseAddr("172.16.0.1")}}
	prefixes := slash24s(1000)
	burst := func() {
		for _, p := range prefixes {
			m.applyRoute(r1.ID, bgp.RouteEvent{Prefix: p, NextHops: hops})
		}
		m.drainRoutes()
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("a steady burst of %d route changes allocates %.1f times, want 0", len(prefixes), allocs)
	}
	if n := net.FIB(r1.ID).Len(); n != len(prefixes) {
		t.Fatalf("FIB holds %d routes, want %d", n, len(prefixes))
	}
	if in := m.Stats.RouteInstalls.Load(); in != 101*uint64(len(prefixes)) {
		t.Fatalf("counted %d installs over 101 bursts of %d", in, len(prefixes))
	}
}

// BenchmarkRouteQueue is the CM's half of a full table: 4 goroutines, as
// 4 speakers would, queue 100 000 /24 changes for one router between them,
// each with its own next-hop slice, while the engine drains them into the
// router's FIB. An iteration ends when the engine has applied the last
// change.
func BenchmarkRouteQueue(b *testing.B) {
	const speakers, n = 4, 100_000
	g, _ := topo.TwoRouters(core.Gbps, 0)
	r1, _ := g.NodeByName("r1")
	// Unpaced, and idle for as long as the benchmark takes between bursts.
	engine := sim.New(sim.Config{FTIStep: core.Millisecond, Pacing: 1e9, MaxIdleWall: time.Hour})
	m := New(engine, netmodel.New(g), nil)
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		engine.Run(core.MaxTime)
	}()
	defer func() {
		engine.Stop()
		<-ran
		m.Stop()
	}()
	prefixes := slash24s(n)
	hops := make([][]fib.NextHop, speakers)
	for i := range hops {
		hops[i] = []fib.NextHop{{Port: core.PortID(1 + i%2), Via: netip.AddrFrom4([4]byte{172, 16, 0, byte(2*i + 1)})}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := 0; s < speakers; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := s * n / speakers; j < (s+1)*n/speakers; j++ {
					m.applyRoute(r1.ID, bgp.RouteEvent{Prefix: prefixes[j], NextHops: hops[s]})
				}
			}()
		}
		wg.Wait()
		// The engine's inbox is FIFO: this runs after the drain of the
		// last change queued.
		if _, ok := sim.Call(engine, false, func() bool { return true }); !ok {
			b.Fatal("the engine stopped")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}
