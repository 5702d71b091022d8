package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
)

// A layer probe times direct calls into one layer's public API in
// isolation, sized to what the workload that leans on that layer does.
// Every traced run executes all of them, so that each workload's per-layer
// report has every metric; the README says which workload each belongs to.

// probeCtx is what a probe needs: sizes, a seed, scratch space, how long to
// keep timing, and where its numbers go.
type probeCtx struct {
	sz     sizes
	seed   int64
	dir    string
	layers map[string]float64

	minCalls         int
	minTime, maxTime time.Duration
}

type probe struct {
	name string // span name
	run  func(p *probeCtx) error
}

// sink keeps the compiler from discarding a probed call whose result is
// otherwise unused.
var sink any

func runProbes(tr *tracer, o options, layers map[string]float64) error {
	p := &probeCtx{
		sz: full, seed: o.seed, dir: filepath.Join(o.outDir, "probes"), layers: layers,
		minCalls: 10000, minTime: 50 * time.Millisecond, maxTime: 500 * time.Millisecond,
	}
	if o.smoke {
		p.sz, p.minCalls, p.minTime, p.maxTime = smoke, 100, time.Millisecond, 10*time.Millisecond
	}
	root := tr.begin("probes", -1)
	defer tr.end(root)
	for _, group := range [][]probe{sdnProbes, wanProbes, desProbes, campaignProbes} {
		for _, pr := range group {
			var err error
			tr.timed("probe."+pr.name, root, func() { err = pr.run(p) })
			if err != nil {
				return fmt.Errorf("probe %s: %w", pr.name, err)
			}
		}
	}
	return nil
}

// perCall calls fn in doubling batches until it has run minCalls times for
// at least minTime, or for maxTime, and returns the mean time of a call.
func (p *probeCtx) perCall(fn func()) time.Duration {
	calls := 0
	start := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		el := time.Since(start)
		if el >= p.maxTime || (calls >= p.minCalls && el >= p.minTime) {
			return el / time.Duration(calls)
		}
	}
}

// scaled shrinks a probe's fixed operation count at smoke size.
func (p *probeCtx) scaled(n int) int {
	if p.sz == smoke {
		return max(n/100, 10)
	}
	return n
}

func (p *probeCtx) set(name string, v float64) { p.layers[name] = v }

func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf runs fn n times and returns the median of the durations it
// reports, for operations that need fresh state on every call.
func medianOf(n int, fn func() (time.Duration, error)) (time.Duration, error) {
	d := make([]time.Duration, n)
	for i := range d {
		var err error
		if d[i], err = fn(); err != nil {
			return 0, err
		}
	}
	return medianDuration(d), nil
}

// hostPairs draws n seeded pairs of distinct hosts.
func hostPairs(g *topo.Graph, seed int64, n int) [][2]*topo.Node {
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]*topo.Node, n)
	for i := range out {
		s := rng.Intn(len(hosts))
		d := rng.Intn(len(hosts) - 1)
		if d >= s {
			d++
		}
		out[i] = [2]*topo.Node{hosts[s], hosts[d]}
	}
	return out
}

// tupleOf is the UDP five-tuple the workloads give flow i between two hosts.
func tupleOf(src, dst *topo.Node, i int) core.FiveTuple {
	return core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: core.ProtoUDP,
		SrcPort: uint16(10000 + i%50000), DstPort: uint16(20000 + i%40000)}
}

// shortestNextHops calls visit, for every forwarding node and every host it
// can reach, with the node's ports that lie on a shortest path to that
// host, in port order: the forwarding state a converged control plane
// installs, found with one breadth-first search per host.
func shortestNextHops(g *topo.Graph, visit func(node, host *topo.Node, ports []core.PortID)) {
	dist := make([]int, len(g.Nodes))
	for _, host := range g.Hosts() {
		for i := range dist {
			dist[i] = -1
		}
		dist[host.ID] = 0
		queue := []core.NodeID{host.ID}
		for len(queue) > 0 {
			cur := g.Node(queue[0])
			queue = queue[1:]
			for _, port := range cur.Ports {
				if dist[port.Peer] < 0 {
					dist[port.Peer] = dist[cur.ID] + 1
					queue = append(queue, port.Peer)
				}
			}
		}
		for _, node := range g.Nodes {
			if node.Kind == topo.Host || dist[node.ID] < 0 {
				continue
			}
			var ports []core.PortID
			for _, port := range node.Ports {
				if dist[port.Peer] == dist[node.ID]-1 {
					ports = append(ports, port.ID)
				}
			}
			visit(node, host, ports)
		}
	}
}
