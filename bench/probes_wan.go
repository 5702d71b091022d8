package main

import (
	"fmt"
	"io"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/fib"
	"repro/internal/netmodel"
	"repro/internal/topo"
)

// wanProbes are the layers wan-fulltable leans on: the multi-AS generator,
// the BGP codec, RIB and a whole two-speaker session without the simulator,
// the emu pipes under every session, and the FIB the routes land in.
var wanProbes = []probe{
	{"topo.wan_multias", probeWANBuild},
	{"bgp.codec", probeBGPCodec},
	{"bgp.rib", probeRIB},
	{"bgp.session", probeBGPSession},
	{"emu.pipe", probePipe},
	{"fib", probeFIB},
	{"netmodel.install_route", probeInstallRoute},
}

func wanGraph(prefixes int) (*topo.Graph, error) {
	return topo.WANMultiAS(topo.MultiASOpts{
		WANOpts: topo.WANOpts{PoPs: wanPoPs, Seed: 11}, ASes: wanASes, FullTablePrefixes: prefixes,
	})
}

func probeWANBuild(p *probeCtx) error {
	var err error
	p.set("topo.wan_multias_build_ms", ms(p.perCall(func() { sink, err = wanGraph(p.sz.wanPrefixes) })))
	return err
}

// slash24s is the synthetic table: n consecutive /24s from 20.0.0.0, as the
// multi-AS generator originates them.
func slash24s(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		out[i] = netip.PrefixFrom(core.IPv4FromUint32(0x14000000+uint32(i)<<8), 24)
	}
	return out
}

// attrGroups splits prefixes into n announcement groups that differ in
// their AS path, as routes from n origins would.
func attrGroups(prefixes []netip.Prefix, n int) []bgp.UpdateGroup {
	groups := make([]bgp.UpdateGroup, n)
	per := len(prefixes) / n
	for i := range groups {
		groups[i] = bgp.UpdateGroup{
			Attrs: bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{65001, uint16(65100 + i)},
				NextHop: netip.MustParseAddr("172.16.0.1")},
			NLRI: prefixes[i*per : (i+1)*per],
		}
	}
	return groups
}

func probeBGPCodec(p *probeCtx) error {
	groups := attrGroups(slash24s(p.sz.wanPrefixes/2), 8)
	var msgs [][]byte
	var err error
	p.set("bgp.pack_updates_ms", ms(p.perCall(func() { msgs, err = bgp.PackUpdates(nil, groups) })))
	if err != nil {
		return err
	}
	i := 0
	p.set("bgp.decode_update_us", us(p.perCall(func() {
		sink, err = bgp.Decode(msgs[i%len(msgs)])
		i++
	})))
	return err
}

func probeRIB(p *probeCtx) error {
	prefixes := slash24s(p.sz.wanPrefixes / 2)
	peers := []netip.Addr{netip.MustParseAddr("172.16.0.1"), netip.MustParseAddr("172.16.0.3")}
	// fill announces every prefix from both peers, as a router with two
	// upstreams sees the table; it returns the time of one UpdateAdjIn.
	fill := func(r *bgp.RIB) time.Duration {
		start := time.Now()
		for k, peer := range peers {
			attrs := r.Intern(bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{uint16(65001 + k), 65100}, NextHop: peer})
			for _, pfx := range prefixes {
				r.UpdateAdjIn(peer, pfx, &bgp.Path{Attrs: attrs, PeerAddr: peer, PeerRouterID: peer, Port: core.PortID(k + 1)})
			}
		}
		return time.Since(start) / time.Duration(len(peers)*len(prefixes))
	}
	var r *bgp.RIB
	adjIn, err := medianOf(3, func() (time.Duration, error) {
		r = bgp.NewRIB(true)
		return fill(r), nil
	})
	if err != nil {
		return err
	}
	p.set("bgp.rib_update_adjin_ns", ns(adjIn))

	start := time.Now()
	for _, pfx := range prefixes {
		sink, _ = r.Decide(pfx)
	}
	p.set("bgp.rib_decide_ns", ns(time.Since(start)/time.Duration(len(prefixes))))

	drop, err := medianOf(3, func() (time.Duration, error) {
		r := bgp.NewRIB(true)
		fill(r)
		start := time.Now()
		dropped := r.DropPeer(peers[0])
		took := time.Since(start)
		if len(dropped) != len(prefixes) {
			return 0, fmt.Errorf("DropPeer touched %d prefixes, want %d", len(dropped), len(prefixes))
		}
		return took, nil
	})
	p.set("bgp.rib_drop_peer_ms", ms(drop))
	return err
}

// probeBGPSession is BGP alone: two speakers over an emu pipe, one
// originating the whole table, timed from opening the session until the
// other has handed every route to its OnRoute hook. No sim, no cm, no fib.
func probeBGPSession(p *probeCtx) error {
	prefixes := slash24s(p.sz.wanPrefixes)
	var learned atomic.Int64
	done := make(chan struct{})
	a, err := bgp.NewSpeaker(bgp.Config{Name: "origin", ASN: 65001, RouterID: netip.MustParseAddr("1.1.1.1"), Networks: prefixes})
	if err != nil {
		return err
	}
	defer a.Stop()
	b, err := bgp.NewSpeaker(bgp.Config{Name: "sink", ASN: 65002, RouterID: netip.MustParseAddr("2.2.2.2"),
		OnRoute: func(bgp.RouteEvent) {
			if learned.Add(1) == int64(len(prefixes)) {
				close(done)
			}
		}})
	if err != nil {
		return err
	}
	defer b.Stop()
	aAddr, bAddr := netip.MustParseAddr("172.16.0.0"), netip.MustParseAddr("172.16.0.1")
	ca, cb := emu.Pipe()
	start := time.Now()
	if err := a.AddPeer(bgp.PeerConfig{Conn: ca, LocalAddr: aAddr, RemoteAddr: bAddr, RemoteAS: 65002, Port: 1}); err != nil {
		return err
	}
	if err := b.AddPeer(bgp.PeerConfig{Conn: cb, LocalAddr: bAddr, RemoteAddr: aAddr, RemoteAS: 65001, Port: 1}); err != nil {
		return err
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("%d of %d routes learned after 2m", learned.Load(), len(prefixes))
	}
	took := time.Since(start)
	p.set("bgp.session_transfer_s", took.Seconds())
	p.set("bgp.routes_per_s", float64(len(prefixes))/took.Seconds())
	return nil
}

// probePipe streams through one emu pipe from a writer goroutine to a
// reader: full 4096-byte UPDATEs for bandwidth, 19-byte KEEPALIVEs for
// per-message cost.
func probePipe(p *probeCtx) error {
	stream := func(msgLen, count int) (time.Duration, error) {
		w, r := emu.Pipe()
		defer w.Close()
		defer r.Close()
		msg := make([]byte, msgLen)
		start := time.Now()
		go func() {
			for i := 0; i < count; i++ {
				if _, err := w.Write(msg); err != nil {
					return // the reader gave up and closed the pipe
				}
			}
		}()
		buf := make([]byte, msgLen)
		for i := 0; i < count; i++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	const updateLen, keepaliveLen = 4096, 19
	n := p.scaled(50000)
	took, err := stream(updateLen, n)
	if err != nil {
		return err
	}
	p.set("emu.pipe_mb_per_s", float64(n*updateLen)/1e6/took.Seconds())
	n = p.scaled(500000)
	if took, err = stream(keepaliveLen, n); err != nil {
		return err
	}
	p.set("emu.pipe_msg_ns", ns(took/time.Duration(n)))
	return nil
}

func probeFIB(p *probeCtx) error {
	prefixes := slash24s(p.sz.wanPrefixes)
	hops := []fib.NextHop{{Port: 1, Via: netip.MustParseAddr("172.16.0.1")}, {Port: 2, Via: netip.MustParseAddr("172.16.0.3")}}
	n := time.Duration(len(prefixes))
	fill := func(t *fib.Table) error {
		for _, pfx := range prefixes {
			if err := t.Insert(pfx, hops); err != nil {
				return err
			}
		}
		return nil
	}
	t := fib.New()
	start := time.Now()
	if err := fill(t); err != nil {
		return err
	}
	p.set("fib.insert_ns", ns(time.Since(start)/n))

	i := 0
	p.set("fib.lookup_ns", ns(p.perCall(func() {
		i++
		addr := prefixes[(i*7919)%len(prefixes)].Addr().Next()
		sink, _ = t.LookupHash(addr, uint32(i))
	})))

	prune, err := medianOf(3, func() (time.Duration, error) {
		t := fib.New()
		if err := fill(t); err != nil {
			return 0, err
		}
		start := time.Now()
		touched := t.PrunePort(1)
		took := time.Since(start)
		if touched != len(prefixes) {
			return 0, fmt.Errorf("PrunePort touched %d routes, want %d", touched, len(prefixes))
		}
		return took, nil
	})
	if err != nil {
		return err
	}
	p.set("fib.prune_port_ms", ms(prune))

	start = time.Now()
	for _, pfx := range prefixes {
		t.Remove(pfx)
	}
	p.set("fib.remove_ns", ns(time.Since(start)/n))
	if t.Len() != 0 {
		return fmt.Errorf("%d routes left after removing all", t.Len())
	}
	return nil
}

// probeInstallRoute is the path a learned route takes into the data plane:
// netmodel.InstallRoute with reroutes coalesced, as cm calls it.
func probeInstallRoute(p *probeCtx) error {
	g, err := wanGraph(0)
	if err != nil {
		return err
	}
	n := netmodel.New(g)
	n.AutoReroute = false
	router := g.Routers()[0].ID
	prefixes := slash24s(p.sz.wanPrefixes)
	hops := []fib.NextHop{{Port: 1, Via: netip.MustParseAddr("172.16.0.1")}}
	start := time.Now()
	for _, pfx := range prefixes {
		if err := n.InstallRoute(router, fib.Route{Prefix: pfx, NextHops: hops}, 0); err != nil {
			return err
		}
	}
	p.set("netmodel.install_route_ns", ns(time.Since(start)/time.Duration(len(prefixes))))
	return nil
}
