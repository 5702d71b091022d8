package bgp

import (
	"io"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
)

// ibgpPair wires two same-AS speakers; aClient/bClient say whether each
// side treats its peer as a route reflection client.
func ibgpPair(t *testing.T, a, b *Speaker, aAddr, bAddr string, aClient, bClient bool) {
	t.Helper()
	ca, cb := emu.Pipe()
	if err := a.AddPeer(PeerConfig{
		Conn: ca, LocalAddr: addr(aAddr), RemoteAddr: addr(bAddr),
		RemoteAS: b.cfg.ASN, Port: 1, IBGP: true, RRClient: aClient,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(PeerConfig{
		Conn: cb, LocalAddr: addr(bAddr), RemoteAddr: addr(aAddr),
		RemoteAS: a.cfg.ASN, Port: 1, IBGP: true, RRClient: bClient,
	}); err != nil {
		t.Fatal(err)
	}
}

func mkSpeaker(t *testing.T, name string, rid string, nets []netip.Prefix, sink *routeSink) *Speaker {
	t.Helper()
	cfg := Config{Name: name, ASN: 65000, RouterID: addr(rid), Networks: nets}
	if sink != nil {
		cfg.OnRoute = sink.add
	}
	s, err := NewSpeaker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIBGPNoASPrepend(t *testing.T) {
	// Same-AS peering: the advertised path must carry an empty AS path
	// (no prepend) and LOCAL_PREF, and still install.
	var sinkB routeSink
	a := mkSpeaker(t, "a", "1.1.1.1", []netip.Prefix{pfx("10.0.1.0/24")}, nil)
	b := mkSpeaker(t, "b", "2.2.2.2", nil, &sinkB)
	defer a.Stop()
	defer b.Stop()
	ibgpPair(t, a, b, "172.16.0.0", "172.16.0.1", false, false)

	waitFor(t, "b learns a's prefix over iBGP", func() bool {
		ev, ok := sinkB.latest()[pfx("10.0.1.0/24")]
		return ok && len(ev.NextHops) == 1
	})
	b.mu.Lock()
	best := b.rib.Best(pfx("10.0.1.0/24"))
	b.mu.Unlock()
	if len(best) != 1 {
		t.Fatalf("best = %v", best)
	}
	if len(best[0].Attrs.ASPath) != 0 {
		t.Fatalf("iBGP path has AS path %v, want empty", best[0].Attrs.ASPath)
	}
	if !best[0].Attrs.HasLP || best[0].Attrs.LocalPref != 100 {
		t.Fatalf("iBGP path LOCAL_PREF = %v/%v, want 100", best[0].Attrs.HasLP, best[0].Attrs.LocalPref)
	}
	if !best[0].IBGP {
		t.Fatal("path not marked iBGP")
	}
}

func TestIBGPNonClientRoutesNotReflected(t *testing.T) {
	// a - m - b, all plain iBGP non-clients: m must NOT re-advertise
	// a's route to b (that is the iBGP full-mesh rule reflection
	// exists to relax), and since b was never told of it, m withdraws
	// nothing either. Once m holds a's route, a client c of m brings in
	// 10.0.3.0/24, which m reflects to b: every UPDATE m sends b up to
	// that announcement is silent about 10.0.1.0/24.
	a := mkSpeaker(t, "a", "1.1.1.1", []netip.Prefix{pfx("10.0.1.0/24")}, nil)
	m := mkSpeaker(t, "m", "2.2.2.2", nil, nil)
	c := mkSpeaker(t, "c", "3.3.3.3", []netip.Prefix{pfx("10.0.3.0/24")}, nil)
	defer a.Stop()
	defer m.Stop()
	defer c.Stop()
	b := scriptedPeer(t, m, "172.16.0.2", "172.16.0.3", true)
	ibgpPair(t, a, m, "172.16.0.0", "172.16.0.1", false, false)
	waitFor(t, "m learns a's route", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.rib.Best(pfx("10.0.1.0/24"))) == 1
	})
	ibgpPair(t, m, c, "172.16.0.4", "172.16.0.5", true, false) // m treats c as client

	wire := newPeerWire(t, b)
	for {
		msg := wire.next()
		if msg == nil {
			t.Fatal("m closed the session to b")
		}
		if msg.Type != MsgUpdate {
			continue
		}
		u := msg.Upd
		if slices.Contains(u.NLRI, pfx("10.0.1.0/24")) || slices.Contains(u.Withdrawn, pfx("10.0.1.0/24")) {
			t.Fatalf("m sent b an UPDATE announcing %v and withdrawing %v; a non-client's route must not reach b either way", u.NLRI, u.Withdrawn)
		}
		if slices.Contains(u.NLRI, pfx("10.0.3.0/24")) {
			return
		}
	}
}

func TestRRReflectsClientRoutes(t *testing.T) {
	// c (client) - rr - n (non-client): the reflector must pass the
	// client's route to the non-client, stamped with ORIGINATOR_ID and
	// the reflector's cluster ID, and pass the non-client's route back
	// to the client.
	var sinkC, sinkN routeSink
	c := mkSpeaker(t, "c", "1.1.1.1", []netip.Prefix{pfx("10.0.1.0/24")}, &sinkC)
	rr := mkSpeaker(t, "rr", "2.2.2.2", nil, nil)
	n := mkSpeaker(t, "n", "3.3.3.3", []netip.Prefix{pfx("10.0.3.0/24")}, &sinkN)
	defer c.Stop()
	defer rr.Stop()
	defer n.Stop()
	ibgpPair(t, c, rr, "172.16.0.0", "172.16.0.1", false, true) // rr treats c as client
	ibgpPair(t, rr, n, "172.16.0.2", "172.16.0.3", false, false)

	waitFor(t, "non-client learns the client route", func() bool {
		ev, ok := sinkN.latest()[pfx("10.0.1.0/24")]
		return ok && len(ev.NextHops) == 1
	})
	waitFor(t, "client learns the non-client route", func() bool {
		ev, ok := sinkC.latest()[pfx("10.0.3.0/24")]
		return ok && len(ev.NextHops) == 1
	})
	n.mu.Lock()
	best := n.rib.Best(pfx("10.0.1.0/24"))
	n.mu.Unlock()
	if len(best) != 1 {
		t.Fatalf("best = %v", best)
	}
	if got := best[0].Attrs.OriginatorID; got != addr("1.1.1.1") {
		t.Fatalf("ORIGINATOR_ID = %v, want 1.1.1.1", got)
	}
	if len(best[0].Attrs.ClusterList) != 1 || best[0].Attrs.ClusterList[0] != addr("2.2.2.2") {
		t.Fatalf("CLUSTER_LIST = %v, want [2.2.2.2]", best[0].Attrs.ClusterList)
	}
}

func TestReflectorMeshConverges(t *testing.T) {
	// A triangle of mutually-client reflectors (a hierarchical RR mesh)
	// plus an originating client. Reflection can cycle updates around
	// the triangle; the ORIGINATOR_ID / CLUSTER_LIST checks (unit-tested
	// below with scripted peers) plus split horizon must let every
	// reflector converge on the client's prefix.
	var sinks [3]routeSink
	c := mkSpeaker(t, "c", "9.9.9.9", []netip.Prefix{pfx("10.0.9.0/24")}, nil)
	rrs := make([]*Speaker, 3)
	rids := []string{"1.1.1.1", "2.2.2.2", "3.3.3.3"}
	for i := range rrs {
		rrs[i] = mkSpeaker(t, "rr"+rids[i][:1], rids[i], nil, &sinks[i])
	}
	defer c.Stop()
	for _, r := range rrs {
		defer r.Stop()
	}
	ibgpPair(t, c, rrs[0], "172.16.0.0", "172.16.0.1", false, true)
	ibgpPair(t, rrs[0], rrs[1], "172.16.0.2", "172.16.0.3", true, true)
	ibgpPair(t, rrs[1], rrs[2], "172.16.0.4", "172.16.0.5", true, true)
	ibgpPair(t, rrs[2], rrs[0], "172.16.0.6", "172.16.0.7", true, true)

	for i := range rrs {
		i := i
		waitFor(t, "reflector learns the client prefix", func() bool {
			ev, ok := sinks[i].latest()[pfx("10.0.9.0/24")]
			return ok && len(ev.NextHops) == 1
		})
	}
	// Every reflector must hold the route with reflection attributes:
	// the originator is the client, and the cluster list is non-empty.
	for _, r := range rrs {
		r.mu.Lock()
		best := r.rib.Best(pfx("10.0.9.0/24"))
		r.mu.Unlock()
		if len(best) == 0 {
			t.Fatalf("%s has no best path", r.cfg.Name)
		}
	}
}

// scriptedPeer drives one side of a session with hand-rolled wire bytes:
// it completes the handshake and returns the conn for further writes
// (what the speaker writes stays unread in the pipe).
func scriptedPeer(t *testing.T, s *Speaker, localAddr, remoteAddr string, ibgp bool) io.ReadWriteCloser {
	t.Helper()
	ca, cb := emu.Pipe()
	if err := s.AddPeer(PeerConfig{
		Conn: ca, LocalAddr: addr(localAddr), RemoteAddr: addr(remoteAddr),
		Port: 1, IBGP: ibgp,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Write(EncodeOpen(Open{Version: 4, ASN: uint16(s.cfg.ASN), HoldTime: 0, RouterID: addr(remoteAddr)})); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Write(EncodeKeepalive()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "scripted session established", func() bool {
		return s.SessionState(addr(remoteAddr)) == StateEstablished
	})
	return cb
}

func TestOriginatorIDLoopRejected(t *testing.T) {
	// An update whose ORIGINATOR_ID is the receiver's own router ID is
	// a reflection of the receiver's own route; it must be dropped.
	var sink routeSink
	s := mkSpeaker(t, "a", "1.1.1.1", nil, &sink)
	defer s.Stop()
	cb := scriptedPeer(t, s, "172.16.0.0", "172.16.0.1", true)

	upd, err := EncodeUpdate(Update{
		Attrs: PathAttrs{
			NextHop: addr("172.16.0.1"), HasLP: true, LocalPref: 100,
			OriginatorID: addr("1.1.1.1"), // the receiver itself
			ClusterList:  []netip.Addr{addr("7.7.7.7")},
		},
		NLRI: []netip.Prefix{pfx("10.0.5.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Write(upd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "loop detected", func() bool { return s.Stats.ReflectionLoops.Load() == 1 })
	if ev, ok := sink.latest()[pfx("10.0.5.0/24")]; ok && len(ev.NextHops) > 0 {
		t.Fatal("looped route was installed")
	}

	// Same prefix with a foreign ORIGINATOR_ID must install.
	upd2, err := EncodeUpdate(Update{
		Attrs: PathAttrs{
			NextHop: addr("172.16.0.1"), HasLP: true, LocalPref: 100,
			OriginatorID: addr("5.5.5.5"),
		},
		NLRI: []netip.Prefix{pfx("10.0.5.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Write(upd2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "clean route installs", func() bool {
		ev, ok := sink.latest()[pfx("10.0.5.0/24")]
		return ok && len(ev.NextHops) == 1
	})
}

func TestClusterListLoopRejected(t *testing.T) {
	s, err := NewSpeaker(Config{
		Name: "a", ASN: 65000, RouterID: addr("8.8.8.8"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	cb := scriptedPeer(t, s, "172.16.0.0", "172.16.0.1", true)

	upd, err := EncodeUpdate(Update{
		Attrs: PathAttrs{
			NextHop: addr("172.16.0.1"), HasLP: true, LocalPref: 100,
			OriginatorID: addr("5.5.5.5"),
			ClusterList:  []netip.Addr{addr("7.7.7.7"), addr("8.8.8.8")}, // contains own cluster
		},
		NLRI: []netip.Prefix{pfx("10.0.5.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Write(upd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cluster loop detected", func() bool { return s.Stats.ReflectionLoops.Load() == 1 })
	s.mu.Lock()
	best := s.rib.Best(pfx("10.0.5.0/24"))
	s.mu.Unlock()
	if best != nil {
		t.Fatal("cluster-looped route was installed")
	}
}

// dampeningHalfLife is virtual: no test below waits for it.
const dampeningHalfLife = 15 * time.Second

// suppressedSpeaker returns a dampening speaker on a manualClock whose
// scripted iBGP peer has flapped p twice at one instant — penalty
// exactly 2000, over the 1500 threshold — and announced it a third
// time, which parked. The peer's conn and an encoded withdrawal of p
// come back for the test to continue the script.
func suppressedSpeaker(t *testing.T, p netip.Prefix) (s *Speaker, clk *manualClock, sink *routeSink, cb io.ReadWriteCloser, withdraw []byte) {
	t.Helper()
	clk, sink = &manualClock{}, &routeSink{}
	s, err := NewSpeaker(Config{
		Name: "a", ASN: 65000, RouterID: addr("1.1.1.1"),
		OnRoute: sink.add,
		Dampening: &Dampening{
			Penalty: 1000, Suppress: 1500, Reuse: 750,
			HalfLife: dampeningHalfLife,
		},
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	cb = scriptedPeer(t, s, "172.16.0.0", "172.16.0.1", true)

	announce, err := EncodeUpdate(Update{
		Attrs: PathAttrs{NextHop: addr("172.16.0.1"), HasLP: true, LocalPref: 100},
		NLRI:  []netip.Prefix{p},
	})
	if err != nil {
		t.Fatal(err)
	}
	withdraw, err = EncodeUpdate(Update{Withdrawn: []netip.Prefix{p}})
	if err != nil {
		t.Fatal(err)
	}
	// The pipe keeps order and the clock stands still, so the five
	// messages need no waiting between them.
	for _, msg := range [][]byte{announce, withdraw, announce, withdraw, announce} {
		if _, err := cb.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "third announcement parked", func() bool {
		return s.Stats.RoutesSuppressed.Load() == 1
	})
	var hops []int
	sink.mu.Lock()
	for _, ev := range sink.events {
		hops = append(hops, len(ev.NextHops))
	}
	sink.mu.Unlock()
	if !slices.Equal(hops, []int{1, 0, 1, 0}) {
		t.Fatalf("next hops per route event = %v, want two install/withdraw flaps and nothing after", hops)
	}
	return s, clk, sink, cb, withdraw
}

func TestDampeningSuppressAndReuse(t *testing.T) {
	// Two flaps push the penalty over the suppress threshold; the
	// re-announcement is parked, and once the penalty has decayed below
	// the reuse threshold the parked route installs.
	p := pfx("10.0.5.0/24")
	s, clk, sink, _, _ := suppressedSpeaker(t, p)

	// Decay from 2000 to Reuse takes log2(2000/750) ≈ 1.42 half-lives.
	clk.Advance(core.FromDuration(dampeningHalfLife))
	if n := s.Stats.RoutesReused.Load(); n != 0 {
		t.Fatalf("RoutesReused = %d after one half-life (penalty 1000 > 750)", n)
	}
	clk.Advance(core.FromDuration(dampeningHalfLife / 2))
	if ev, n := sink.latest()[p], s.Stats.RoutesReused.Load(); len(ev.NextHops) != 1 || n != 1 {
		t.Fatalf("after 1.5 half-lives: last event %+v, RoutesReused = %d; want the parked route installed, once", ev, n)
	}
}

func TestDampeningWithdrawClearsParked(t *testing.T) {
	// A withdrawal of a parked (suppressed, never installed) route must
	// discard the parked announcement: when the penalty later decays,
	// reuse must NOT resurrect a route the peer already withdrew.
	p := pfx("10.0.5.0/24")
	s, clk, sink, cb, withdraw := suppressedSpeaker(t, p)
	if _, err := cb.Write(withdraw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "parked announcement discarded", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.damp[dampKey{addr("172.16.0.1"), p}].parked == nil
	})

	// Well past the decay-to-reuse horizon: nothing may install.
	clk.Advance(core.FromDuration(20 * dampeningHalfLife))
	if ev, n := sink.latest()[p], s.Stats.RoutesReused.Load(); len(ev.NextHops) > 0 || n != 0 {
		t.Fatalf("reuse resurrected a withdrawn route: last event %+v, RoutesReused = %d", ev, n)
	}
}
