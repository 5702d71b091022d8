package bgp

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// routeSink collects RouteEvents thread-safely.
type routeSink struct {
	mu     sync.Mutex
	events []RouteEvent
}

func (rs *routeSink) add(ev RouteEvent) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.events = append(rs.events, ev)
}

// latest returns the last event per prefix.
func (rs *routeSink) latest() map[netip.Prefix]RouteEvent {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[netip.Prefix]RouteEvent)
	for _, ev := range rs.events {
		out[ev.Prefix] = ev
	}
	return out
}

// pair wires two speakers over an emu.Pipe (a -> b uses aPort on a's side).
func pair(t *testing.T, a, b *Speaker, aAddr, bAddr string, aPort, bPort int) {
	t.Helper()
	ca, cb := emu.Pipe()
	if err := a.AddPeer(PeerConfig{
		Conn: ca, LocalAddr: addr(aAddr), RemoteAddr: addr(bAddr),
		RemoteAS: b.cfg.ASN, Port: core.PortID(aPort),
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(PeerConfig{
		Conn: cb, LocalAddr: addr(bAddr), RemoteAddr: addr(aAddr),
		RemoteAS: a.cfg.ASN, Port: core.PortID(bPort),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeakerConfigValidation(t *testing.T) {
	if _, err := NewSpeaker(Config{ASN: 0, RouterID: addr("1.1.1.1")}); err == nil {
		t.Fatal("ASN 0 accepted")
	}
	if _, err := NewSpeaker(Config{ASN: 1, RouterID: netip.MustParseAddr("::1")}); err == nil {
		t.Fatal("IPv6 router ID accepted")
	}
	for _, bad := range []netip.Prefix{pfx("2001:db8::/32"), {}, netip.PrefixFrom(addr("10.0.0.0"), 33)} {
		_, err := NewSpeaker(Config{ASN: 1, RouterID: addr("1.1.1.1"), Networks: []netip.Prefix{pfx("10.0.0.0/24"), bad}})
		if err == nil || !strings.Contains(err.Error(), bad.String()) {
			t.Fatalf("network %v: err = %v, want one naming the prefix", bad, err)
		}
	}
}

func TestTwoSpeakersEstablishAndExchange(t *testing.T) {
	// The paper's Figure 1 scenario: two routers open a session,
	// exchange updates, install routes and converge.
	var sinkA, sinkB routeSink
	a, err := NewSpeaker(Config{
		Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"),
		Networks: []netip.Prefix{pfx("10.0.1.0/24")},
		OnRoute:  sinkA.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpeaker(Config{
		Name: "r2", ASN: 65002, RouterID: addr("2.2.2.2"),
		Networks: []netip.Prefix{pfx("10.0.2.0/24")},
		OnRoute:  sinkB.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()
	pair(t, a, b, "172.16.0.0", "172.16.0.1", 2, 2)

	waitFor(t, "session established", func() bool {
		return a.SessionState(addr("172.16.0.1")) == StateEstablished &&
			b.SessionState(addr("172.16.0.0")) == StateEstablished
	})
	waitFor(t, "r1 learns r2's prefix", func() bool {
		ev, ok := sinkA.latest()[pfx("10.0.2.0/24")]
		return ok && len(ev.NextHops) == 1
	})
	waitFor(t, "r2 learns r1's prefix", func() bool {
		ev, ok := sinkB.latest()[pfx("10.0.1.0/24")]
		return ok && len(ev.NextHops) == 1
	})
	ev := sinkA.latest()[pfx("10.0.2.0/24")]
	if ev.NextHops[0].Port != 2 || ev.NextHops[0].Via != addr("172.16.0.1") {
		t.Fatalf("next hop = %+v", ev.NextHops[0])
	}
	// Message accounting: both sides sent an OPEN and at least one
	// UPDATE and KEEPALIVE.
	if a.Stats.OpensSent.Load() != 1 || a.Stats.UpdatesSent.Load() == 0 || a.Stats.KeepalivesSent.Load() == 0 {
		t.Fatalf("stats: opens=%d updates=%d ka=%d",
			a.Stats.OpensSent.Load(), a.Stats.UpdatesSent.Load(), a.Stats.KeepalivesSent.Load())
	}
	// Loc-RIB snapshot includes both prefixes.
	rib := a.LocRIB()
	if len(rib) != 2 {
		t.Fatalf("LocRIB = %v", rib)
	}
	if rib[pfx("10.0.1.0/24")] != nil {
		t.Fatal("locally originated prefix has FIB next hops")
	}
}

func TestTransitPropagation(t *testing.T) {
	// r1 - r2 - r3 in a line: r3 must learn r1's prefix through r2 with
	// AS path [65002 65001] and install via its r2-facing port.
	var sink3 routeSink
	mk := func(name string, asn uint32, rid string, nets []netip.Prefix, sink *routeSink) *Speaker {
		cfg := Config{Name: name, ASN: asn, RouterID: addr(rid), Networks: nets}
		if sink != nil {
			cfg.OnRoute = sink.add
		}
		s, err := NewSpeaker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	r1 := mk("r1", 65001, "1.1.1.1", []netip.Prefix{pfx("10.0.1.0/24")}, nil)
	r2 := mk("r2", 65002, "2.2.2.2", nil, nil)
	r3 := mk("r3", 65003, "3.3.3.3", nil, &sink3)
	defer r1.Stop()
	defer r2.Stop()
	defer r3.Stop()

	pair(t, r1, r2, "172.16.0.0", "172.16.0.1", 1, 1)
	pair(t, r2, r3, "172.16.0.2", "172.16.0.3", 2, 1)

	waitFor(t, "r3 learns r1's prefix via r2", func() bool {
		ev, ok := sink3.latest()[pfx("10.0.1.0/24")]
		return ok && len(ev.NextHops) == 1 && ev.NextHops[0].Via == addr("172.16.0.2")
	})
}

func TestECMPMultipathInstall(t *testing.T) {
	// Diamond: r1 peers with m1 and m2; both transit to r4 which
	// originates a prefix. r1 (multipath) must install 2 next hops.
	var sink1 routeSink
	mk := func(name string, asn uint32, rid string, nets []netip.Prefix, mp bool, sink *routeSink) *Speaker {
		cfg := Config{Name: name, ASN: asn, RouterID: addr(rid), Networks: nets, Multipath: mp}
		if sink != nil {
			cfg.OnRoute = sink.add
		}
		s, err := NewSpeaker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	r1 := mk("r1", 65001, "1.1.1.1", nil, true, &sink1)
	m1 := mk("m1", 65002, "2.2.2.2", nil, false, nil)
	m2 := mk("m2", 65003, "3.3.3.3", nil, false, nil)
	r4 := mk("r4", 65004, "4.4.4.4", []netip.Prefix{pfx("10.0.4.0/24")}, false, nil)
	defer r1.Stop()
	defer m1.Stop()
	defer m2.Stop()
	defer r4.Stop()

	pair(t, r1, m1, "172.16.0.0", "172.16.0.1", 1, 1)
	pair(t, r1, m2, "172.16.0.2", "172.16.0.3", 2, 1)
	pair(t, m1, r4, "172.16.0.4", "172.16.0.5", 2, 1)
	pair(t, m2, r4, "172.16.0.6", "172.16.0.7", 2, 2)

	waitFor(t, "r1 installs 2-way ECMP", func() bool {
		ev, ok := sink1.latest()[pfx("10.0.4.0/24")]
		return ok && len(ev.NextHops) == 2
	})
	ev := sink1.latest()[pfx("10.0.4.0/24")]
	ports := map[core.PortID]bool{ev.NextHops[0].Port: true, ev.NextHops[1].Port: true}
	if !ports[1] || !ports[2] {
		t.Fatalf("ECMP ports = %v", ev.NextHops)
	}
}

func TestSessionDownWithdraws(t *testing.T) {
	var sinkA routeSink
	a, err := NewSpeaker(Config{
		Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"),
		OnRoute: sinkA.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpeaker(Config{
		Name: "r2", ASN: 65002, RouterID: addr("2.2.2.2"),
		Networks: []netip.Prefix{pfx("10.0.2.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	pair(t, a, b, "172.16.0.0", "172.16.0.1", 2, 2)

	waitFor(t, "r1 learns the prefix", func() bool {
		ev, ok := sinkA.latest()[pfx("10.0.2.0/24")]
		return ok && len(ev.NextHops) == 1
	})
	// Kill r2: r1 must emit a withdraw (empty next hops).
	b.Stop()
	waitFor(t, "r1 withdraws the prefix", func() bool {
		ev, ok := sinkA.latest()[pfx("10.0.2.0/24")]
		return ok && len(ev.NextHops) == 0
	})
	waitFor(t, "r1's session to r2 gone", func() bool {
		return a.SessionState(addr("172.16.0.1")) == StateClosed
	})
}

func TestWrongASRejected(t *testing.T) {
	a, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpeaker(Config{Name: "r2", ASN: 65002, RouterID: addr("2.2.2.2")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()
	ca, cb := emu.Pipe()
	// a expects AS 64999 but the peer is 65002.
	if err := a.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 64999, Port: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(PeerConfig{Conn: cb, LocalAddr: addr("172.16.0.1"), RemoteAddr: addr("172.16.0.0"), RemoteAS: 65001, Port: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session torn down", func() bool {
		return a.SessionState(addr("172.16.0.1")) == StateClosed
	})
	if a.Stats.NotificationsSent.Load() == 0 {
		t.Fatal("no NOTIFICATION sent for bad peer AS")
	}
}

func TestDuplicatePeerRejected(t *testing.T) {
	a, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	ca, _ := emu.Pipe()
	cfg := PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), Port: 1}
	if err := a.AddPeer(cfg); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(cfg); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

func TestAddPeerAfterStop(t *testing.T) {
	a, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	a.Stop()
	ca, _ := emu.Pipe()
	if err := a.AddPeer(PeerConfig{Conn: ca, RemoteAddr: addr("172.16.0.1")}); err == nil {
		t.Fatal("AddPeer after Stop accepted")
	}
	a.Stop() // double stop must be safe
}

// The timer tests' hold time (a keepalive every second) and the address of
// silentPeer's remote side. All of it is virtual: no test waits for it.
const (
	holdTime = 3 * time.Second
	silent   = "172.16.0.1"
)

// silentPeer opens a session to a speaker on clk with a 3 s hold time from
// a hand-rolled remote side — read the OPEN, answer OPEN and KEEPALIVE, then
// nothing — and returns the speaker and the remote end once the session is
// established. The clock has not moved: the hold deadline is 3 s away.
func silentPeer(t *testing.T, clk *manualClock) (*Speaker, io.ReadWriteCloser) {
	t.Helper()
	a, err := NewSpeaker(Config{
		Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"),
		HoldTime: holdTime, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	ca, cb := emu.Pipe()
	if err := a.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr(silent), Port: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(cb); err != nil {
		t.Fatal(err)
	}
	_, _ = cb.Write(EncodeOpen(Open{Version: 4, ASN: 65002, HoldTime: uint16(holdTime / time.Second), RouterID: addr("2.2.2.2")}))
	_, _ = cb.Write(EncodeKeepalive())
	waitFor(t, "established", func() bool { return a.SessionState(addr(silent)) == StateEstablished })
	return a, cb
}

func TestHoldTimerExpires(t *testing.T) {
	// A peer that opens the session but then goes silent: the hold timer
	// tears the session down once the clock has moved past the deadline —
	// not on it.
	clk := &manualClock{}
	a, _ := silentPeer(t, clk)
	clk.Advance(core.FromDuration(holdTime))
	if st := a.SessionState(addr(silent)); st != StateEstablished {
		t.Fatalf("session %v with the clock on the hold deadline, want Established until it has passed", st)
	}
	clk.Advance(core.Nanosecond)
	if st, n := a.SessionState(addr(silent)), a.Stats.NotificationsSent.Load(); st != StateClosed || n != 1 {
		t.Fatalf("past the hold deadline: session %v, %d NOTIFICATIONs; want Closed, 1", st, n)
	}
}

// TestKeepaliveDueAtHoldDeadlineIsInTime pins the order of one instant.
// Hold is three keepalive intervals, so a peer whose first two keepalives
// have not been read yet has its third due exactly on the hold deadline —
// which is where a clock that jumps (DES, or Advance here) lands. The
// deadline callback runs first and finds three seconds of silence; the
// session must still be up when the keepalive of that same instant comes
// in, and the hold time then counts from it.
func TestKeepaliveDueAtHoldDeadlineIsInTime(t *testing.T) {
	clk := &manualClock{}
	a, cb := silentPeer(t, clk)
	clk.Advance(core.FromDuration(holdTime)) // the deadline callback has run
	recv := a.Stats.KeepalivesRecv.Load()
	if _, err := cb.Write(EncodeKeepalive()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "keepalive read", func() bool { return a.Stats.KeepalivesRecv.Load() == recv+1 })
	clk.Advance(core.FromDuration(holdTime)) // over the re-check, onto the new deadline
	if st := a.SessionState(addr(silent)); st != StateEstablished {
		t.Fatalf("session %v one hold time after a keepalive that was due on the previous deadline", st)
	}
	clk.Advance(core.Nanosecond)
	if st := a.SessionState(addr(silent)); st != StateClosed {
		t.Fatalf("session %v past the second deadline with nothing received, want Closed", st)
	}
}

func TestKeepalivesFlowOnShortHoldTime(t *testing.T) {
	// Two speakers on one clock. The first jump lands on both hold
	// deadlines with three keepalives a side written on the way and read
	// whenever the readers get to them; after it the clock moves a
	// keepalive interval at a time, each tick read before the next.
	clk := &manualClock{}
	a, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), HoldTime: holdTime, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpeaker(Config{Name: "r2", ASN: 65002, RouterID: addr("2.2.2.2"), HoldTime: holdTime, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()
	pair(t, a, b, "172.16.0.0", "172.16.0.1", 1, 1)
	waitFor(t, "established", func() bool {
		return a.SessionState(addr("172.16.0.1")) == StateEstablished &&
			b.SessionState(addr("172.16.0.0")) == StateEstablished
	})
	// The handshake's own KEEPALIVE, then one per tick.
	ticksRead := func(ticks uint64) func() bool {
		return func() bool {
			return a.Stats.KeepalivesRecv.Load() == 1+ticks && b.Stats.KeepalivesRecv.Load() == 1+ticks
		}
	}
	clk.Advance(core.FromDuration(holdTime))
	waitFor(t, "three keepalives a side", ticksRead(3))
	for tick := uint64(4); tick <= 9; tick++ {
		clk.Advance(core.FromDuration(holdTime / 3))
		waitFor(t, "the tick's keepalives", ticksRead(tick))
	}
	// Three hold times in, the sessions live on keepalives alone.
	if sa, sb := a.SessionState(addr("172.16.0.1")), b.SessionState(addr("172.16.0.0")); sa != StateEstablished || sb != StateEstablished {
		t.Fatalf("sessions %v / %v despite keepalives", sa, sb)
	}
	if n := a.Stats.KeepalivesSent.Load(); n != 10 {
		t.Fatalf("keepalives sent = %d, want the handshake's and 9 ticks", n)
	}
}

func TestResetPeerWithdrawsAndAllowsRePeering(t *testing.T) {
	// Link-down injection seam: ResetPeer tears the session down
	// immediately (no hold-timer wait), withdraws learned routes, and a
	// later AddPeer for the same address (link repair) re-converges.
	var sinkA routeSink
	a, err := NewSpeaker(Config{
		Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"),
		OnRoute: sinkA.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpeaker(Config{
		Name: "r2", ASN: 65002, RouterID: addr("2.2.2.2"),
		Networks: []netip.Prefix{pfx("10.0.2.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()
	pair(t, a, b, "172.16.0.0", "172.16.0.1", 2, 2)
	waitFor(t, "r1 learns the prefix", func() bool {
		ev, ok := sinkA.latest()[pfx("10.0.2.0/24")]
		return ok && len(ev.NextHops) == 1
	})

	// Fail the link: both ends reset (the injection layer resets both).
	if !a.ResetPeer(addr("172.16.0.1")) {
		t.Fatal("ResetPeer found no session on r1")
	}
	b.ResetPeer(addr("172.16.0.0"))
	waitFor(t, "r1 withdraws after reset", func() bool {
		ev, ok := sinkA.latest()[pfx("10.0.2.0/24")]
		return ok && len(ev.NextHops) == 0
	})
	if a.SessionState(addr("172.16.0.1")) != StateClosed {
		t.Fatalf("session state after reset = %v", a.SessionState(addr("172.16.0.1")))
	}
	// Resetting a gone peer is a no-op.
	if a.ResetPeer(addr("172.16.0.1")) {
		t.Fatal("ResetPeer on closed session reported a session")
	}

	// Link repair: fresh transport, same addresses — must re-establish
	// and re-learn.
	pair(t, a, b, "172.16.0.0", "172.16.0.1", 2, 2)
	waitFor(t, "r1 re-learns the prefix after re-peering", func() bool {
		ev, ok := sinkA.latest()[pfx("10.0.2.0/24")]
		return ok && len(ev.NextHops) == 1
	})
}

// TestSessionSendIsLossless: a session that outruns its peer by any
// margin loses nothing and keeps the order. Nobody reads the pipe until
// every message is written (a bounded send queue once kept the first 512
// of a burst and dropped the rest, with UpdatesSent counting them all).
func TestSessionSendIsLossless(t *testing.T) {
	const n = 20000
	a, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	ca, cb := emu.Pipe()
	peer := addr("172.16.0.1")
	if err := a.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: peer, Port: 1}); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	sess := a.sessions[peer]
	a.mu.Unlock()

	nth := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < n; i++ {
			b, err := EncodeUpdate(Update{Withdrawn: []netip.Prefix{nth(i)}})
			if err != nil {
				t.Error(err)
				return
			}
			sess.send(b)
		}
	}()
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("send blocks while nobody reads")
	}
	// Closing first turns a lost message into an early EOF below
	// rather than a read that waits forever.
	a.Stop()
	if raw, err := ReadMessage(cb); err != nil || raw[18] != MsgOpen {
		t.Fatalf("first message = %v, %v; want OPEN", raw, err)
	}
	for i := 0; i < n; i++ {
		raw, err := ReadMessage(cb)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		m, err := Decode(raw)
		if err != nil || m.Type != MsgUpdate || len(m.Upd.Withdrawn) != 1 {
			t.Fatalf("message %d: %+v, %v", i, m, err)
		}
		if got := m.Upd.Withdrawn[0]; got != nth(i) {
			t.Fatalf("%v arrived where %v (message %d) was due", got, nth(i), i)
		}
	}
}

// teardownConn is a session transport whose first UPDATE starts a teardown
// and whose every UPDATE takes 2 ms to write, so the teardown comes while a
// flush of several UPDATEs is under way.
type teardownConn struct {
	io.ReadWriteCloser
	start func()
	once  sync.Once
}

func (c *teardownConn) Write(b []byte) (int, error) {
	if len(b) > 18 && b[18] == MsgUpdate {
		c.once.Do(c.start)
		time.Sleep(2 * time.Millisecond)
	}
	return c.ReadWriteCloser.Write(b)
}

// TestCeaseReachesPeerBeforeEOF: Stop and ResetPeer put the CEASE on the
// wire before they close the transport, so the peer reads it — last, and
// then EOF — every time, not only when a writer goroutine wins a race. The
// rows "during a flush" end the session while it is sending a table of
// 3000 prefixes: no UPDATE of that flush follows the CEASE.
func TestCeaseReachesPeerBeforeEOF(t *testing.T) {
	peer := addr("172.16.0.1")
	for _, tc := range []struct {
		name string
		end  func(*Speaker)
	}{
		{"Stop", (*Speaker).Stop},
		{"ResetPeer", func(s *Speaker) { s.ResetPeer(peer) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewSpeaker(Config{
				Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"),
				Networks: []netip.Prefix{pfx("10.1.0.0/24")},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Stop()
			ca, cb := emu.Pipe()
			if err := a.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: peer, Port: 1}); err != nil {
				t.Fatal(err)
			}
			_, _ = cb.Write(EncodeOpen(Open{Version: 4, ASN: 65002, HoldTime: 0, RouterID: addr("2.2.2.2")}))
			_, _ = cb.Write(EncodeKeepalive())
			// The first flush out of the way, nothing but the teardown
			// writes to the session any more.
			waitFor(t, "table advertised", func() bool { return a.Stats.UpdatesSent.Load() == 1 })
			tc.end(a)

			var last *Message
			for {
				raw, err := ReadMessage(cb)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if last, err = Decode(raw); err != nil {
					t.Fatal(err)
				}
			}
			if last == nil || last.Type != MsgNotification || last.Notif.Code != NotifCease {
				t.Fatalf("last message before EOF = %+v, want NOTIFICATION/Cease", last)
			}
		})
		t.Run(tc.name+" during a flush", func(t *testing.T) {
			a, err := NewSpeaker(Config{
				Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"),
				Networks: scalePrefixes(3000),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Stop()
			ca, cb := emu.Pipe()
			ended := make(chan struct{})
			conn := &teardownConn{ReadWriteCloser: ca, start: func() {
				go func() {
					defer close(ended)
					tc.end(a)
				}()
			}}
			if err := a.AddPeer(PeerConfig{Conn: conn, LocalAddr: addr("172.16.0.0"), RemoteAddr: peer, Port: 1}); err != nil {
				t.Fatal(err)
			}
			_, _ = cb.Write(EncodeOpen(Open{Version: 4, ASN: 65002, HoldTime: 0, RouterID: addr("2.2.2.2")}))
			_, _ = cb.Write(EncodeKeepalive())

			var got []string
			for {
				raw, err := ReadMessage(cb)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				m, err := Decode(raw)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, wireName(m))
			}
			<-ended
			cease := fmt.Sprintf("NOTIFICATION/%d", NotifCease)
			if i := slices.Index(got, cease); i < 0 || i != len(got)-1 || !slices.Contains(got[:i], "UPDATE") {
				t.Fatalf("the speaker sent %v: want UPDATEs, then the CEASE, then nothing", got)
			}
		})
	}
}

// countingConn is one session's transport that counts, across every
// transport sharing inFlight, the Writes under way; each takes 1 ms.
type countingConn struct {
	io.ReadWriteCloser
	inFlight, peak *atomic.Int32
}

func (c countingConn) Write(b []byte) (int, error) {
	n := c.inFlight.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	time.Sleep(time.Millisecond)
	defer c.inFlight.Add(-1)
	return c.ReadWriteCloser.Write(b)
}

// TestSpeakerWritesOneAtATime: a speaker acts on one thing at a time, so
// its writes never overlap — not the handshakes of four sessions, not the
// four dumps of its table their windows flush at about the same instant,
// not a ResetPeer's CEASE, not Stop.
func TestSpeakerWritesOneAtATime(t *testing.T) {
	const networks = 3000
	s, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), Networks: scalePrefixes(networks)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	var inFlight, peak, dumped atomic.Int32
	var peers []netip.Addr
	for i := range 4 {
		local, remote := addr(fmt.Sprintf("172.16.0.%d", 2*i)), addr(fmt.Sprintf("172.16.0.%d", 2*i+1))
		ca, cb := emu.Pipe()
		if err := s.AddPeer(PeerConfig{Conn: countingConn{ca, &inFlight, &peak}, LocalAddr: local, RemoteAddr: remote, Port: core.PortID(i + 1)}); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, remote)
		go func() {
			announced := 0
			for {
				raw, err := ReadMessage(cb)
				if err != nil {
					return
				}
				if m, err := Decode(raw); err == nil && m.Type == MsgUpdate {
					if announced += len(m.Upd.NLRI); announced == networks {
						dumped.Add(1)
					}
				}
			}
		}()
		_, _ = cb.Write(EncodeOpen(Open{Version: 4, ASN: 65002, HoldTime: 0, RouterID: remote}))
		_, _ = cb.Write(EncodeKeepalive())
	}
	waitFor(t, "the table dumped to every peer", func() bool { return dumped.Load() == 4 })
	if !s.ResetPeer(peers[0]) {
		t.Fatal("no session to reset")
	}
	s.Stop()
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d writes under way at once, want 1", p)
	}
}

// TestStoppingSpeakerIgnoresPeerLoss: a speaker told it is stopping
// (BeginStop) answers a peer's CEASE by closing that session and nothing
// else — no route event, the Loc-RIB as it was, not one UPDATE to its
// other sessions — while the same CEASE, or a ResetPeer, on a speaker that
// is not stopping still withdraws the peer's routes and says so to the
// other sessions, exactly as before.
func TestStoppingSpeakerIgnoresPeerLoss(t *testing.T) {
	const leaving, staying = "172.16.0.1", "172.16.1.1"
	route := pfx("10.0.5.0/24")
	cease := func(s *Speaker, conn io.Writer) {
		_, _ = conn.Write(EncodeNotification(Notification{Code: NotifCease}))
	}
	for _, tc := range []struct {
		name     string
		stopping bool
		end      func(s *Speaker, leavingConn io.Writer)
	}{
		{"stopping/peer CEASE", true, cease},
		{"running/peer CEASE", false, cease},
		{"running/ResetPeer", false, func(s *Speaker, _ io.Writer) { s.ResetPeer(addr(leaving)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sink routeSink
			s, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), OnRoute: sink.add})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			c1 := scriptedPeer(t, s, "172.16.0.0", leaving, false)
			c2 := scriptedPeer(t, s, "172.16.1.0", staying, false)
			upd, err := EncodeUpdate(Update{
				Attrs: PathAttrs{ASPath: []uint16{65010}, NextHop: addr(leaving)},
				NLRI:  []netip.Prefix{route},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c1.Write(upd); err != nil {
				t.Fatal(err)
			}
			// nextUpdate reads the staying peer's side up to the next
			// UPDATE; nil at EOF.
			nextUpdate := func() *Update {
				for {
					raw, err := ReadMessage(c2)
					if err == io.EOF {
						return nil
					}
					if err != nil {
						t.Fatal(err)
					}
					if m, err := Decode(raw); err != nil {
						t.Fatal(err)
					} else if m.Type == MsgUpdate {
						return m.Upd
					}
				}
			}
			if u := nextUpdate(); u == nil || len(u.NLRI) != 1 || u.NLRI[0] != route {
				t.Fatalf("staying peer's first UPDATE = %+v, want %v announced", u, route)
			}
			routeEvents := func() int {
				sink.mu.Lock()
				defer sink.mu.Unlock()
				return len(sink.events)
			}
			before := routeEvents()
			if tc.stopping {
				s.BeginStop()
			}
			tc.end(s, c1)
			// The session is gone from the table under the same lock hold
			// that decides what to withdraw and advertise.
			waitFor(t, "session to the leaving peer closed", func() bool {
				return s.SessionState(addr(leaving)) == StateClosed
			})
			if tc.stopping {
				if hops, ok := s.LocRIB()[route]; !ok || len(hops) != 1 {
					t.Fatalf("Loc-RIB of a stopping speaker lost %v: %v", route, hops)
				}
				if got := routeEvents(); got != before {
					t.Fatalf("%d route events after the peer left a stopping speaker, want none", got-before)
				}
				// After Stop everything the speaker will ever write is in
				// the pipe: no UPDATE may precede the EOF.
				s.Stop()
				if u := nextUpdate(); u != nil {
					t.Fatalf("stopping speaker sent its other session %+v", u)
				}
				return
			}
			if u := nextUpdate(); u == nil || len(u.Withdrawn) != 1 || u.Withdrawn[0] != route || len(u.NLRI) != 0 {
				t.Fatalf("staying peer's second UPDATE = %+v, want %v withdrawn", u, route)
			}
			if ev := sink.latest()[route]; len(ev.NextHops) != 0 {
				t.Fatalf("last route event for %v = %+v, want a withdrawal", route, ev)
			}
			if _, ok := s.LocRIB()[route]; ok {
				t.Fatalf("%v still in the Loc-RIB", route)
			}
		})
	}
}
