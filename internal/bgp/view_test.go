package bgp

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/core"
)

// peerView is what one peer holds from the speaker, kept by decoding what
// the speaker wrote to the peer's transport.
type peerView struct {
	name string
	pc   PeerConfig
	sink *wireSink
	read int                     // bytes of sink.wrote decoded so far
	held map[netip.Prefix]string // prefix → attrsKey of what the peer was told
}

// establish adds the view's session to s and walks it to Established
// through handle, as a peer's OPEN and KEEPALIVE would, so the Established
// dump runs.
func (v *peerView) establish(t *testing.T, s *Speaker, asn uint32) {
	t.Helper()
	v.sink, v.read, v.held = newWireSink(), 0, map[netip.Prefix]string{}
	v.pc.Conn = v.sink
	if err := s.AddPeer(v.pc); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	sess := s.sessions[v.pc.RemoteAddr]
	s.mu.Unlock()
	open := &Open{Version: bgpVersion, ASN: uint16(asn), RouterID: v.pc.RemoteAddr}
	for _, m := range []*Message{{Type: MsgOpen, Open: open}, {Type: MsgKeepalive}} {
		if err := sess.handle(m); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	}
}

// catchUp folds what the speaker wrote since the last call into held and
// returns the withdrawals of prefixes the peer did not hold.
func (v *peerView) catchUp(t *testing.T) (updates int, strays []netip.Prefix) {
	t.Helper()
	v.sink.mu.Lock()
	r := bytes.NewReader(bytes.Clone(v.sink.wrote[v.read:]))
	v.read = len(v.sink.wrote)
	v.sink.mu.Unlock()
	for r.Len() > 0 {
		raw, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		m, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if m.Type != MsgUpdate {
			continue
		}
		updates++
		for _, p := range m.Upd.Withdrawn {
			if _, ok := v.held[p]; !ok {
				strays = append(strays, p)
			}
			delete(v.held, p)
		}
		for _, p := range m.Upd.NLRI {
			v.held[p] = attrsKey(m.Upd.Attrs)
		}
	}
	return updates, strays
}

// check holds the view to the speaker's Loc-RIB: the peer holds exactly
// what mayAdvertise lets it hear of each prefix's best, with the
// attributes the session sends it with.
func (v *peerView) check(t *testing.T, s *Speaker, step int) {
	t.Helper()
	s.mu.Lock()
	sess := s.sessions[v.pc.RemoteAddr]
	want := map[netip.Prefix]string{}
	s.rib.eachSelected(func(p netip.Prefix, best []*Path) {
		if sess.mayAdvertise(best[0]) {
			want[p] = attrsKey(sess.outgoingAttrs(best[0]))
		}
	})
	s.mu.Unlock()
	for p, a := range want {
		if got, ok := v.held[p]; !ok || got != a {
			t.Fatalf("step %d: %s holds %v as %q (held %v), want %q", step, v.name, p, got, ok, a)
		}
	}
	for p := range v.held {
		if _, ok := want[p]; !ok {
			t.Fatalf("step %d: %s holds %v, which it may not hear of", step, v.name, p)
		}
	}
}

// TestPeersHearOnlyWhatChangesTheirView drives one speaker through seeded
// histories of announcements, withdrawals and re-announcements from an
// eBGP peer, a reflection client, a non-client and a second eBGP peer
// (whose session also resets and comes back, and with the non-client
// establishing halfway, so the Established dump meets a populated table),
// each step flushed before the next. After every flush each peer holds
// exactly what policy lets it hear of the Loc-RIB, and no withdrawal
// names a prefix the peer was not told of. A final step whose old and new
// best are both forbidden toward the first eBGP peer queues it nothing and
// still opens its window at now + AdvertiseDelay.
func TestPeersHearOnlyWhatChangesTheirView(t *testing.T) {
	const (
		local   = 65001
		steps   = 400
		joinN   = 100 // the non-client establishes
		resetF  = 200 // the second eBGP session resets ...
		rejoinF = 250 // ... and comes back
	)
	universe := []netip.Prefix{pfx("10.0.0.0/24"), pfx("10.0.1.0/24"), pfx("10.0.2.0/24"),
		pfx("10.0.3.0/24"), pfx("10.0.4.0/24"), pfx("10.0.0.0/16")}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := &manualClock{}
			s, err := NewSpeaker(Config{Name: "r", ASN: local, RouterID: addr("1.1.1.1"), Clock: clk,
				Networks: []netip.Prefix{pfx("10.9.0.0/24")}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			delay := core.FromDuration(s.cfg.AdvertiseDelay)
			views := []*peerView{
				{name: "ebgp", pc: PeerConfig{LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 65002, Port: 1}},
				{name: "client", pc: PeerConfig{LocalAddr: addr("172.16.0.2"), RemoteAddr: addr("172.16.0.3"), RemoteAS: local, Port: 2, IBGP: true, RRClient: true}},
				{name: "non-client", pc: PeerConfig{LocalAddr: addr("172.16.0.4"), RemoteAddr: addr("172.16.0.5"), RemoteAS: local, Port: 3, IBGP: true}},
				{name: "ebgp2", pc: PeerConfig{LocalAddr: addr("172.16.0.6"), RemoteAddr: addr("172.16.0.7"), RemoteAS: 65003, Port: 4}},
			}
			ebgp, nonClient, ebgp2 := views[0], views[2], views[3]
			live := map[*peerView]bool{}
			join := func(v *peerView) {
				v.establish(t, s, v.pc.RemoteAS)
				live[v] = true
			}
			flush := func(step int) {
				clk.Advance(delay)
				for _, v := range views {
					if !live[v] {
						continue
					}
					if _, strays := v.catchUp(t); len(strays) > 0 {
						t.Fatalf("step %d: %s was sent withdrawals of %v, which it does not hold", step, v.name, strays)
					}
					v.check(t, s, step)
				}
			}
			// attrsFrom is a random path as the peer would announce it. Some
			// carry AS 65002, which the first eBGP session may not be sent.
			attrsFrom := func(v *peerView) PathAttrs {
				tails := [][]uint16{nil, {64512}, {65002}, {64513, 65002}, {64512, 64513}}
				a := PathAttrs{Origin: OriginIGP, NextHop: v.pc.RemoteAddr}
				tail := tails[rng.Intn(len(tails))]
				if v.pc.IBGP {
					a.ASPath = tail
					a.HasLP, a.LocalPref = true, uint32(100+100*rng.Intn(2))
					return a
				}
				a.ASPath = append([]uint16{uint16(v.pc.RemoteAS)}, tail...)
				return a
			}

			for _, v := range []*peerView{ebgp, views[1], ebgp2} {
				join(v)
			}
			flush(0)
			for step := 1; step <= steps; step++ {
				switch step {
				case joinN:
					join(nonClient)
				case resetF:
					s.ResetPeer(ebgp2.pc.RemoteAddr)
					delete(live, ebgp2)
				case rejoinF:
					join(ebgp2)
				}
				if step == joinN || step == resetF || step == rejoinF {
					// A session's dump or loss goes out in a window of its own:
					// a window that announces a prefix and then withdraws it
					// still sends the withdrawal, to a peer that never got the
					// announcement. Holding that back needs what the peer holds
					// at flush time.
					flush(step)
				}
				var from []*peerView
				for _, v := range views {
					if live[v] {
						from = append(from, v)
					}
				}
				v := from[rng.Intn(len(from))]
				var u Update
				for n := 1 + rng.Intn(3); n > 0; n-- {
					p := universe[rng.Intn(len(universe))]
					if rng.Intn(3) == 0 {
						u.Withdrawn = append(u.Withdrawn, p)
					} else {
						u.NLRI = append(u.NLRI, p)
					}
				}
				if len(u.NLRI) > 0 {
					u.Attrs = attrsFrom(v)
				}
				s.mu.Lock()
				s.processUpdateLocked(s.sessions[v.pc.RemoteAddr], &u)
				s.mu.Unlock()
				flush(step)
			}

			// The first eBGP peer announces a prefix nobody else has, then
			// replaces it: old and new best are both its own, forbidden
			// toward it by split horizon.
			z := pfx("10.0.7.0/24")
			announce := func(path ...uint16) {
				s.mu.Lock()
				s.processUpdateLocked(s.sessions[ebgp.pc.RemoteAddr], &Update{
					Attrs: PathAttrs{Origin: OriginIGP, NextHop: ebgp.pc.RemoteAddr, ASPath: path}, NLRI: []netip.Prefix{z}})
				s.mu.Unlock()
			}
			announce(65002)
			flush(steps + 1)
			announce(65002, 64512)
			s.mu.Lock()
			sess := s.sessions[ebgp.pc.RemoteAddr]
			armed, queued := sess.advArmed, len(sess.pending.log)
			s.mu.Unlock()
			clk.mu.Lock()
			due := 0
			for _, tm := range clk.timers {
				if tm.at == clk.now+delay {
					due++
				}
			}
			clk.mu.Unlock()
			if !armed || queued != 0 {
				t.Fatalf("forbidden-to-forbidden change: window armed %v with %d entries queued, want armed with none", armed, queued)
			}
			if due != len(live) {
				t.Fatalf("%d windows due at now + AdvertiseDelay, want one per established session (%d)", due, len(live))
			}
			clk.Advance(delay)
			if n, _ := ebgp.catchUp(t); n != 0 {
				t.Fatalf("the forbidden-to-forbidden change sent the eBGP peer %d UPDATEs", n)
			}
			flush(steps + 2)
		})
	}
}

// TestEmptyWindowSendsAndAllocatesNothing: a window a Loc-RIB change
// opened without queueing anything for the peer flushes to nothing, with
// no allocation on the way.
func TestEmptyWindowSendsAndAllocatesNothing(t *testing.T) {
	s, err := NewSpeaker(Config{Name: "r", ASN: 65001, RouterID: addr("1.1.1.1"), Clock: &manualClock{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	v := &peerView{name: "ebgp", pc: PeerConfig{LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 65002, Port: 1}}
	v.establish(t, s, 65002)
	s.mu.Lock()
	flush := s.sessions[v.pc.RemoteAddr].flushAdv
	s.mu.Unlock()
	v.catchUp(t) // the handshake
	if allocs := testing.AllocsPerRun(100, flush); allocs != 0 {
		t.Fatalf("an empty flush allocates %.1f times, want 0", allocs)
	}
	v.sink.mu.Lock()
	wrote := len(v.sink.wrote) - v.read
	v.sink.mu.Unlock()
	if wrote != 0 {
		t.Fatalf("an empty flush wrote %d bytes", wrote)
	}
}
