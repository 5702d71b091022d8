package bgp

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"testing"
	"time"

	"repro/internal/emu"
)

// TestFSMTypeOK checks the session table's invariants: nothing leaves
// Closed, Established is entered only from OpenConfirm or from itself,
// every live state has a down step to Closed and a stop step to Stopping,
// a stopping session absorbs every message and leaves only by down, and
// Idle, which no session is in, has no step at all.
func TestFSMTypeOK(t *testing.T) {
	live := []SessionState{StateOpenSent, StateOpenConfirm, StateEstablished, stateStopping}
	for from := range fsm {
		from := SessionState(from)
		for ev := event(0); ev < numEvents; ev++ {
			to := fsm[from][ev]
			switch {
			case from == StateIdle && to != StateIdle:
				t.Errorf("Idle --%v--> %v: no session is in Idle", ev, to)
			case from == StateClosed && to != StateIdle && to != StateClosed:
				t.Errorf("Closed --%v--> %v: nothing leaves Closed", ev, to)
			case to == StateEstablished && from != StateOpenConfirm && from != StateEstablished:
				t.Errorf("%v --%v--> Established: entered from OpenConfirm or itself only", from, ev)
			case to == stateStopping && ev != evStop && from != stateStopping:
				t.Errorf("%v --%v--> Stopping: only stop leads there", from, ev)
			case from == stateStopping && to != stateStopping && ev != evDown:
				t.Errorf("Stopping --%v--> %v: a stopping session leaves only by down", ev, to)
			}
		}
	}
	for _, st := range live {
		if to := fsm[st][evDown]; to != StateClosed {
			t.Errorf("%v --down--> %v, want Closed", st, to)
		}
		if to := fsm[st][evStop]; to != stateStopping {
			t.Errorf("%v --stop--> %v, want Stopping", st, to)
		}
	}
	for _, ev := range []event{evOpen, evKeepalive, evUpdate} {
		if to := fsm[stateStopping][ev]; to != stateStopping {
			t.Errorf("Stopping --%v--> %v, want it absorbed", ev, to)
		}
	}
}

// wireName names a message for the per-pair expectations: its type, and
// the error code of a NOTIFICATION.
func wireName(m *Message) string {
	switch m.Type {
	case MsgOpen:
		return "OPEN"
	case MsgKeepalive:
		return "KEEPALIVE"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return fmt.Sprintf("NOTIFICATION/%d", m.Notif.Code)
	}
	return fmt.Sprintf("type%d", m.Type)
}

// peerWire is the remote end of one session, written by hand. A goroutine
// reads what the speaker sends, so a reaction the speaker never makes is a
// timeout of next, not a read that waits forever.
type peerWire struct {
	t    *testing.T
	conn io.ReadWriteCloser
	msgs chan *Message // closed at EOF
}

func newPeerWire(t *testing.T, conn io.ReadWriteCloser) *peerWire {
	w := &peerWire{t: t, conn: conn, msgs: make(chan *Message, 16)}
	go func() {
		defer close(w.msgs)
		for {
			raw, err := ReadMessage(conn)
			if err != nil {
				return
			}
			m, err := Decode(raw)
			if err != nil {
				return
			}
			w.msgs <- m
		}
	}()
	return w
}

func (w *peerWire) write(b []byte) {
	w.t.Helper()
	if _, err := w.conn.Write(b); err != nil {
		w.t.Fatal(err)
	}
}

// next returns the speaker's next message, or nil at EOF.
func (w *peerWire) next() *Message {
	w.t.Helper()
	select {
	case m := <-w.msgs:
		return m
	case <-time.After(5 * time.Second):
		w.t.Fatal("the speaker neither sent a message nor closed the session within 5 s")
		return nil
	}
}

// rest names every message the speaker sends up to EOF.
func (w *peerWire) rest() []string {
	w.t.Helper()
	var got []string
	for m := w.next(); m != nil; m = w.next() {
		got = append(got, wireName(m))
	}
	return got
}

// TestSessionReactsToEveryMessageInEveryState walks every (state, received
// message) pair of a live, not stopping session through the wire: a hand-
// written peer brings the session to the state, sends the message, and
// reads what the speaker sends back until EOF. A session the message leaves
// open is then ended by the peer's CEASE, which the speaker answers with
// nothing; so every row's wire is all the speaker sent after the message.
func TestSessionReactsToEveryMessageInEveryState(t *testing.T) {
	const remote = "172.16.0.1"
	open := EncodeOpen(Open{Version: 4, ASN: 65002, HoldTime: 0, RouterID: addr("2.2.2.2")})
	update, err := EncodeUpdate(Update{
		Attrs: PathAttrs{ASPath: []uint16{65002}, NextHop: addr(remote)},
		NLRI:  []netip.Prefix{pfx("10.0.5.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := map[string][]byte{
		"OPEN":         open,
		"KEEPALIVE":    EncodeKeepalive(),
		"UPDATE":       update,
		"NOTIFICATION": EncodeNotification(Notification{Code: NotifCease}),
	}
	fsmError := fmt.Sprintf("NOTIFICATION/%d", NotifFSMError)
	for _, tc := range []struct {
		state SessionState
		msg   string
		wire  []string // what the speaker sends after msg
		want  SessionState
	}{
		{StateOpenSent, "OPEN", []string{"KEEPALIVE"}, StateOpenConfirm},
		{StateOpenSent, "KEEPALIVE", []string{fsmError}, StateClosed}, // RFC 4271 §8.2.2
		{StateOpenSent, "UPDATE", []string{fsmError}, StateClosed},
		{StateOpenSent, "NOTIFICATION", nil, StateClosed},
		{StateOpenConfirm, "OPEN", []string{fsmError}, StateClosed},
		{StateOpenConfirm, "KEEPALIVE", nil, StateEstablished},
		{StateOpenConfirm, "UPDATE", []string{fsmError}, StateClosed},
		{StateOpenConfirm, "NOTIFICATION", nil, StateClosed},
		{StateEstablished, "OPEN", []string{fsmError}, StateClosed},
		{StateEstablished, "KEEPALIVE", nil, StateEstablished},
		{StateEstablished, "UPDATE", nil, StateEstablished},
		{StateEstablished, "NOTIFICATION", nil, StateClosed},
	} {
		t.Run(tc.state.String()+"/"+tc.msg, func(t *testing.T) {
			// No Networks and a clock nobody moves: nothing is advertised
			// and no timer fires, so the message is all the speaker reacts to.
			s, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), Clock: &manualClock{}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			ca, cb := emu.Pipe()
			if err := s.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr(remote), RemoteAS: 65002, Port: 1}); err != nil {
				t.Fatal(err)
			}
			peer := newPeerWire(t, cb)
			state := func() SessionState { return s.SessionState(addr(remote)) }
			if m := peer.next(); m == nil || m.Type != MsgOpen {
				t.Fatalf("speaker's first message = %+v, want OPEN", m)
			}
			if tc.state >= StateOpenConfirm {
				peer.write(open)
				if m := peer.next(); m == nil || m.Type != MsgKeepalive {
					t.Fatalf("answer to OPEN = %+v, want KEEPALIVE", m)
				}
			}
			if tc.state == StateEstablished {
				peer.write(EncodeKeepalive())
				waitFor(t, "Established", func() bool { return state() == StateEstablished })
			}
			if st := state(); st != tc.state {
				t.Fatalf("session %v before the message, want %v", st, tc.state)
			}

			peer.write(msgs[tc.msg])
			var got []string
			if tc.want != StateClosed {
				for range tc.wire {
					if m := peer.next(); m != nil {
						got = append(got, wireName(m))
					}
				}
				waitFor(t, tc.want.String(), func() bool { return state() == tc.want })
				peer.write(msgs["NOTIFICATION"])
			}
			got = append(got, peer.rest()...)
			if !slices.Equal(got, tc.wire) {
				t.Errorf("speaker sent %v after %s in %v, want %v", got, tc.msg, tc.state, tc.wire)
			}
			if st := state(); st != StateClosed {
				t.Errorf("session %v at EOF, want Closed", st)
			}
		})
	}
}

// TestStoppingSessionAbsorbsEverything: once its speaker is stopping, an
// established session answers nothing — not an OPEN, which a running one
// refuses with an FSM error — and acts on nothing: the UPDATE announces no
// route. A CEASE then closes it without a word.
func TestStoppingSessionAbsorbsEverything(t *testing.T) {
	const remote = "172.16.0.1"
	var sink routeSink
	s, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), Clock: &manualClock{}, OnRoute: sink.add})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ca, cb := emu.Pipe()
	if err := s.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr(remote), Port: 1}); err != nil {
		t.Fatal(err)
	}
	peer := newPeerWire(t, cb)
	open := EncodeOpen(Open{Version: 4, ASN: 65002, HoldTime: 0, RouterID: addr("2.2.2.2")})
	peer.write(open)
	peer.write(EncodeKeepalive())
	for _, want := range []uint8{MsgOpen, MsgKeepalive} {
		if m := peer.next(); m == nil || m.Type != want {
			t.Fatalf("handshake message = %+v, want type %d", m, want)
		}
	}
	waitFor(t, "Established", func() bool { return s.SessionState(addr(remote)) == StateEstablished })

	s.BeginStop()
	if st := s.SessionState(addr(remote)); st != stateStopping {
		t.Fatalf("session %v after BeginStop, want Stopping", st)
	}
	update, err := EncodeUpdate(Update{
		Attrs: PathAttrs{ASPath: []uint16{65002}, NextHop: addr(remote)},
		NLRI:  []netip.Prefix{pfx("10.0.5.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{open, EncodeKeepalive(), update, EncodeNotification(Notification{Code: NotifCease})} {
		peer.write(b)
	}
	if got := peer.rest(); len(got) != 0 {
		t.Fatalf("stopping session sent %v", got)
	}
	if st := s.SessionState(addr(remote)); st != StateClosed {
		t.Fatalf("session %v at EOF, want Closed", st)
	}
	if n := s.Stats.UpdatesRecv.Load(); n != 1 {
		t.Fatalf("UpdatesRecv = %d, want the one UPDATE read", n)
	}
	if _, ok := s.LocRIB()[pfx("10.0.5.0/24")]; ok || len(sink.latest()) != 0 {
		t.Fatal("a stopping session's UPDATE reached the Loc-RIB")
	}
}
