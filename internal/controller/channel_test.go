package controller

import (
	"encoding/binary"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/openflow"
	"repro/internal/topo"
)

// recApp records the app calls the controller makes, in order.
type recApp struct {
	mu    sync.Mutex
	calls []string
}

func (a *recApp) Name() string  { return "rec" }
func (a *recApp) Init(*Context) {}
func (a *recApp) record(call string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls = append(a.calls, call)
}
func (a *recApp) SwitchReady(*SwitchHandle)                     { a.record("ready") }
func (a *recApp) PacketIn(*SwitchHandle, openflow.PacketIn)     { a.record("packet-in") }
func (a *recApp) PortStatus(*SwitchHandle, openflow.PortStatus) { a.record("port-status") }
func (a *recApp) called() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.calls)
}

// fakeSwitch is a hand-rolled switch end: it keeps what it reads in order.
type fakeSwitch struct {
	conn *openflow.Conn
	mu   sync.Mutex
	msgs [][]byte
}

func newFakeSwitch(rw io.ReadWriteCloser) *fakeSwitch {
	s := &fakeSwitch{conn: openflow.NewConn(rw)}
	go func() {
		for {
			_, raw, err := s.conn.Recv()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.msgs = append(s.msgs, raw)
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *fakeSwitch) read() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.msgs)
}

// echoed reports whether the last message read is the ECHO_REPLY to xid.
func (s *fakeSwitch) echoed(xid uint32) bool {
	msgs := s.read()
	if len(msgs) == 0 {
		return false
	}
	m := msgs[len(msgs)-1]
	return m[1] == openflow.TypeEchoReply && binary.BigEndian.Uint32(m[4:8]) == xid
}

// controllerSample is one well-formed message of type typ a switch could
// send; a type with no encoder is a bare header.
func controllerSample(typ uint8, xid uint32) []byte {
	switch typ {
	case openflow.TypeHello:
		return openflow.EncodeHello(xid)
	case openflow.TypeError:
		end := openflow.SwitchEnd()
		return end.Refusal(openflow.EncodePacketOut(xid, openflow.PacketOut{}))
	case openflow.TypeEchoRequest, openflow.TypeEchoReply:
		return openflow.EncodeEcho(xid, typ == openflow.TypeEchoReply, []byte("ping"))
	case openflow.TypeFeaturesRequest:
		return openflow.EncodeFeaturesRequest(xid)
	case openflow.TypeFeaturesReply:
		return openflow.EncodeFeaturesReply(xid, openflow.FeaturesReply{DatapathID: 1, Ports: []openflow.PhyPort{{PortNo: 1}}})
	case openflow.TypePacketIn:
		return openflow.EncodePacketIn(xid, openflow.PacketIn{InPort: 1, Data: []byte("frame")})
	case openflow.TypePortStatus:
		return openflow.EncodePortStatus(xid, openflow.PortStatus{Reason: openflow.PortReasonModify, Desc: openflow.PhyPort{PortNo: 1}})
	case openflow.TypePacketOut:
		return openflow.EncodePacketOut(xid, openflow.PacketOut{InPort: 1})
	case openflow.TypeFlowMod:
		return openflow.EncodeFlowMod(xid, openflow.FlowMod{Command: openflow.FCAdd, Actions: []openflow.Action{{Output: 1}}})
	case openflow.TypeStatsRequest:
		return openflow.EncodeStatsRequest(xid, openflow.StatsFlow)
	case openflow.TypeStatsReply:
		return openflow.EncodeFlowStatsReply(xid, []openflow.FlowStatsEntry{{Priority: 1}})
	case openflow.TypeBarrierRequest, openflow.TypeBarrierReply:
		return openflow.EncodeBarrier(xid, typ == openflow.TypeBarrierReply)
	}
	b := make([]byte, 8)
	b[0], b[1] = openflow.Version10, typ
	binary.BigEndian.PutUint16(b[2:4], 8)
	binary.BigEndian.PutUint32(b[4:8], xid)
	return b
}

// TestControllerEndEveryCell drives every (state, type) cell of the
// controller end, two types past the table included, over an emu.Pipe: a
// cell with a step dispatches the message — the app call or reply it
// makes, and nothing else; a cell without one is answered with exactly
// one ERROR carrying the refused xid and makes no app call.
func TestControllerEndEveryCell(t *testing.T) {
	g, _ := topo.Star(1, topo.Switch, core.Gbps, 0)
	states := []openflow.State{openflow.StateHelloWait, openflow.StateFeaturesWait, openflow.StateReady}
	for si, st := range states {
		for typ := uint8(0); typ <= openflow.TypeBarrierReply+2; typ++ {
			app := &recApp{}
			ctl := New(g, &manualClock{}, app, t.Logf)
			swEnd, ctlEnd := emu.Pipe()
			sw := newFakeSwitch(swEnd)
			if err := ctl.Connect(0, 1, ctlEnd); err != nil {
				t.Fatal(err)
			}
			// The end this controller's should be in, stepped alongside.
			want := openflow.ControllerEnd()
			setup := []uint8{openflow.TypeHello, openflow.TypeFeaturesReply}[:si]
			for i, s := range setup {
				sw.conn.Send(controllerSample(s, uint32(i+1)))
				want.Step(s)
			}
			sw.conn.Send(openflow.EncodeEcho(90, false, nil))
			waitFor(t, "setup echo", func() bool { return sw.echoed(90) })
			seen, calls := len(sw.read()), len(app.called())

			from := want.State()
			_, ok := want.Step(typ)
			msg := controllerSample(typ, 77)
			sw.conn.Send(msg)
			sw.conn.Send(openflow.EncodeEcho(99, false, nil))
			waitFor(t, "sentinel echo", func() bool { return sw.echoed(99) })
			msgs := sw.read()
			got, made := msgs[seen:len(msgs)-1], app.called()[calls:]

			if ok {
				var wantCalls []string
				var wantReply []uint8
				switch typ {
				case openflow.TypeFeaturesReply:
					if from != openflow.StateReady {
						wantCalls = []string{"ready"}
					}
				case openflow.TypePacketIn:
					wantCalls = []string{"packet-in"}
				case openflow.TypePortStatus:
					wantCalls = []string{"port-status"}
				case openflow.TypeEchoRequest:
					wantReply = []uint8{openflow.TypeEchoReply}
				}
				if !slices.Equal(made, wantCalls) {
					t.Errorf("%v/%d: app calls %v, want %v", st, typ, made, wantCalls)
				}
				var replies []uint8
				for _, m := range got {
					replies = append(replies, m[1])
				}
				if !slices.Equal(replies, wantReply) {
					t.Errorf("%v/%d: controller wrote types %v, want %v", st, typ, replies, wantReply)
				}
			} else {
				if len(got) != 1 || got[0][1] != openflow.TypeError || binary.BigEndian.Uint32(got[0][4:8]) != 77 {
					t.Errorf("%v/%d: refused with %d messages, want one ERROR for xid 77", st, typ, len(got))
				}
				if len(made) != 0 {
					t.Errorf("%v/%d: refused, yet app calls %v", st, typ, made)
				}
			}
			handle, _ := ctl.Switch(1)
			ctl.mu.Lock()
			ready := handle.Ready()
			ctl.mu.Unlock()
			if ready != (want.State() == openflow.StateReady) {
				t.Errorf("%v/%d: Ready() = %v with the end in %v", st, typ, ready, want.State())
			}
			ctl.Stop()
		}
	}
}

// TestPacketInBeforeHandshakeReachesAppOnce: a PACKET_IN the switch is
// handed before its handshake — as the Connection Manager does when a
// flow punts at t = 0 — reaches the app once, after SwitchReady.
func TestPacketInBeforeHandshakeReachesAppOnce(t *testing.T) {
	g, _ := topo.Star(1, topo.Switch, core.Gbps, 0)
	app := &recApp{}
	ctl := New(g, &manualClock{}, app, t.Logf)
	defer ctl.Stop()
	swEnd, ctlEnd := emu.Pipe()
	agent := openflow.NewAgent(1, []openflow.PhyPort{{PortNo: 1}}, swEnd, &tableDP{}, t.Logf)
	agent.Start()
	t.Cleanup(agent.Stop)
	agent.SendPacketIn(1, []byte("frame"))
	if err := ctl.Connect(0, 1, ctlEnd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two app calls", func() bool { return len(app.called()) >= 2 })
	if got, want := app.called(), []string{"ready", "packet-in"}; !slices.Equal(got, want) {
		t.Fatalf("app calls %v, want %v", got, want)
	}
	if sent, recv := agent.Stats.PacketInsSent.Load(), ctl.Stats.PacketInsRecv.Load(); sent != 1 || recv != 1 {
		t.Fatalf("%d PACKET_INs written, %d received; want 1 and 1", sent, recv)
	}
}

// TestErrorEndsStatsWait: a switch that answers a flow stats request
// with an ERROR frees the pending request, whose callback runs once with
// no entries — a Hedera poll round does not wait on it forever.
func TestErrorEndsStatsWait(t *testing.T) {
	g, _ := topo.Star(1, topo.Switch, core.Gbps, 0)
	ctl := New(g, &manualClock{}, &recApp{}, t.Logf)
	defer ctl.Stop()
	swEnd, ctlEnd := emu.Pipe()
	sw := newFakeSwitch(swEnd)
	if err := ctl.Connect(0, 1, ctlEnd); err != nil {
		t.Fatal(err)
	}
	sw.conn.Send(controllerSample(openflow.TypeHello, 1))
	sw.conn.Send(controllerSample(openflow.TypeFeaturesReply, 2))
	waitFor(t, "ready", func() bool { return ctl.ReadyCount() == 1 })

	var results [][]openflow.FlowStatsEntry
	handle, _ := ctl.Switch(1)
	ctl.mu.Lock()
	handle.RequestFlowStats(func(e []openflow.FlowStatsEntry) {
		results = append(results, e)
	})
	ctl.mu.Unlock()
	var req []byte
	waitFor(t, "stats request", func() bool {
		for _, m := range sw.read() {
			if m[1] == openflow.TypeStatsRequest {
				req = m
			}
		}
		return req != nil
	})
	end := openflow.SwitchEnd()
	refusal := end.Refusal(req)
	sw.conn.Send(refusal)
	sw.conn.Send(refusal) // a second ERROR for the same xid finds nothing pending
	sw.conn.Send(openflow.EncodeEcho(99, false, nil))
	waitFor(t, "sentinel echo", func() bool { return sw.echoed(99) })
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if len(results) != 1 || results[0] != nil {
		t.Fatalf("callback ran %d times (%v), want once with no entries", len(results), results)
	}
}

// TestStoppedServeClosesItsEnd: a switch speaking another OpenFlow
// version ends the controller's reader, which closes its end. The switch
// reads EOF after HELLO and FEATURES_REQUEST, and once it closes too the
// ledger reads zero, so the hybrid clock does not wait out its quiet
// timeout on this channel.
func TestStoppedServeClosesItsEnd(t *testing.T) {
	g, _ := topo.Star(1, topo.Switch, core.Gbps, 0)
	ctl := New(g, &manualClock{}, &recApp{}, t.Logf)
	defer ctl.Stop()
	var ledger emu.Ledger
	swEnd, ctlEnd := ledger.Pipe()
	if err := ctl.Connect(0, 1, ctlEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := swEnd.Write([]byte{4, openflow.TypeHello, 0, 8, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	eof := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(swEnd)
		eof <- err
	}()
	select {
	case err := <-eof:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the controller's reader stopped and left its end open")
	}
	_ = swEnd.Close()
	waitFor(t, "an empty ledger", func() bool { return ledger.InFlight() == 0 })
}
