package openflow

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
)

// parseError reads an OFPT_ERROR's type, code and xid.
func parseError(t *testing.T, b []byte) (typ, code uint16, xid uint32) {
	t.Helper()
	if len(b) < headerLen+4 || b[1] != TypeError {
		t.Fatalf("not an ERROR: % x", b)
	}
	return binary.BigEndian.Uint16(b[8:10]), binary.BigEndian.Uint16(b[10:12]), binary.BigEndian.Uint32(b[4:8])
}

// sample is one well-formed message of type typ; a type the package has
// no encoder for is a bare header.
func sample(typ uint8, xid uint32) []byte {
	switch typ {
	case TypeHello:
		return EncodeHello(xid)
	case TypeError:
		return encodeError(EncodeHello(xid), errBadRequest, brcBadType)
	case TypeEchoRequest, TypeEchoReply:
		return EncodeEcho(xid, typ == TypeEchoReply, []byte("ping"))
	case TypeFeaturesRequest:
		return EncodeFeaturesRequest(xid)
	case TypeFeaturesReply:
		return EncodeFeaturesReply(xid, FeaturesReply{DatapathID: 9, NTables: 1, Ports: []PhyPort{{PortNo: 1, Name: "p1"}}})
	case TypePacketIn:
		return EncodePacketIn(xid, PacketIn{BufferID: 0xFFFFFFFF, InPort: 1, Data: []byte("frame")})
	case TypePortStatus:
		return EncodePortStatus(xid, PortStatus{Reason: PortReasonModify, Desc: PhyPort{PortNo: 1, State: PortStateLinkDown}})
	case TypePacketOut:
		return EncodePacketOut(xid, PacketOut{InPort: 1, Actions: []Action{{Output: 2}}, Data: []byte("f")})
	case TypeFlowMod:
		return EncodeFlowMod(xid, FlowMod{
			Match: TupleToExactMatch(sampleTuple()), Command: FCAdd, Priority: 200,
			Actions: []Action{{Output: 1}, {Group: []core.PortID{2, 3, 4}}},
		})
	case TypeStatsRequest:
		return EncodeStatsRequest(xid, StatsFlow)
	case TypeStatsReply:
		return EncodeFlowStatsReply(xid, []FlowStatsEntry{{Match: TupleToExactMatch(sampleTuple()), Priority: 200, ByteCount: 3000}})
	case TypeBarrierRequest, TypeBarrierReply:
		return EncodeBarrier(xid, typ == TypeBarrierReply)
	}
	b := make([]byte, headerLen)
	putHeader(b, typ, headerLen, xid)
	return b
}

// TestChannelTypeOK checks both tables' invariants: every cell holds no
// step or a state; the no-state row is empty; HELLO is HelloWait's only
// way forward; Ready is entered only through the end's FEATURES message
// and never left; ECHO_REQUEST is taken everywhere, and a PACKET_OUT
// nowhere.
func TestChannelTypeOK(t *testing.T) {
	for _, tc := range []struct {
		name     string
		t        *table
		features uint8
	}{
		{"switch", &switchTable, TypeFeaturesRequest},
		{"controller", &controllerTable, TypeFeaturesReply},
	} {
		for from := range tc.t {
			from := State(from)
			for typ := uint8(0); typ < numTypes; typ++ {
				to := tc.t[from][typ]
				switch {
				case to >= numStates:
					t.Errorf("%s: %v --%d--> %v: not a state", tc.name, from, typ, to)
				case from == noStep && to != noStep:
					t.Errorf("%s: the no-state row steps on %d", tc.name, typ)
				case from == StateHelloWait && to != noStep && to != StateHelloWait && typ != TypeHello:
					t.Errorf("%s: HelloWait --%d--> %v: only HELLO leaves HelloWait", tc.name, typ, to)
				case to == StateReady && from != StateReady && typ != tc.features:
					t.Errorf("%s: %v --%d--> Ready: Ready is entered only through FEATURES", tc.name, from, typ)
				case from == StateReady && to != noStep && to != StateReady:
					t.Errorf("%s: Ready --%d--> %v: nothing leaves Ready", tc.name, typ, to)
				}
			}
		}
		for _, st := range []State{StateHelloWait, StateFeaturesWait, StateReady} {
			if tc.t[st][TypeEchoRequest] != st {
				t.Errorf("%s: ECHO_REQUEST not taken in %v", tc.name, st)
			}
			if tc.t[st][TypePacketOut] != noStep {
				t.Errorf("%s: PACKET_OUT taken in %v", tc.name, st)
			}
		}
		if tc.t[StateFeaturesWait][tc.features] != StateReady {
			t.Errorf("%s: FEATURES does not take FeaturesWait to Ready", tc.name)
		}
	}
}

// switchReplies is what the agent writes back for a message it steps
// on: nothing for HELLO and FLOW_MOD.
var switchReplies = map[uint8]uint8{
	TypeEchoRequest:     TypeEchoReply,
	TypeFeaturesRequest: TypeFeaturesReply,
	TypeBarrierRequest:  TypeBarrierReply,
	TypeStatsRequest:    TypeStatsReply,
}

// switchDPCalls is how many DataPlane calls a stepped message makes.
var switchDPCalls = map[uint8]int{TypeFlowMod: 1, TypeStatsRequest: 1}

// TestSwitchEndEveryCell drives every (state, type) cell of the switch
// end, one type past the table included, over an emu.Pipe: a cell with a
// step dispatches the message — its reply, its DataPlane call, its next
// state; a cell without one is answered with exactly one ERROR carrying
// the refused xid and makes no DataPlane call.
func TestSwitchEndEveryCell(t *testing.T) {
	for st := StateHelloWait; st < numStates; st++ {
		for typ := uint8(0); typ <= numTypes; typ++ {
			agent, c, dp := startAgent(t)
			if st >= StateFeaturesWait {
				c.conn.Send(EncodeHello(1))
			}
			if st == StateReady {
				c.conn.Send(EncodeFeaturesRequest(2))
			}
			echoed := func(xid uint32) bool {
				r := c.last(TypeEchoReply)
				return r != nil && binary.BigEndian.Uint32(r[4:8]) == xid
			}
			c.conn.Send(EncodeEcho(90, false, nil))
			waitCond(t, "setup echo", func() bool { return echoed(90) })
			if got := agent.state(); got != st {
				t.Fatalf("setup reached %v, want %v", got, st)
			}
			seen, calls := len(c.types()), dp.callCount()

			msg := sample(typ, 77)
			c.conn.Send(msg)
			c.conn.Send(EncodeEcho(99, false, nil))
			waitCond(t, "sentinel echo", func() bool { return echoed(99) })
			c.mu.Lock()
			got := append([][]byte(nil), c.msgs[seen:len(c.msgs)-1]...)
			c.mu.Unlock()

			to := noStep
			if typ < numTypes {
				to = switchTable[st][typ]
			}
			if to != noStep {
				want, replies := switchReplies[typ]
				switch {
				case replies && (len(got) != 1 || got[0][1] != want || binary.BigEndian.Uint32(got[0][4:8]) != 77):
					t.Errorf("%v/%d: wrote %d messages, want one of type %d for xid 77", st, typ, len(got), want)
				case !replies && len(got) != 0:
					t.Errorf("%v/%d: wrote %d messages, want none", st, typ, len(got))
				}
				if n := dp.callCount() - calls; n != switchDPCalls[typ] {
					t.Errorf("%v/%d: %d DataPlane calls, want %d", st, typ, n, switchDPCalls[typ])
				}
				if s := agent.state(); s != to {
					t.Errorf("%v/%d: agent in %v, want %v", st, typ, s, to)
				}
			} else {
				if len(got) != 1 {
					t.Fatalf("%v/%d refused with %d messages, want one ERROR", st, typ, len(got))
				}
				code := uint16(brcBadType)
				if typ < numTypes && (switchTable[StateHelloWait][typ]|switchTable[StateFeaturesWait][typ]|switchTable[StateReady][typ]) != noStep {
					code = brcEPerm
				}
				if etyp, ecode, xid := parseError(t, got[0]); etyp != errBadRequest || ecode != code || xid != 77 {
					t.Errorf("%v/%d: ERROR %d/%d for xid %d, want %d/%d for 77", st, typ, etyp, ecode, xid, errBadRequest, code)
				}
				if string(got[0][12:]) != string(msg[:min(64, len(msg))]) {
					t.Errorf("%v/%d: ERROR data is not the refused message's head", st, typ)
				}
				if n := dp.callCount() - calls; n != 0 {
					t.Errorf("%v/%d: refused, yet %d DataPlane calls", st, typ, n)
				}
				if s := agent.state(); s != st {
					t.Errorf("%v/%d: refused, yet the agent moved to %v", st, typ, s)
				}
			}
			agent.Stop()
		}
	}
}

// TestFlowModBeforeFeaturesRefused: a FLOW_MOD after HELLO but before
// FEATURES_REQUEST is refused (EPERM) and not applied; once the switch is
// Ready the same FLOW_MOD is.
func TestFlowModBeforeFeaturesRefused(t *testing.T) {
	_, c, dp := startAgent(t)
	c.conn.Send(EncodeHello(1))
	c.conn.Send(sample(TypeFlowMod, 3))
	waitCond(t, "ERROR", func() bool { return c.count(TypeError) == 1 })
	if typ, code, xid := parseError(t, c.last(TypeError)); typ != errBadRequest || code != brcEPerm || xid != 3 {
		t.Fatalf("ERROR %d/%d for xid %d, want BAD_REQUEST/EPERM for 3", typ, code, xid)
	}
	if n := dp.applied(); n != 0 {
		t.Fatalf("%d FLOW_MODs applied before FEATURES_REQUEST", n)
	}
	c.conn.Send(EncodeFeaturesRequest(4))
	c.conn.Send(sample(TypeFlowMod, 5))
	waitCond(t, "flow mod applied", func() bool { return dp.applied() == 1 })
}

// TestAgentHoldsAsyncUntilReady: a PACKET_IN and a PORT_STATUS handed to
// the agent before the handshake are held, counted only when written, and
// written in order right after FEATURES_REPLY. The controller's HELLO and
// FEATURES_REQUEST are on the wire before the agent runs, as Connect
// leaves them: the switch's inbound direction then keeps its ledger token
// while anything is held, so the clock cannot leave FTI on it.
func TestAgentHoldsAsyncUntilReady(t *testing.T) {
	var ledger emu.Ledger
	a2c, c2a := ledger.Pipe()
	c := newCtl(c2a)
	c.conn.Send(EncodeHello(1))
	c.conn.Send(EncodeFeaturesRequest(2))
	agent := NewAgent(42, []PhyPort{{PortNo: 1, Name: "p1"}}, a2c, &fakeDP{}, t.Logf)
	t.Cleanup(agent.Stop)

	agent.SendPacketIn(7, []byte("frame"))
	if !agent.SetPortDown(1, true) {
		t.Fatal("port 1 unknown")
	}
	if n := agent.Stats.PacketInsSent.Load() + agent.Stats.PortStatusesSent.Load(); n != 0 {
		t.Fatalf("%d held messages counted as sent", n)
	}
	if ledger.InFlight() == 0 {
		t.Fatal("the ledger reads zero while the agent holds messages")
	}
	agent.Start()
	waitCond(t, "held messages", func() bool { return c.count(TypePortStatus) == 1 })
	want := []uint8{TypeHello, TypeFeaturesReply, TypePacketIn, TypePortStatus}
	if got := c.types(); string(got) != string(want) {
		t.Fatalf("controller read types %v, want %v", got, want)
	}
	if agent.Stats.PacketInsSent.Load() != 1 || agent.Stats.PortStatusesSent.Load() != 1 {
		t.Fatal("written messages not counted")
	}
	waitCond(t, "ledger zero", func() bool { return ledger.InFlight() == 0 })
}

// TestAgentStoppedBeforeReadyDropsHeld: what an agent holds when it stops
// before Ready is never written or counted.
func TestAgentStoppedBeforeReadyDropsHeld(t *testing.T) {
	agent, c, _ := startAgent(t)
	waitCond(t, "HELLO", func() bool { return c.count(TypeHello) == 1 })
	agent.SendPacketIn(7, []byte("frame"))
	agent.Stop()
	if n := agent.Stats.PacketInsSent.Load(); n != 0 {
		t.Fatalf("PacketInsSent = %d after a stop before Ready", n)
	}
	if n := c.count(TypePacketIn); n != 0 {
		t.Fatalf("controller read %d PACKET_INs", n)
	}
}

// TestAgentRefusesUnsupportedStats: a DESC request (a stats type the
// switch does not serve) and a request too short to name a type are each
// answered with one ERROR, and neither counts as a stats reply.
func TestAgentRefusesUnsupportedStats(t *testing.T) {
	agent, c, _ := startAgent(t)
	c.handshake(t)
	desc := make([]byte, headerLen+4) // OFPST_DESC: type 0, no body
	putHeader(desc, TypeStatsRequest, len(desc), 5)
	c.conn.Send(desc)
	waitCond(t, "ERROR for DESC", func() bool { return c.count(TypeError) == 1 })
	if typ, code, xid := parseError(t, c.last(TypeError)); typ != errBadRequest || code != brcBadStat || xid != 5 {
		t.Fatalf("ERROR %d/%d for xid %d, want BAD_REQUEST/BAD_STAT for 5", typ, code, xid)
	}
	short := make([]byte, headerLen+2)
	putHeader(short, TypeStatsRequest, len(short), 6)
	c.conn.Send(short)
	waitCond(t, "ERROR for the short request", func() bool { return c.count(TypeError) == 2 })
	if typ, code, xid := parseError(t, c.last(TypeError)); typ != errBadRequest || code != brcBadLen || xid != 6 {
		t.Fatalf("ERROR %d/%d for xid %d, want BAD_REQUEST/BAD_LEN for 6", typ, code, xid)
	}
	if n := c.count(TypeStatsReply); n != 0 {
		t.Fatalf("%d stats replies", n)
	}
	if n := agent.Stats.StatsReplies.Load(); n != 0 {
		t.Fatalf("StatsReplies = %d, want 0", n)
	}
}
