package openflow

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DataPlane is the agent's view of its simulated switch, implemented by
// the Connection Manager. All methods may be called from the agent's
// reader goroutine; implementations marshal onto the engine goroutine.
type DataPlane interface {
	// ApplyFlowMod adds an entry (FCAdd) or removes one (FCDeleteStrict);
	// the agent hands it no other command and no timeout. fm's slices are
	// borrowed for the call: what outlives it is copied.
	ApplyFlowMod(fm FlowMod) error
	// FlowStats snapshots each entry with the bytes of the flows it
	// forwards.
	FlowStats() []FlowStatsEntry
}

// AgentStats counts protocol activity, atomically updated. A PACKET_IN or
// PORT_STATUS counts when it is written, not while it is held.
type AgentStats struct {
	FlowModsRecv     atomic.Uint64
	PacketInsSent    atomic.Uint64
	StatsReplies     atomic.Uint64
	EchoesAnswered   atomic.Uint64
	PortStatusesSent atomic.Uint64
}

// Agent is the switch-side OpenFlow endpoint: one per simulated switch,
// running as an emulated process. It acts on what the switch end of the
// channel table has a step for — the handshake, then the controller's
// requests — and forwards table changes into the simulated data plane.
type Agent struct {
	DPID uint64
	conn *Conn
	dp   DataPlane
	xids atomic.Uint32

	// mu guards the channel end, what is held for Ready and the ports:
	// the reader steps the end and answers FEATURES_REQUEST from the
	// ports, while the simulation side sends PACKET_INs and PORT_STATUSes
	// and mutates link state through SetPortDown.
	mu    sync.Mutex
	end   End
	held  []heldMsg
	ports []PhyPort

	wg    sync.WaitGroup
	Stats AgentStats
	logf  func(string, ...any)

	fm FlowMod // every FLOW_MOD decodes into it; the reader's alone
}

// heldMsg is an asynchronous message handed to the agent before Ready,
// and the counter its write bumps.
type heldMsg struct {
	msg  []byte
	sent *atomic.Uint64
}

// NewAgent creates an agent for a switch with the given datapath id and
// physical ports, speaking over rw to the controller.
func NewAgent(dpid uint64, ports []PhyPort, rw io.ReadWriteCloser, dp DataPlane, logf func(string, ...any)) *Agent {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Agent{DPID: dpid, conn: NewConn(rw), dp: dp, end: SwitchEnd(), ports: ports, logf: logf}
}

// Start sends HELLO and begins serving the controller. It returns
// immediately; use Stop to shut down.
func (a *Agent) Start() {
	a.conn.Send(EncodeHello(a.xids.Add(1)))
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		a.readLoop()
	}()
}

// Stop closes the control channel and waits for the reader to exit. An
// agent stopped before Ready never writes what it holds.
func (a *Agent) Stop() {
	_ = a.conn.Close()
	a.wg.Wait()
}

// SendPacketIn emits a PACKET_IN for a table miss; called by the
// Connection Manager when the simulated data plane punts a flow. Before
// Ready it is held, and written right after FEATURES_REPLY.
func (a *Agent) SendPacketIn(inPort uint16, frame []byte) {
	msg := EncodePacketIn(a.xids.Add(1), PacketIn{
		BufferID: 0xFFFFFFFF,
		InPort:   inPort,
		Reason:   0, // OFPR_NO_MATCH
		Data:     frame,
	})
	a.mu.Lock()
	a.sendAsyncLocked(msg, &a.Stats.PacketInsSent)
	a.mu.Unlock()
}

// SetPortDown records a carrier change on one of the agent's ports and
// emits the corresponding PORT_STATUS (OFPPR_MODIFY) to the controller,
// held like a PACKET_IN before Ready. Called by the Connection Manager
// when a failure injection touches a link of this switch; it reports
// whether the port was found.
func (a *Agent) SetPortDown(portNo uint16, down bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.ports {
		desc := &a.ports[i]
		if desc.PortNo != portNo {
			continue
		}
		if down {
			desc.State |= PortStateLinkDown
		} else {
			desc.State &^= PortStateLinkDown
		}
		a.sendAsyncLocked(EncodePortStatus(a.xids.Add(1), PortStatus{
			Reason: PortReasonModify,
			Desc:   *desc,
		}), &a.Stats.PortStatusesSent)
		return true
	}
	return false
}

// sendAsyncLocked writes a PACKET_IN or PORT_STATUS from Ready and holds
// it before. Caller holds a.mu.
func (a *Agent) sendAsyncLocked(msg []byte, sent *atomic.Uint64) {
	if a.end.State() != StateReady {
		a.held = append(a.held, heldMsg{msg, sent})
		return
	}
	a.conn.Send(msg)
	sent.Add(1)
}

// step moves the agent's end on a received message and refuses one the
// end has no step for. It runs under the lock the asynchronous sends
// take, and the step that answers FEATURES_REQUEST writes the reply and
// then, in order, everything held: nothing asynchronous precedes
// FEATURES_REPLY.
func (a *Agent) step(h Header, raw []byte) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	from, ok := a.end.Step(h.Type)
	if !ok {
		a.logf("agent %d: refused message type %d in %v", a.DPID, h.Type, from)
		a.conn.Send(a.end.Refusal(raw))
		return false
	}
	if h.Type == TypeFeaturesRequest {
		a.conn.Send(EncodeFeaturesReply(h.XID, FeaturesReply{
			DatapathID: a.DPID,
			NBuffers:   256,
			NTables:    1,
			Actions:    1, // OUTPUT
			Ports:      a.ports,
		}))
		for _, m := range a.held {
			a.conn.Send(m.msg)
			m.sent.Add(1)
		}
		a.held = nil
	}
	return true
}

// readLoop serves the controller until the channel ends. A reader that
// stops — at EOF or on a framing error — closes its end, which gives the
// channel's ledger token back.
func (a *Agent) readLoop() {
	defer a.conn.Close()
	for {
		h, raw, err := a.conn.Recv()
		if err != nil {
			if err != io.EOF {
				a.logf("agent %d: %v", a.DPID, err)
			}
			return
		}
		if !a.step(h, raw) {
			continue
		}
		// HELLO and FEATURES_REQUEST: the step did all there is to do.
		switch h.Type {
		case TypeEchoRequest:
			a.conn.Send(EncodeEcho(h.XID, true, raw[headerLen:]))
			a.Stats.EchoesAnswered.Add(1)
		case TypeBarrierRequest:
			a.conn.Send(EncodeBarrier(h.XID, true))
		case TypeFlowMod:
			a.applyFlowMod(raw)
		case TypeStatsRequest:
			a.answerStats(h.XID, raw)
		}
	}
}

// applyFlowMod hands a FLOW_MOD to the data plane if the switch serves
// it, which is what the controller apps send: ADD and DELETE_STRICT of
// entries that never expire. Anything else is answered with an ERROR and
// reaches neither the data plane nor FlowModsRecv: BAD_LEN for a message
// that does not decode, BAD_COMMAND for another command, UNSUPPORTED for
// an idle or hard timeout. Every FLOW_MOD decodes into the agent's one
// FlowMod, whose slices the data plane borrows for the call.
func (a *Agent) applyFlowMod(raw []byte) {
	err := DecodeFlowModInto(&a.fm, raw)
	fm := &a.fm
	switch {
	case err != nil:
		a.logf("agent %d: %v", a.DPID, err)
		a.conn.Send(encodeError(raw, errBadRequest, brcBadLen))
		return
	case fm.Command != FCAdd && fm.Command != FCDeleteStrict:
		a.logf("agent %d: unsupported flow mod command %d", a.DPID, fm.Command)
		a.conn.Send(encodeError(raw, errFlowModFailed, fmfcBadCommand))
		return
	case fm.IdleTimeout != 0 || fm.HardTimeout != 0:
		a.logf("agent %d: unsupported flow mod timeouts %d/%d s", a.DPID, fm.IdleTimeout, fm.HardTimeout)
		a.conn.Send(encodeError(raw, errFlowModFailed, fmfcUnsupported))
		return
	}
	a.Stats.FlowModsRecv.Add(1)
	if err := a.dp.ApplyFlowMod(*fm); err != nil {
		a.logf("agent %d: flow mod rejected: %v", a.DPID, err)
	}
}

// answerStats replies to a STATS_REQUEST, or answers an ERROR: BAD_LEN
// for a request that does not decode, BAD_STAT for a type other than
// FLOW, the only one the controller apps request.
func (a *Agent) answerStats(xid uint32, raw []byte) {
	st, err := DecodeStatsRequestType(raw)
	switch {
	case err != nil:
		a.logf("agent %d: %v", a.DPID, err)
		a.conn.Send(encodeError(raw, errBadRequest, brcBadLen))
		return
	case st == StatsFlow:
		a.conn.Send(EncodeFlowStatsReply(xid, a.dp.FlowStats()))
	default:
		a.logf("agent %d: unsupported stats type %d", a.DPID, st)
		a.conn.Send(encodeError(raw, errBadRequest, brcBadStat))
		return
	}
	a.Stats.StatsReplies.Add(1)
}

// String identifies the agent in logs.
func (a *Agent) String() string { return fmt.Sprintf("of-agent(dpid=%d)", a.DPID) }
