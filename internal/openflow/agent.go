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
	// ApplyFlowMod installs/modifies/deletes table state.
	ApplyFlowMod(fm FlowMod) error
	// PortStats snapshots the port counters.
	PortStats() []PortStatsEntry
	// FlowStats snapshots the flow entry counters.
	FlowStats() []FlowStatsEntry
	// PacketOut injects a frame (Horse resolves it to flow forwarding).
	PacketOut(po PacketOut)
}

// AgentStats counts protocol activity, atomically updated.
type AgentStats struct {
	FlowModsRecv     atomic.Uint64
	PacketInsSent    atomic.Uint64
	StatsReplies     atomic.Uint64
	EchoesAnswered   atomic.Uint64
	PortStatusesSent atomic.Uint64
}

// Agent is the switch-side OpenFlow endpoint: one per simulated switch,
// running as an emulated process. It performs the handshake, answers the
// controller, and forwards table changes into the simulated data plane.
type Agent struct {
	DPID uint64
	conn *Conn
	dp   DataPlane
	xids atomic.Uint32

	// portMu guards ports: the reader goroutine serves FEATURES_REQUEST
	// from it while the simulation side mutates link state through
	// SetPortDown.
	portMu sync.Mutex
	ports  []PhyPort

	handshakeDone atomic.Bool
	wg            sync.WaitGroup
	Stats         AgentStats
	logf          func(string, ...any)
}

// NewAgent creates an agent for a switch with the given datapath id and
// physical ports, speaking over rw to the controller.
func NewAgent(dpid uint64, ports []PhyPort, rw io.ReadWriteCloser, dp DataPlane, logf func(string, ...any)) *Agent {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Agent{DPID: dpid, conn: NewConn(rw), dp: dp, ports: ports, logf: logf}
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

// Stop closes the control channel and waits for the reader to exit.
func (a *Agent) Stop() {
	_ = a.conn.Close()
	a.wg.Wait()
}

// Ready reports whether the handshake (HELLO + FEATURES) completed.
func (a *Agent) Ready() bool { return a.handshakeDone.Load() }

// SendPacketIn emits a PACKET_IN for a table miss; called by the
// Connection Manager when the simulated data plane punts a flow.
func (a *Agent) SendPacketIn(inPort uint16, frame []byte) {
	a.conn.Send(EncodePacketIn(a.xids.Add(1), PacketIn{
		BufferID: 0xFFFFFFFF,
		InPort:   inPort,
		Reason:   0, // OFPR_NO_MATCH
		Data:     frame,
	}))
	a.Stats.PacketInsSent.Add(1)
}

// SetPortDown records a carrier change on one of the agent's ports and
// emits the corresponding PORT_STATUS (OFPPR_MODIFY) to the controller.
// Called by the Connection Manager when a failure injection touches a
// link of this switch; it reports whether the port was found.
func (a *Agent) SetPortDown(portNo uint16, down bool) bool {
	a.portMu.Lock()
	var desc *PhyPort
	for i := range a.ports {
		if a.ports[i].PortNo == portNo {
			desc = &a.ports[i]
			break
		}
	}
	if desc == nil {
		a.portMu.Unlock()
		return false
	}
	if down {
		desc.State |= PortStateLinkDown
	} else {
		desc.State &^= PortStateLinkDown
	}
	snapshot := *desc
	a.portMu.Unlock()
	a.conn.Send(EncodePortStatus(a.xids.Add(1), PortStatus{
		Reason: PortReasonModify,
		Desc:   snapshot,
	}))
	a.Stats.PortStatusesSent.Add(1)
	return true
}

func (a *Agent) readLoop() {
	for {
		raw, err := a.conn.Recv()
		if err != nil {
			return
		}
		h, err := DecodeHeader(raw)
		if err != nil {
			a.logf("agent %d: %v", a.DPID, err)
			return
		}
		switch h.Type {
		case TypeHello:
			// Nothing to do: both sides send HELLO unconditionally.
		case TypeFeaturesRequest:
			a.portMu.Lock()
			ports := append([]PhyPort(nil), a.ports...)
			a.portMu.Unlock()
			a.conn.Send(EncodeFeaturesReply(h.XID, FeaturesReply{
				DatapathID: a.DPID,
				NBuffers:   256,
				NTables:    1,
				Actions:    1, // OUTPUT
				Ports:      ports,
			}))
			a.handshakeDone.Store(true)
		case TypeEchoRequest:
			a.conn.Send(EncodeEcho(h.XID, true, raw[headerLen:]))
			a.Stats.EchoesAnswered.Add(1)
		case TypeBarrierRequest:
			a.conn.Send(EncodeBarrier(h.XID, true))
		case TypeFlowMod:
			fm, err := DecodeFlowMod(raw)
			if err != nil {
				a.logf("agent %d: bad flow mod: %v", a.DPID, err)
				continue
			}
			a.Stats.FlowModsRecv.Add(1)
			if err := a.dp.ApplyFlowMod(fm); err != nil {
				a.logf("agent %d: flow mod rejected: %v", a.DPID, err)
			}
		case TypePacketOut:
			po, err := DecodePacketOut(raw)
			if err != nil {
				a.logf("agent %d: bad packet out: %v", a.DPID, err)
				continue
			}
			a.dp.PacketOut(po)
		case TypeStatsRequest:
			st, err := DecodeStatsRequestType(raw)
			if err != nil {
				continue
			}
			switch st {
			case StatsPort:
				a.conn.Send(EncodePortStatsReply(h.XID, a.dp.PortStats()))
			case StatsFlow:
				a.conn.Send(EncodeFlowStatsReply(h.XID, a.dp.FlowStats()))
			default:
				a.logf("agent %d: unsupported stats type %d", a.DPID, st)
			}
			a.Stats.StatsReplies.Add(1)
		default:
			a.logf("agent %d: ignoring message type %d", a.DPID, h.Type)
		}
	}
}

// String identifies the agent in logs.
func (a *Agent) String() string { return fmt.Sprintf("of-agent(dpid=%d)", a.DPID) }
