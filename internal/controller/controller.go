// Package controller implements Horse's emulated SDN controller: the
// connection core that speaks OpenFlow 1.0 to the switch agents, plus the
// traffic-engineering applications the paper demonstrates (proactive
// 5-tuple ECMP and Hedera).
//
// The controller is a real control plane process: it exchanges real
// OpenFlow bytes over real duplex channels in wall time. Its only
// concession to the hybrid architecture is the core.Clock interface,
// through which periodic work (Hedera's 5-second statistics poll) is
// scheduled in virtual time by the Connection Manager — otherwise DES
// fast-forward would starve wall-clock timers.
package controller

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/openflow"
	"repro/internal/topo"
)

// App is a controller application.
type App interface {
	Name() string
	// Init runs once before any switch connects.
	Init(ctx *Context)
	// SwitchReady fires once per switch, on the step into Ready: its
	// first FEATURES_REPLY.
	SwitchReady(sw *SwitchHandle)
	// PacketIn delivers a table-miss punt.
	PacketIn(sw *SwitchHandle, pi openflow.PacketIn)
	// PortStatus delivers an asynchronous port change (link up/down) —
	// the failure-injection subsystem's signal to SDN apps, which repair
	// their installed paths here.
	PortStatus(sw *SwitchHandle, ps openflow.PortStatus)
}

// Context gives apps access to shared controller facilities.
type Context struct {
	Topo  *topo.Graph
	Clock core.Clock
	Ctl   *Controller
	Logf  func(string, ...any)
}

// SwitchHandle is the controller's view of one connected switch.
type SwitchHandle struct {
	DPID uint64
	Node core.NodeID // topology node backing this datapath
	conn *openflow.Conn
	ctl  *Controller

	// mu guards the channel's controller end, which serve alone steps,
	// and the ports.
	mu    sync.Mutex
	end   openflow.End
	ports []openflow.PhyPort
}

// Ready reports whether the handshake completed.
func (sw *SwitchHandle) Ready() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.end.State() == openflow.StateReady
}

// Ports returns the switch's advertised physical ports.
func (sw *SwitchHandle) Ports() []openflow.PhyPort {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return append([]openflow.PhyPort(nil), sw.ports...)
}

// updatePort refreshes the cached description of one port from a
// PORT_STATUS.
func (sw *SwitchHandle) updatePort(desc openflow.PhyPort) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for i := range sw.ports {
		if sw.ports[i].PortNo == desc.PortNo {
			sw.ports[i] = desc
			return
		}
	}
	sw.ports = append(sw.ports, desc)
}

// SendFlowMod sends a FLOW_MOD to this switch.
func (sw *SwitchHandle) SendFlowMod(fm openflow.FlowMod) {
	sw.conn.Send(openflow.EncodeFlowMod(sw.ctl.xids.Next(), fm))
	sw.ctl.Stats.FlowModsSent.Add(1)
}

// RequestFlowStats asks for flow entry counters; cb runs once on the
// switch's reader goroutine, when the reply arrives, or with no entries
// when the switch answers an ERROR or a reply that does not decode.
func (sw *SwitchHandle) RequestFlowStats(cb func([]openflow.FlowStatsEntry)) {
	xid := sw.ctl.xids.Next()
	sw.ctl.addPending(xid, cb)
	sw.conn.Send(openflow.EncodeStatsRequest(xid, openflow.StatsFlow))
	sw.ctl.Stats.StatsRequestsSent.Add(1)
}

// XIDs hands out transaction ids.
type XIDs struct{ n atomic.Uint32 }

// Next returns a fresh transaction id.
func (x *XIDs) Next() uint32 { return x.n.Add(1) }

// ControllerStats counts controller activity; all fields are atomically
// updated and safe to read at any time.
type ControllerStats struct {
	FlowModsSent      atomic.Int64
	StatsRequestsSent atomic.Int64
	PacketInsRecv     atomic.Int64
	PortStatusesRecv  atomic.Int64
	SwitchesReady     atomic.Int64
}

// Controller is the emulated controller process.
type Controller struct {
	ctx  Context
	app  App
	xids XIDs

	mu       sync.Mutex
	switches map[uint64]*SwitchHandle
	pending  map[uint32]func([]openflow.FlowStatsEntry)
	closed   bool
	wg       sync.WaitGroup

	Stats ControllerStats
}

// New creates a controller running the given app over the given topology.
func New(g *topo.Graph, clock core.Clock, app App, logf func(string, ...any)) *Controller {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Controller{
		switches: make(map[uint64]*SwitchHandle),
		pending:  make(map[uint32]func([]openflow.FlowStatsEntry)),
		app:      app,
	}
	c.ctx = Context{Topo: g, Clock: clock, Ctl: c, Logf: logf}
	app.Init(&c.ctx)
	return c
}

// Connect attaches a switch control channel. dpid must be unique; node is
// the topology node backing the datapath.
func (c *Controller) Connect(node core.NodeID, dpid uint64, rw io.ReadWriteCloser) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("controller: closed")
	}
	if _, dup := c.switches[dpid]; dup {
		return fmt.Errorf("controller: duplicate dpid %d", dpid)
	}
	sw := &SwitchHandle{DPID: dpid, Node: node, conn: openflow.NewConn(rw), ctl: c, end: openflow.ControllerEnd()}
	c.switches[dpid] = sw
	sw.conn.Send(openflow.EncodeHello(c.xids.Next()))
	sw.conn.Send(openflow.EncodeFeaturesRequest(c.xids.Next()))
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.serve(sw)
	}()
	return nil
}

// Stop closes all switch channels and waits for readers to exit.
func (c *Controller) Stop() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	handles := make([]*SwitchHandle, 0, len(c.switches))
	for _, sw := range c.switches {
		handles = append(handles, sw)
	}
	c.mu.Unlock()
	for _, sw := range handles {
		_ = sw.conn.Close()
	}
	c.wg.Wait()
}

// Switch returns the handle for dpid.
func (c *Controller) Switch(dpid uint64) (*SwitchHandle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.switches[dpid]
	return sw, ok
}

// Switches returns all connected switch handles.
func (c *Controller) Switches() []*SwitchHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*SwitchHandle, 0, len(c.switches))
	for _, sw := range c.switches {
		out = append(out, sw)
	}
	return out
}

// ReadyCount reports how many switches completed the handshake.
func (c *Controller) ReadyCount() int {
	return int(c.Stats.SwitchesReady.Load())
}

func (c *Controller) addPending(xid uint32, cb func([]openflow.FlowStatsEntry)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending[xid] = cb
}

func (c *Controller) takePending(xid uint32) func([]openflow.FlowStatsEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cb := c.pending[xid]
	delete(c.pending, xid)
	return cb
}

// serve reads one switch's channel: every message steps the controller
// end first, and one it has no step for is refused — answered with an
// ERROR and not dispatched.
func (c *Controller) serve(sw *SwitchHandle) {
	for {
		raw, err := sw.conn.Recv()
		if err != nil {
			return
		}
		h, err := openflow.DecodeHeader(raw)
		if err != nil {
			c.ctx.Logf("controller: dpid %d: %v", sw.DPID, err)
			return
		}
		sw.mu.Lock()
		from, ok := sw.end.Step(h.Type)
		sw.mu.Unlock()
		if !ok {
			c.ctx.Logf("controller: dpid %d: refused message type %d in %v", sw.DPID, h.Type, from)
			sw.conn.Send(sw.end.Refusal(raw))
			continue
		}
		// HELLO and BARRIER_REPLY: the step is all there is to do.
		switch h.Type {
		case openflow.TypeFeaturesReply:
			fr, err := openflow.DecodeFeaturesReply(raw)
			if err != nil {
				c.ctx.Logf("controller: bad features from %d: %v", sw.DPID, err)
				continue
			}
			sw.mu.Lock()
			sw.ports = fr.Ports
			sw.mu.Unlock()
			if from != openflow.StateReady {
				c.Stats.SwitchesReady.Add(1)
				c.app.SwitchReady(sw)
			}
		case openflow.TypeEchoRequest:
			sw.conn.Send(openflow.EncodeEcho(h.XID, true, raw[8:]))
		case openflow.TypePacketIn:
			pi, err := openflow.DecodePacketIn(raw)
			if err != nil {
				continue
			}
			c.Stats.PacketInsRecv.Add(1)
			c.app.PacketIn(sw, pi)
		case openflow.TypePortStatus:
			ps, err := openflow.DecodePortStatus(raw)
			if err != nil {
				c.ctx.Logf("controller: bad port status from %d: %v", sw.DPID, err)
				continue
			}
			c.Stats.PortStatusesRecv.Add(1)
			sw.updatePort(ps.Desc)
			c.app.PortStatus(sw, ps)
		case openflow.TypeStatsReply:
			if cb := c.takePending(h.XID); cb != nil {
				entries, err := openflow.DecodeFlowStatsReply(raw)
				if err != nil {
					c.ctx.Logf("controller: bad flow stats from %d: %v", sw.DPID, err)
				}
				cb(entries)
			}
		case openflow.TypeError:
			// An ERROR answering a stats request ends its wait.
			if cb := c.takePending(h.XID); cb != nil {
				c.ctx.Logf("controller: dpid %d refused stats request %d", sw.DPID, h.XID)
				cb(nil)
			}
		}
	}
}
