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
// fast-forward would starve wall-clock timers. Like a real controller's
// event loop, it is one process under one lock: an app's callbacks run
// one at a time.
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

// App is a controller application. The controller calls its methods, and
// the callbacks it arms through Context.Clock and RequestFlowStats, one at
// a time under the controller's lock, so an app keeps no lock of its own
// and no callback may wait for another.
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
	Topo *topo.Graph
	// Clock is New's clock with After's function run under the
	// controller's lock, like every other app callback. Every core.Clock
	// in the repo runs that function on a goroutine of its own; one that
	// ran it inline, inside the callback arming it, would deadlock here.
	Clock core.Clock
	Ctl   *Controller
	Logf  func(string, ...any)
}

// lockedClock runs each timer callback under the controller's lock. The
// clock's goroutine keeps whatever ledger token its clock gave it while
// it waits there, so the hybrid clock stays in FTI until the callback
// has run.
type lockedClock struct {
	core.Clock
	c *Controller
}

func (k lockedClock) After(d core.Time, fn func()) {
	k.Clock.After(d, func() {
		k.c.mu.Lock()
		defer k.c.mu.Unlock()
		fn()
	})
}

// SwitchHandle is the controller's view of one connected switch. Its
// methods are for app callbacks, which hold the controller's lock.
type SwitchHandle struct {
	DPID uint64
	Node core.NodeID // topology node backing this datapath
	conn *openflow.Conn
	ctl  *Controller
	end  openflow.End // the channel's controller end, stepped by serve alone
}

// Ready reports whether the handshake completed.
func (sw *SwitchHandle) Ready() bool { return sw.end.State() == openflow.StateReady }

// SendFlowMod sends a FLOW_MOD to this switch. It encodes into the
// controller's one send buffer, which the channel's Write copies, so
// neither fm nor the wire bytes outlive the call.
func (sw *SwitchHandle) SendFlowMod(fm openflow.FlowMod) {
	c := sw.ctl
	c.out = openflow.AppendFlowMod(c.out[:0], c.nextXID(), fm)
	sw.conn.Send(c.out)
	c.Stats.FlowModsSent.Add(1)
}

// RequestFlowStats asks for flow entry counters; cb runs once, under the
// controller's lock, when the reply arrives, or with no entries when the
// switch answers an ERROR or a reply that does not decode.
func (sw *SwitchHandle) RequestFlowStats(cb func([]openflow.FlowStatsEntry)) {
	xid := sw.ctl.nextXID()
	sw.ctl.pending[xid] = cb
	sw.conn.Send(openflow.EncodeStatsRequest(xid, openflow.StatsFlow))
	sw.ctl.Stats.StatsRequestsSent.Add(1)
}

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
	ctx Context
	app App

	// mu is the controller's one lock: serve handles each message under
	// it, and every app callback (see App) runs under it.
	mu       sync.Mutex
	xid      uint32 // the last transaction id handed out
	out      []byte // SendFlowMod's encoding buffer
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
	c.ctx = Context{Topo: g, Clock: lockedClock{clock, c}, Ctl: c, Logf: logf}
	c.mu.Lock()
	app.Init(&c.ctx)
	c.mu.Unlock()
	return c
}

// nextXID hands out a fresh transaction id; c.mu held.
func (c *Controller) nextXID() uint32 {
	c.xid++
	return c.xid
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
	sw.conn.Send(openflow.EncodeHello(c.nextXID()))
	sw.conn.Send(openflow.EncodeFeaturesRequest(c.nextXID()))
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

// Switch returns the handle for dpid. It and Switches are for app
// callbacks, which hold c.mu.
func (c *Controller) Switch(dpid uint64) (*SwitchHandle, bool) {
	sw, ok := c.switches[dpid]
	return sw, ok
}

// Switches returns all connected switch handles.
func (c *Controller) Switches() []*SwitchHandle {
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

// serve reads one switch's channel and handles each message under c.mu.
// Waiting for the lock, it has not parked in Read, so the channel keeps
// its ledger token and the hybrid clock stays in FTI. A reader that
// stops — at EOF or on a framing error — closes its end, which gives
// the token back.
func (c *Controller) serve(sw *SwitchHandle) {
	defer sw.conn.Close()
	for {
		h, raw, err := sw.conn.Recv()
		if err != nil {
			if err != io.EOF {
				c.ctx.Logf("controller: dpid %d: %v", sw.DPID, err)
			}
			return
		}
		c.mu.Lock()
		c.handle(sw, h, raw)
		c.mu.Unlock()
	}
}

// handle steps the controller end on one message and dispatches it; a
// message the end has no step for is refused — answered with an ERROR
// and not dispatched. c.mu held.
func (c *Controller) handle(sw *SwitchHandle, h openflow.Header, raw []byte) {
	from, ok := sw.end.Step(h.Type)
	if !ok {
		c.ctx.Logf("controller: dpid %d: refused message type %d in %v", sw.DPID, h.Type, from)
		sw.conn.Send(sw.end.Refusal(raw))
		return
	}
	// HELLO and BARRIER_REPLY: the step is all there is to do.
	switch h.Type {
	case openflow.TypeFeaturesReply:
		if _, err := openflow.DecodeFeaturesReply(raw); err != nil {
			c.ctx.Logf("controller: bad features from %d: %v", sw.DPID, err)
			return
		}
		if from != openflow.StateReady {
			c.Stats.SwitchesReady.Add(1)
			c.app.SwitchReady(sw)
		}
	case openflow.TypeEchoRequest:
		sw.conn.Send(openflow.EncodeEcho(h.XID, true, raw[8:]))
	case openflow.TypePacketIn:
		pi, err := openflow.DecodePacketIn(raw)
		if err != nil {
			return
		}
		c.Stats.PacketInsRecv.Add(1)
		c.app.PacketIn(sw, pi)
	case openflow.TypePortStatus:
		ps, err := openflow.DecodePortStatus(raw)
		if err != nil {
			c.ctx.Logf("controller: bad port status from %d: %v", sw.DPID, err)
			return
		}
		c.Stats.PortStatusesRecv.Add(1)
		c.app.PortStatus(sw, ps)
	case openflow.TypeStatsReply, openflow.TypeError:
		cb, ok := c.pending[h.XID]
		if !ok {
			return
		}
		delete(c.pending, h.XID)
		if h.Type == openflow.TypeError {
			// An ERROR answering a stats request ends its wait.
			c.ctx.Logf("controller: dpid %d refused stats request %d", sw.DPID, h.XID)
			cb(nil)
			return
		}
		entries, err := openflow.DecodeFlowStatsReply(raw)
		if err != nil {
			c.ctx.Logf("controller: bad flow stats from %d: %v", sw.DPID, err)
		}
		cb(entries)
	}
}
