package openflow

import (
	"bytes"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/emu"
)

// fakeDP records what the agent applies and how often it is asked.
type fakeDP struct {
	mu       sync.Mutex
	flowMods []FlowMod
	calls    int // every DataPlane call
}

func (f *fakeDP) ApplyFlowMod(fm FlowMod) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	// fm's slices are the agent's, borrowed for the call: keep a copy.
	fm.Actions = slices.Clone(fm.Actions)
	for i := range fm.Actions {
		fm.Actions[i].Group = slices.Clone(fm.Actions[i].Group)
	}
	f.flowMods = append(f.flowMods, fm)
	f.calls++
	return nil
}

func (f *fakeDP) FlowStats() []FlowStatsEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	return []FlowStatsEntry{{Priority: 7, ByteCount: 99}}
}

func (f *fakeDP) applied() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.flowMods)
}

func (f *fakeDP) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// ctl is a minimal hand-rolled controller side for tests: it keeps what
// it reads in arrival order.
type ctl struct {
	conn *Conn
	mu   sync.Mutex
	msgs [][]byte
}

func newCtl(rw io.ReadWriteCloser) *ctl {
	c := &ctl{conn: NewConn(rw)}
	go func() {
		for {
			_, raw, err := c.conn.Recv()
			if err != nil {
				return
			}
			c.mu.Lock()
			c.msgs = append(c.msgs, bytes.Clone(raw)) // Recv reuses raw
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *ctl) count(typ uint8) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.msgs {
		if m[1] == typ {
			n++
		}
	}
	return n
}

func (c *ctl) last(typ uint8) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.msgs) - 1; i >= 0; i-- {
		if c.msgs[i][1] == typ {
			return c.msgs[i]
		}
	}
	return nil
}

// types lists the types of everything read so far, in order.
func (c *ctl) types() []uint8 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint8, len(c.msgs))
	for i, m := range c.msgs {
		out[i] = m[1]
	}
	return out
}

// handshake steps the agent to Ready: HELLO, FEATURES_REQUEST, and the
// wait for its FEATURES_REPLY.
func (c *ctl) handshake(t *testing.T) {
	t.Helper()
	n := c.count(TypeFeaturesReply)
	c.conn.Send(EncodeHello(1))
	c.conn.Send(EncodeFeaturesRequest(2))
	waitCond(t, "FEATURES_REPLY", func() bool { return c.count(TypeFeaturesReply) > n })
}

// state reads the agent's end.
func (a *Agent) state() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.end.State()
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func startAgent(t *testing.T) (*Agent, *ctl, *fakeDP) {
	t.Helper()
	a2c, c2a := emu.Pipe()
	dp := &fakeDP{}
	agent := NewAgent(42, []PhyPort{{PortNo: 1, Name: "p1"}}, a2c, dp, t.Logf)
	c := newCtl(c2a)
	agent.Start()
	t.Cleanup(agent.Stop)
	return agent, c, dp
}

func TestAgentHandshake(t *testing.T) {
	agent, c, _ := startAgent(t)
	waitCond(t, "HELLO from agent", func() bool { return c.count(TypeHello) == 1 })
	c.conn.Send(EncodeHello(1))
	c.conn.Send(EncodeFeaturesRequest(2))
	waitCond(t, "FEATURES_REPLY", func() bool { return c.count(TypeFeaturesReply) == 1 })
	fr, err := DecodeFeaturesReply(c.last(TypeFeaturesReply))
	if err != nil {
		t.Fatal(err)
	}
	if fr.DatapathID != 42 || len(fr.Ports) != 1 || fr.Ports[0].Name != "p1" {
		t.Fatalf("features = %+v", fr)
	}
	if st := agent.state(); st != StateReady {
		t.Fatalf("agent in %v after FEATURES_REQUEST, want Ready", st)
	}
}

func TestAgentAppliesFlowMod(t *testing.T) {
	_, c, dp := startAgent(t)
	c.handshake(t)
	fm := FlowMod{
		Match: TupleToExactMatch(sampleTuple()), Command: FCAdd,
		Priority: 10, Actions: []Action{{Output: 1}},
	}
	c.conn.Send(EncodeFlowMod(3, fm))
	waitCond(t, "flow mod applied", func() bool { return dp.applied() == 1 })
	dp.mu.Lock()
	got := dp.flowMods[0]
	dp.mu.Unlock()
	if got.Priority != 10 || got.Command != FCAdd {
		t.Fatalf("applied %+v", got)
	}
}

func TestAgentAnswersStats(t *testing.T) {
	agent, c, _ := startAgent(t)
	c.handshake(t)
	c.conn.Send(EncodeStatsRequest(6, StatsFlow))
	waitCond(t, "flow stats reply", func() bool { return c.count(TypeStatsReply) == 1 })
	entries, err := DecodeFlowStatsReply(c.last(TypeStatsReply))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ByteCount != 99 {
		t.Fatalf("flow stats = %+v", entries)
	}
	if agent.Stats.StatsReplies.Load() != 1 {
		t.Fatalf("stats replies = %d", agent.Stats.StatsReplies.Load())
	}
}

func TestAgentEchoAndBarrier(t *testing.T) {
	agent, c, _ := startAgent(t)
	c.handshake(t)
	c.conn.Send(EncodeEcho(9, false, []byte("ping")))
	waitCond(t, "echo reply", func() bool { return c.count(TypeEchoReply) == 1 })
	if string(c.last(TypeEchoReply)[8:]) != "ping" {
		t.Fatal("echo payload lost")
	}
	c.conn.Send(EncodeBarrier(10, false))
	waitCond(t, "barrier reply", func() bool { return c.count(TypeBarrierReply) == 1 })
	if agent.Stats.EchoesAnswered.Load() != 1 {
		t.Fatal("echo not counted")
	}
}

func TestAgentSendsPacketIn(t *testing.T) {
	agent, c, _ := startAgent(t)
	c.handshake(t)
	agent.SendPacketIn(7, []byte("frame"))
	waitCond(t, "packet in", func() bool { return c.count(TypePacketIn) == 1 })
	pi, err := DecodePacketIn(c.last(TypePacketIn))
	if err != nil {
		t.Fatal(err)
	}
	if pi.InPort != 7 || string(pi.Data) != "frame" {
		t.Fatalf("packet in = %+v", pi)
	}
	if agent.Stats.PacketInsSent.Load() != 1 {
		t.Fatal("packet in not counted")
	}
}

// TestAgentPacketOut: the fluid data plane has no packet to send, so a
// PACKET_OUT has no step in any state and is refused as a bad type.
func TestAgentPacketOut(t *testing.T) {
	_, c, dp := startAgent(t)
	c.handshake(t)
	c.conn.Send(EncodePacketOut(11, PacketOut{InPort: 1, Actions: []Action{{Output: 2}}, Data: []byte("f")}))
	waitCond(t, "ERROR", func() bool { return c.count(TypeError) == 1 })
	if typ, code, xid := parseError(t, c.last(TypeError)); typ != errBadRequest || code != brcBadType || xid != 11 {
		t.Fatalf("ERROR type %d code %d xid %d, want BAD_REQUEST/BAD_TYPE for xid 11", typ, code, xid)
	}
	if n := dp.callCount(); n != 0 {
		t.Fatalf("%d data plane calls for a PACKET_OUT", n)
	}
}

func TestAgentIgnoresGarbageGracefully(t *testing.T) {
	_, c, dp := startAgent(t)
	c.handshake(t)
	// A vendor message (unsupported type): refused, not fatal.
	b := make([]byte, 8)
	putHeader(b, TypeVendor, 8, 1)
	c.conn.Send(b)
	// Then a valid flow mod still works.
	c.conn.Send(EncodeFlowMod(3, FlowMod{Command: FCAdd, Actions: []Action{{Output: 1}}}))
	waitCond(t, "flow mod after garbage", func() bool { return dp.applied() == 1 })
	if n := c.count(TypeError); n != 1 {
		t.Fatalf("%d ERRORs, want 1 for the vendor message", n)
	}
}

func TestConnSendAfterClose(t *testing.T) {
	a, _ := emu.Pipe()
	c := NewConn(a)
	_ = c.Close()
	c.Send(EncodeHello(1)) // must not panic
	_ = c.Close()          // double close must be safe
}

// TestStoppedReadLoopClosesItsEnd: a controller speaking another OpenFlow
// version ends the agent's reader, which closes its end. The controller
// reads EOF, and once it closes too the ledger reads zero, so the hybrid
// clock does not wait out its quiet timeout on this channel.
func TestStoppedReadLoopClosesItsEnd(t *testing.T) {
	var ledger emu.Ledger
	a2c, c2a := ledger.Pipe()
	agent := NewAgent(42, nil, a2c, &fakeDP{}, t.Logf)
	agent.Start()
	t.Cleanup(agent.Stop)
	if _, err := c2a.Write([]byte{4, TypeHello, 0, 8, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	eof := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(c2a)
		eof <- err
	}()
	select {
	case err := <-eof:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the agent's reader stopped and left its end open")
	}
	_ = c2a.Close()
	waitCond(t, "an empty ledger", func() bool { return ledger.InFlight() == 0 })
}
