package openflow

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/emu"
)

// fakeDP records what the agent applies.
type fakeDP struct {
	mu       sync.Mutex
	flowMods []FlowMod
	pktOuts  []PacketOut
}

func (f *fakeDP) ApplyFlowMod(fm FlowMod) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flowMods = append(f.flowMods, fm)
	return nil
}

func (f *fakeDP) PortStats() []PortStatsEntry {
	return []PortStatsEntry{{PortNo: 1, TxBytes: 1000, RxBytes: 2000}}
}

func (f *fakeDP) FlowStats() []FlowStatsEntry {
	return []FlowStatsEntry{{Priority: 7, ByteCount: 99}}
}

func (f *fakeDP) PacketOut(po PacketOut) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pktOuts = append(f.pktOuts, po)
}

func (f *fakeDP) counts() (int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.flowMods), len(f.pktOuts)
}

// ctl is a minimal hand-rolled controller side for tests.
type ctl struct {
	conn *Conn
	mu   sync.Mutex
	msgs map[uint8][][]byte
}

func newCtl(rw io.ReadWriteCloser) *ctl {
	c := &ctl{conn: NewConn(rw), msgs: make(map[uint8][][]byte)}
	go func() {
		for {
			raw, err := c.conn.Recv()
			if err != nil {
				return
			}
			h, err := DecodeHeader(raw)
			if err != nil {
				return
			}
			c.mu.Lock()
			c.msgs[h.Type] = append(c.msgs[h.Type], raw)
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *ctl) count(typ uint8) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs[typ])
}

func (c *ctl) last(typ uint8) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.msgs[typ]
	if len(m) == 0 {
		return nil
	}
	return m[len(m)-1]
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
	waitCond(t, "agent ready", agent.Ready)
}

func TestAgentAppliesFlowMod(t *testing.T) {
	_, c, dp := startAgent(t)
	fm := FlowMod{
		Match: TupleToExactMatch(sampleTuple()), Command: FCAdd,
		Priority: 10, Actions: []Action{{Output: 1}},
	}
	c.conn.Send(EncodeFlowMod(3, fm))
	waitCond(t, "flow mod applied", func() bool { n, _ := dp.counts(); return n == 1 })
	dp.mu.Lock()
	got := dp.flowMods[0]
	dp.mu.Unlock()
	if got.Priority != 10 || got.Command != FCAdd {
		t.Fatalf("applied %+v", got)
	}
}

func TestAgentAnswersStats(t *testing.T) {
	agent, c, _ := startAgent(t)
	c.conn.Send(EncodeStatsRequest(5, StatsPort))
	waitCond(t, "port stats reply", func() bool { return c.count(TypeStatsReply) >= 1 })
	entries, err := DecodePortStatsReply(c.last(TypeStatsReply))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].TxBytes != 1000 {
		t.Fatalf("port stats = %+v", entries)
	}
	c.conn.Send(EncodeStatsRequest(6, StatsFlow))
	waitCond(t, "flow stats reply", func() bool { return c.count(TypeStatsReply) >= 2 })
	fentries, err := DecodeFlowStatsReply(c.last(TypeStatsReply))
	if err != nil {
		t.Fatal(err)
	}
	if len(fentries) != 1 || fentries[0].ByteCount != 99 {
		t.Fatalf("flow stats = %+v", fentries)
	}
	if agent.Stats.StatsReplies.Load() != 2 {
		t.Fatalf("stats replies = %d", agent.Stats.StatsReplies.Load())
	}
}

func TestAgentEchoAndBarrier(t *testing.T) {
	agent, c, _ := startAgent(t)
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

func TestAgentPacketOut(t *testing.T) {
	_, c, dp := startAgent(t)
	c.conn.Send(EncodePacketOut(11, PacketOut{InPort: 1, Actions: []Action{{Output: 2}}, Data: []byte("f")}))
	waitCond(t, "packet out", func() bool { _, n := dp.counts(); return n == 1 })
}

func TestAgentIgnoresGarbageGracefully(t *testing.T) {
	_, c, dp := startAgent(t)
	// A vendor message (unsupported type): must be ignored, not fatal.
	b := make([]byte, 8)
	putHeader(b, TypeVendor, 8, 1)
	c.conn.Send(b)
	// Then a valid flow mod still works.
	c.conn.Send(EncodeFlowMod(3, FlowMod{Command: FCAdd, Actions: []Action{{Output: 1}}}))
	waitCond(t, "flow mod after garbage", func() bool { n, _ := dp.counts(); return n == 1 })
}

func TestConnSendAfterClose(t *testing.T) {
	a, _ := emu.Pipe()
	c := NewConn(a)
	_ = c.Close()
	c.Send(EncodeHello(1)) // must not panic
	_ = c.Close()          // double close must be safe
}
