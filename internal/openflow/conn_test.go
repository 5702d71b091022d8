package openflow

import (
	"testing"
	"time"

	"repro/internal/emu"
)

// TestConnSendIsLossless: a sender that outruns the reader by any margin
// loses nothing and keeps the order. Nobody reads until every message is
// written, so all 10 000 sit in the pipe's buffer (a bounded send queue
// once kept the first 512 and dropped the rest).
func TestConnSendIsLossless(t *testing.T) {
	const n = 10000
	a, b := emu.Pipe()
	tx, rx := NewConn(a), NewConn(b)
	defer tx.Close()
	defer rx.Close()

	fm := FlowMod{Command: FCAdd, Priority: 100, Actions: []Action{{Output: 1}}}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 1; i <= n; i++ {
			tx.Send(EncodeFlowMod(uint32(i), fm))
		}
	}()
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocks while nobody reads")
	}
	for want := uint32(1); want <= n; want++ {
		h, _, err := rx.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", want, err)
		}
		if h.XID != want {
			t.Fatalf("message %d arrived where %d was due", h.XID, want)
		}
	}
}

// TestConnCloseWithBacklog: Close returns although the peer never reads
// the backlog, and Send after Close neither blocks nor panics.
func TestConnCloseWithBacklog(t *testing.T) {
	a, _ := emu.Pipe()
	c := NewConn(a)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			c.Send(EncodeHello(uint32(i)))
		}
		_ = c.Close()
		for i := 0; i < 2000; i++ {
			c.Send(EncodeHello(uint32(i)))
		}
		_ = c.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close or Send hangs behind an unread backlog")
	}
}
