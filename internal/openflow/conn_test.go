package openflow

import (
	"net"
	"testing"
	"time"
)

// TestConnSendIsLossless: a sender that outruns the transport by any
// margin loses nothing. net.Pipe is unbuffered and nobody reads until
// every message is queued, so all 10 000 sit in the Conn's backlog (the
// bounded queue this replaces kept the first 512 and dropped the rest).
func TestConnSendIsLossless(t *testing.T) {
	const n = 10000
	a, b := net.Pipe()
	tx, rx := NewConn(a), NewConn(b)
	defer tx.Close()
	defer rx.Close()

	queued := make(chan struct{})
	type recvd struct {
		xid uint32
		err error
	}
	got := make(chan recvd, n) // room for every message: the reader never blocks on the test
	go func() {
		<-queued
		for i := 0; i < n; i++ {
			raw, err := rx.Recv()
			if err != nil {
				got <- recvd{err: err}
				return
			}
			h, err := DecodeHeader(raw)
			got <- recvd{h.XID, err}
		}
	}()
	fm := FlowMod{Command: FCAdd, Priority: 100, Actions: []Action{{Output: 1}}}
	for i := 1; i <= n; i++ {
		tx.Send(EncodeFlowMod(uint32(i), fm)) // must not block: nobody is reading yet
	}
	close(queued)
	for want := uint32(1); want <= n; want++ {
		select {
		case m := <-got:
			if m.err != nil {
				t.Fatalf("message %d: %v", want, m.err)
			}
			if m.xid != want {
				t.Fatalf("message %d arrived where %d was due", m.xid, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d messages arrived", want-1, n)
		}
	}
}

// TestConnCloseWithBacklog: Close returns although the peer never reads
// the backlog, and Send after Close neither blocks nor panics.
func TestConnCloseWithBacklog(t *testing.T) {
	a, _ := net.Pipe()
	c := NewConn(a)
	for i := 0; i < 2000; i++ {
		c.Send(EncodeHello(uint32(i)))
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs behind an unread backlog")
	}
	for i := 0; i < 2000; i++ {
		c.Send(EncodeHello(uint32(i)))
	}
	_ = c.Close()
}
