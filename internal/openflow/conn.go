package openflow

import (
	"fmt"
	"io"
	"sync"
)

// Conn frames OpenFlow messages over a duplex byte stream. Writes are
// queued to a dedicated writer goroutine so protocol handlers never block
// on the transport (unbuffered in-memory pipes would otherwise deadlock
// two endpoints writing simultaneously). The queue is unbounded, like
// sim's post queue: a controller installing a whole table back to back
// outruns any fixed bound, and a dropped FLOW_MOD is a silently missing
// rule.
type Conn struct {
	rw io.ReadWriteCloser

	mu     sync.Mutex
	out    [][]byte
	closed bool
	wake   chan struct{} // capacity 1: wake signal for the writer
	done   chan struct{}
}

// NewConn wraps a duplex stream.
func NewConn(rw io.ReadWriteCloser) *Conn {
	c := &Conn{
		rw:   rw,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go c.writeLoop()
	return c
}

// writeLoop writes the whole backlog, one message per Write, each time
// it is woken; it exits once Close has been called and the messages
// queued before it are written.
func (c *Conn) writeLoop() {
	defer close(c.done)
	for range c.wake {
		c.mu.Lock()
		batch, closed := c.out, c.closed
		c.out = nil
		c.mu.Unlock()
		for _, b := range batch {
			// A failed write means a broken transport, which the
			// reader observes; the rest of the backlog fails the same
			// way.
			_, _ = c.rw.Write(b)
		}
		if closed {
			return
		}
	}
}

// Send queues one already-encoded message and never blocks. Messages
// sent after Close are dropped.
func (c *Conn) Send(msg []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.out = append(c.out, msg)
	c.mu.Unlock()
	c.signal()
}

// signal wakes the writer; a wake already pending covers this one too.
func (c *Conn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Recv blocks until one complete message arrives and returns its raw
// bytes (header included).
func (c *Conn) Recv() ([]byte, error) {
	hdr := make([]byte, headerLen)
	if err := readFull(c.rw, hdr); err != nil {
		return nil, err
	}
	h, err := DecodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, h.Length)
	copy(msg, hdr)
	if err := readFull(c.rw, msg[headerLen:]); err != nil {
		return nil, err
	}
	return msg, nil
}

// Close shuts the connection down; safe to call multiple times.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.signal()
	err := c.rw.Close()
	<-c.done
	return err
}

func readFull(r io.Reader, b []byte) error {
	for off := 0; off < len(b); {
		n, err := r.Read(b[off:])
		off += n
		if err != nil {
			if off == len(b) {
				return nil
			}
			return err
		}
		if n == 0 {
			return fmt.Errorf("openflow: zero-length read")
		}
	}
	return nil
}

// xidGen hands out transaction IDs.
type xidGen struct {
	mu  sync.Mutex
	nxt uint32
}

func (g *xidGen) next() uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nxt++
	return g.nxt
}
