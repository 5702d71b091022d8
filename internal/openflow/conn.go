package openflow

import (
	"fmt"
	"io"
	"slices"
	"sync"
)

// Conn frames OpenFlow messages over a duplex byte stream.
type Conn struct {
	rw io.ReadWriteCloser
	mu sync.Mutex // one Write per message, whole, whoever sends
	in []byte     // the message Recv returned last; the reader's alone
}

// NewConn wraps a duplex stream whose Write must not block (the
// transport contract of the emulated control plane, kept by emu.Pipe and
// the Connection Manager's taps over it): Send writes on the caller's
// goroutine, and the simulator's engine goroutine is one of the callers.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{rw: rw}
}

// Send writes one already-encoded message. It blocks no longer than the
// transport's Write does — by NewConn's contract, not at all — and loses
// nothing: a controller installing a whole table back to back piles up
// in the transport's buffer. A failed write means a closed or broken
// transport, which the reader observes; messages sent after Close go
// nowhere.
func (c *Conn) Send(msg []byte) {
	c.mu.Lock()
	_, _ = c.rw.Write(msg)
	c.mu.Unlock()
}

// Recv blocks until one complete message arrives and returns its
// decoded header and raw bytes (header included). A header that does not
// decode is an error: the stream has lost its framing. The bytes are the
// conn's own buffer, valid until the next Recv: a caller that keeps a
// message past that copies it. Recv is for one reader goroutine.
func (c *Conn) Recv() (Header, []byte, error) {
	c.in = slices.Grow(c.in[:0], headerLen)[:headerLen]
	if err := readFull(c.rw, c.in); err != nil {
		return Header{}, nil, err
	}
	h, err := DecodeHeader(c.in)
	if err != nil {
		return Header{}, nil, err
	}
	c.in = slices.Grow(c.in, int(h.Length)-headerLen)[:h.Length]
	if err := readFull(c.rw, c.in[headerLen:]); err != nil {
		return Header{}, nil, err
	}
	return h, c.in, nil
}

// Close shuts the connection down; safe to call multiple times.
func (c *Conn) Close() error { return c.rw.Close() }

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
