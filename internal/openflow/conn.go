package openflow

import (
	"fmt"
	"io"
	"sync"
)

// Conn frames OpenFlow messages over a duplex byte stream.
type Conn struct {
	rw io.ReadWriteCloser
	mu sync.Mutex // one Write per message, whole, whoever sends
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
// decode is an error: the stream has lost its framing.
func (c *Conn) Recv() (Header, []byte, error) {
	hdr := make([]byte, headerLen)
	if err := readFull(c.rw, hdr); err != nil {
		return Header{}, nil, err
	}
	h, err := DecodeHeader(hdr)
	if err != nil {
		return Header{}, nil, err
	}
	msg := make([]byte, h.Length)
	copy(msg, hdr)
	if err := readFull(c.rw, msg[headerLen:]); err != nil {
		return Header{}, nil, err
	}
	return h, msg, nil
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
