// Package emu provides the emulation harness plumbing: the buffered
// in-memory duplex stream every control plane channel (BGP session,
// OpenFlow connection) runs over.
//
// In the original Horse the control plane processes are OS processes wired
// through virtual interfaces; here they are goroutines wired through
// in-memory streams — the Connection Manager still sees every byte (see
// internal/cm).
package emu

import (
	"io"
	"sync"
)

// Pipe returns a connected pair of buffered duplex streams. It is where
// the transport contract of the emulated control plane is kept: Write
// never blocks (the buffer grows as needed, like a kernel socket pair
// with ample buffers), each Write lands whole and in call order, and
// what was written before Close is still read before EOF. BGP sessions
// and OpenFlow connections rely on it — they write on whatever goroutine
// produced the message, the engine goroutine included, with no queue or
// writer goroutine of their own.
func Pipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	ab := newHalf()
	ba := newHalf()
	return &pipeEnd{r: ab, w: ba}, &pipeEnd{r: ba, w: ab}
}

// half is one direction of a pipe: an unbounded FIFO byte buffer.
type half struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newHalf() *half {
	h := &half{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *half) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, io.ErrClosedPipe
	}
	h.buf = append(h.buf, p...)
	h.cond.Broadcast()
	return len(p), nil
}

func (h *half) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 && !h.closed {
		h.cond.Wait()
	}
	if len(h.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

func (h *half) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

type pipeEnd struct {
	r *half // we read what the peer wrote
	w *half // we write what the peer reads
}

func (p *pipeEnd) Read(b []byte) (int, error)  { return p.r.read(b) }
func (p *pipeEnd) Write(b []byte) (int, error) { return p.w.write(b) }

// Close shuts both directions down; pending reads return EOF, writes
// fail with io.ErrClosedPipe on either end.
func (p *pipeEnd) Close() error {
	p.r.close()
	p.w.close()
	return nil
}
