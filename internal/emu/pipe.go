// Package emu provides the emulation harness plumbing: the buffered
// in-memory duplex stream every control plane channel (BGP session,
// OpenFlow connection) runs over, and the ledger that counts how much
// control plane work those streams still have in flight.
//
// In the original Horse the control plane processes are OS processes wired
// through virtual interfaces; here they are goroutines wired through
// in-memory streams — the Connection Manager still sees every byte (see
// internal/cm).
package emu

import (
	"io"
	"sync"
	"sync/atomic"
)

// Ledger counts control plane work in flight: one token per unit of work
// somebody has handed over and nobody has finished reacting to. The
// original Horse cannot know this — Quagga and a controller are opaque
// processes, so it waits out a quiet period — but here every control
// byte crosses a Pipe, so the hybrid clock can leave FTI when the count
// reads zero instead of guessing (sim.Engine.SetInFlight).
//
// The pipes made by Ledger.Pipe keep their own tokens; anything else
// that is control plane work between two pipe operations (an armed
// advertisement timer, a virtual-timer callback) brackets itself with
// Hold and Release. The zero value is ready to use.
type Ledger struct{ n atomic.Int64 }

// Hold takes one token.
func (l *Ledger) Hold() { l.n.Add(1) }

// Release returns one token.
func (l *Ledger) Release() { l.n.Add(-1) }

// InFlight reports the tokens currently held; safe from any goroutine.
func (l *Ledger) InFlight() int64 { return l.n.Load() }

// Pipe returns a connected pair of buffered duplex streams. It is where
// the transport contract of the emulated control plane is kept: Write
// never blocks (the buffer grows as needed, like a kernel socket pair
// with ample buffers), each Write lands whole and in call order, and
// what was written before Close is still read before EOF. BGP sessions
// and OpenFlow connections rely on it — they write on whatever goroutine
// produced the message, the engine goroutine included, with no queue or
// writer goroutine of their own.
//
// Each direction keeps its unread bytes in a FIFO of small pooled chunks:
// a backlog grows a chunk at a time without copying what it holds, and a
// direction its reader has drained holds no chunk at all.
func Pipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	return new(Ledger).Pipe() // a ledger nobody reads
}

// Pipe is the package-level Pipe with each direction's deliveries
// counted on l. A direction holds one token from its creation, its first
// unread byte, or its writer's Close, until its reader parks in Read on
// an empty buffer or closes its own end:
//
//   - creation, because a session writes OPEN/HELLO before either reader
//     goroutine has run;
//   - "reader parked", not "buffer empty", because a reader that drained
//     the buffer is still deciding what to send back;
//   - the writer's Close, because EOF is one more delivery the reader
//     reacts to (a BGP session withdraws the peer's routes), finished
//     when the reader closes its own end.
//
// A direction nobody reads keeps its token; the clock then waits out
// sim.Config.QuietTimeout as it always did.
func (l *Ledger) Pipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	ab := newHalf(l)
	ba := newHalf(l)
	return &pipeEnd{r: ab, w: ba}, &pipeEnd{r: ba, w: ab}
}

// half is one direction of a pipe: an unbounded FIFO byte buffer.
type half struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    FIFO // the unread bytes
	closed bool // by either end: writes fail, reads drain then EOF

	ledger *Ledger
	held   bool // this direction's token is out
}

func newHalf(l *Ledger) *half {
	h := &half{ledger: l}
	h.cond = sync.NewCond(&h.mu)
	h.hold()
	return h
}

// hold and release move this direction's one token; h.mu held (or h not
// yet shared).
func (h *half) hold() {
	if !h.held {
		h.held = true
		h.ledger.Hold()
	}
}

func (h *half) release() {
	if h.held {
		h.held = false
		h.ledger.Release()
	}
}

func (h *half) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, io.ErrClosedPipe
	}
	h.buf.Write(p)
	h.hold()
	h.cond.Broadcast()
	return len(p), nil
}

func (h *half) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.buf.Len() == 0 && !h.closed {
		h.release() // parked: whatever was delivered has been dealt with
		h.cond.Wait()
	}
	if h.buf.Len() == 0 {
		return 0, io.EOF
	}
	return h.buf.Read(p), nil
}

// closeWrite is Close on the writing end: EOF is the last delivery —
// unless the reader closed first, in which case nobody is left to get it.
func (h *half) closeWrite() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		h.hold()
	}
	h.cond.Broadcast()
	h.mu.Unlock()
}

// closeRead is Close on the reading end: nothing is delivered any more.
func (h *half) closeRead() {
	h.mu.Lock()
	h.closed = true
	h.release()
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
	p.r.closeRead()
	p.w.closeWrite()
	return nil
}
