package emu

import "sync"

// chunkSize is the size of one FIFO chunk: small, so that the thousand or
// so pipe halves of a large run hold little between messages, and large
// enough that a FLOW_MOD or an UPDATE rarely spans two.
const chunkSize = 2 << 10

type chunk [chunkSize]byte

// reserveSize is how many freed chunks wait in chunks.free: enough for the
// messages in flight on every channel of a run between two backlogs.
const reserveSize = 64

// chunks is shared by every FIFO: a backlog one pipe built and drained is
// the next one's, in this run or the next. The first reserveSize chunks
// given back wait in a plain list, which neither a GC nor the race
// detector empties, so a channel's steady write-then-drain cycle never
// allocates; the rest of a backlog goes to a sync.Pool, which keeps it for
// the next backlog until the GC takes the memory back.
var chunks struct {
	mu   sync.Mutex
	free []*chunk
	pool sync.Pool
}

func getChunk() *chunk {
	chunks.mu.Lock()
	if n := len(chunks.free); n > 0 {
		c := chunks.free[n-1]
		chunks.free = chunks.free[:n-1]
		chunks.mu.Unlock()
		return c
	}
	chunks.mu.Unlock()
	if c, ok := chunks.pool.Get().(*chunk); ok {
		return c
	}
	return new(chunk)
}

func putChunk(c *chunk) {
	chunks.mu.Lock()
	if len(chunks.free) < reserveSize {
		chunks.free = append(chunks.free, c)
		chunks.mu.Unlock()
		return
	}
	chunks.mu.Unlock()
	chunks.pool.Put(c)
}

// FIFO is an unbounded byte queue kept in small pooled chunks. A byte
// written is read once, in write order. Its storage follows what is
// unread: a chunk is given back as soon as its last byte is read, so a
// drained FIFO holds no chunk, and a backlog is never copied to grow.
// The zero value is empty and ready to use; a FIFO is not safe for
// concurrent use.
type FIFO struct {
	chunks []*chunk // chunks[head:] hold the unread bytes, oldest first
	head   int
	r      int // read offset in chunks[head]
	w      int // write offset in the last chunk
	n      int // unread bytes
}

// Len reports the unread bytes.
func (f *FIFO) Len() int { return f.n }

// Write appends p.
func (f *FIFO) Write(p []byte) {
	f.n += len(p)
	for len(p) > 0 {
		if f.head == len(f.chunks) || f.w == chunkSize {
			f.grow()
		}
		k := copy(f.chunks[len(f.chunks)-1][f.w:], p)
		f.w += k
		p = p[k:]
	}
}

// grow appends an empty chunk. Out of room behind chunks already read, it
// moves the live ones down rather than carry the dead slots into a bigger
// array, so the list, like the bytes, follows what is unread.
func (f *FIFO) grow() {
	if len(f.chunks) == cap(f.chunks) && f.head > 0 {
		k := copy(f.chunks, f.chunks[f.head:])
		clear(f.chunks[k:])
		f.chunks, f.head = f.chunks[:k], 0
	}
	f.chunks = append(f.chunks, getChunk())
	f.w = 0
}

// Read moves up to len(p) unread bytes into p and reports how many.
func (f *FIFO) Read(p []byte) int {
	n := 0
	for n < len(p) && f.n > 0 {
		end := chunkSize
		if f.head == len(f.chunks)-1 {
			end = f.w
		}
		k := copy(p[n:], f.chunks[f.head][f.r:end])
		n, f.r, f.n = n+k, f.r+k, f.n-k
		if f.r == end {
			f.release()
		}
	}
	return n
}

// release gives back the fully read first chunk.
func (f *FIFO) release() {
	putChunk(f.chunks[f.head])
	f.chunks[f.head] = nil
	f.head++
	f.r = 0
	if f.head == len(f.chunks) {
		f.chunks, f.head = f.chunks[:0], 0
	}
}
