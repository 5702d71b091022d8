package emu

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	go func() {
		_, _ = a.Write([]byte("hello"))
	}()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
}

func TestPipeBidirectional(t *testing.T) {
	a, b := Pipe()
	if _, err := a.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	_, _ = io.ReadFull(b, buf)
	if string(buf) != "ping" {
		t.Fatalf("b read %q", buf)
	}
	_, _ = io.ReadFull(a, buf)
	if string(buf) != "pong" {
		t.Fatalf("a read %q", buf)
	}
}

func TestPipeWritesNeverBlock(t *testing.T) {
	// Unlike net.Pipe, both sides can write large amounts with no
	// reader present; this is what prevents control plane lockstep.
	a, b := Pipe()
	big := bytes.Repeat([]byte("x"), 1<<20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := a.Write(big); err != nil {
			t.Errorf("a write: %v", err)
		}
		if _, err := b.Write(big); err != nil {
			t.Errorf("b write: %v", err)
		}
	}()
	<-done
	buf := make([]byte, len(big))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(a, buf); err != nil {
		t.Fatal(err)
	}
}

func TestPipeCloseUnblocksReader(t *testing.T) {
	a, b := Pipe()
	errs := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		errs <- err
	}()
	_ = a.Close()
	if err := <-errs; err != io.EOF {
		t.Fatalf("read after close = %v, want EOF", err)
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestPipeDrainAfterClose(t *testing.T) {
	// Bytes written before close must still be readable (like TCP FIN).
	a, b := Pipe()
	_, _ = a.Write([]byte("tail"))
	_ = a.Close()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(b, buf); err != nil || string(buf) != "tail" {
		t.Fatalf("drain = %q, %v", buf, err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("after drain = %v, want EOF", err)
	}
}

func TestPipeConcurrentWriters(t *testing.T) {
	a, b := Pipe()
	var wg sync.WaitGroup
	const writers = 8
	const each = 1000
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := a.Write([]byte("m")); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	buf := make([]byte, writers*each)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
}

// TestPipeReusesBufferWhenDrained: a direction that is written, read to
// empty and written again — what every control channel does all run long —
// takes its chunks from the shared reserve and gives them back: once warm,
// a cycle allocates nothing, under the race detector too.
func TestPipeReusesBufferWhenDrained(t *testing.T) {
	w, r := Pipe()
	msg := bytes.Repeat([]byte("u"), 4096)
	buf := make([]byte, 1500) // several reads per message, like a framed reader
	cycle := func() {
		for i := 0; i < 3; i++ {
			if _, err := w.Write(msg); err != nil {
				t.Fatal(err)
			}
		}
		for left := 3 * len(msg); left > 0; {
			n, err := r.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			left -= n
		}
	}
	cycle() // warm-up: the chunk list grows to its working size
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocations per write-then-drain cycle, want 0", allocs)
	}
}

// held reports the chunks a direction holds and the slots of its chunk
// list.
func held(end io.ReadWriteCloser) (chunks, slots int) {
	f := &end.(*pipeEnd).w.buf
	return len(f.chunks) - f.head, cap(f.chunks)
}

// TestPipeCompactsBehindSlowReader: a reader that never quite catches up
// leaves held only the chunks its unread bytes span, and the chunk list
// does not carry the slots of chunks already read.
func TestPipeCompactsBehindSlowReader(t *testing.T) {
	w, r := Pipe()
	msg := bytes.Repeat([]byte("u"), 1024)
	buf := make([]byte, len(msg))
	_, _ = w.Write(msg)
	most := 0
	for i := 0; i < 10000; i++ { // always one message behind
		if _, err := w.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, buf); err != nil || !bytes.Equal(buf, msg) {
			t.Fatalf("cycle %d: read %v", i, err)
		}
		chunks, slots := held(w)
		if chunks > 2 {
			t.Fatalf("cycle %d: %d chunks held behind a reader one %d-byte message behind", i, chunks, len(msg))
		}
		most = max(most, slots)
	}
	if most > 8 {
		t.Fatalf("chunk list grew to %d slots behind a reader at most 2 chunks behind", most)
	}
}

// TestPipeDrainedHalfHoldsNoChunk: a direction read to empty gives every
// chunk back, whatever it carried, so the pipes of a large run hold memory
// only for what is in flight.
func TestPipeDrainedHalfHoldsNoChunk(t *testing.T) {
	w, r := Pipe()
	for _, size := range []int{1, chunkSize - 1, chunkSize, 5*chunkSize + 3} {
		msg := bytes.Repeat([]byte("d"), size)
		if _, err := w.Write(msg); err != nil {
			t.Fatal(err)
		}
		if chunks, _ := held(w); chunks != (size+chunkSize-1)/chunkSize {
			t.Fatalf("%d bytes unread in %d chunks", size, chunks)
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(r, buf); err != nil || !bytes.Equal(buf, msg) {
			t.Fatalf("read back %d bytes: %v", size, err)
		}
		if chunks, _ := held(w); chunks != 0 {
			t.Fatalf("drained after %d bytes, the direction holds %d chunks", size, chunks)
		}
	}
}

// TestFIFOKeepsOrderAcrossChunks: writes and reads of sizes that straddle
// chunk boundaries read back the bytes written, in order.
func TestFIFOKeepsOrderAcrossChunks(t *testing.T) {
	var f FIFO
	var want, got []byte
	next := byte(0)
	buf := make([]byte, 3*chunkSize)
	for i := 0; i < 200; i++ {
		p := make([]byte, (i*977)%(2*chunkSize)+1)
		for j := range p {
			p[j], next = next, next+1
		}
		f.Write(p)
		want = append(want, p...)
		n := f.Read(buf[:(i*1237)%(3*chunkSize)])
		got = append(got, buf[:n]...)
		if f.Len() != len(want)-len(got) {
			t.Fatalf("step %d: Len %d, want %d", i, f.Len(), len(want)-len(got))
		}
	}
	for f.Len() > 0 {
		got = append(got, buf[:f.Read(buf)]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes read back differ from the bytes written")
	}
	if len(f.chunks) != 0 {
		t.Fatalf("drained FIFO holds %d chunks", len(f.chunks))
	}
}
