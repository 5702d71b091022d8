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
// settles on one buffer: once warm, a cycle allocates nothing.
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
	cycle() // warm-up: the buffer grows to its working size
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocations per write-then-drain cycle, want 0", allocs)
	}
}

// TestPipeCompactsBehindSlowReader: a reader that never quite catches up
// does not make the buffer carry what it has already read.
func TestPipeCompactsBehindSlowReader(t *testing.T) {
	w, r := Pipe()
	msg := bytes.Repeat([]byte("u"), 1024)
	buf := make([]byte, len(msg))
	_, _ = w.Write(msg)
	for i := 0; i < 10000; i++ { // always one message behind
		if _, err := w.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, buf); err != nil || !bytes.Equal(buf, msg) {
			t.Fatalf("cycle %d: read %v", i, err)
		}
	}
	if c := cap(w.(*pipeEnd).w.buf); c > 16*len(msg) {
		t.Fatalf("buffer grew to %d bytes behind a reader at most %d behind", c, 2*len(msg))
	}
}
