package emu

import (
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitInFlight polls until the ledger reads want: a reader gives its
// token back when it parks, which the test cannot observe directly.
func waitInFlight(t *testing.T, l *Ledger, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.InFlight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("in flight = %d, want %d", l.InFlight(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// readInto reads rw in a loop and hands every result to out; the send
// blocks, so between a delivery and the test receiving it the reader is
// "still deciding" — awake, not parked in Read.
func readInto(rw io.Reader, out chan<- string) {
	buf := make([]byte, 16)
	for {
		n, err := rw.Read(buf)
		if err != nil {
			out <- err.Error()
			return
		}
		out <- string(buf[:n])
	}
}

// TestLedgerTokenLifecycle walks one pipe through every event that takes
// or returns a direction's token.
func TestLedgerTokenLifecycle(t *testing.T) {
	var l Ledger
	a, b := l.Pipe()
	if got := l.InFlight(); got != 2 {
		t.Fatalf("fresh pipe: in flight = %d, want 2 (one per direction, held from creation)", got)
	}
	gotA, gotB := make(chan string), make(chan string)
	go readInto(a, gotA)
	go readInto(b, gotB)
	waitInFlight(t, &l, 0) // both readers parked on empty buffers

	// A write takes the token; the reader having drained the buffer does
	// not return it, parking does.
	if _, err := a.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got := l.InFlight(); got != 1 {
		t.Fatalf("after write: in flight = %d, want 1", got)
	}
	// Until the test receives, b's reader is blocked outside Read.
	time.Sleep(2 * time.Millisecond)
	if got := l.InFlight(); got != 1 {
		t.Fatalf("reader awake with an empty buffer: in flight = %d, want 1", got)
	}
	if s := <-gotB; s != "ping" {
		t.Fatalf("b read %q", s)
	}
	waitInFlight(t, &l, 0)

	// More writes while the token is out take no second one.
	_, _ = a.Write([]byte("x"))
	_, _ = a.Write([]byte("y"))
	if got := l.InFlight(); got != 1 {
		t.Fatalf("two writes, one direction: in flight = %d, want 1", got)
	}
	for read := 0; read < 2; {
		read += len(<-gotB)
	}
	waitInFlight(t, &l, 0)

	// The writer's Close is one more delivery (EOF), held until the
	// reader closes its own end; the closing end's own read direction
	// delivers nothing any more.
	_ = a.Close()
	if s := <-gotA; s != io.EOF.Error() {
		t.Fatalf("a's reader after own Close: %q", s)
	}
	if s := <-gotB; s != io.EOF.Error() {
		t.Fatalf("b's reader after peer Close: %q", s)
	}
	if got := l.InFlight(); got != 1 {
		t.Fatalf("after peer Close, before own: in flight = %d, want 1", got)
	}
	_ = b.Close()
	if got := l.InFlight(); got != 0 {
		t.Fatalf("both ends closed: in flight = %d, want 0", got)
	}

	// Nothing after that moves the count: repeated closes, failed writes,
	// reads at EOF.
	_ = a.Close()
	_ = b.Close()
	if _, err := a.Write([]byte("late")); err == nil {
		t.Fatal("write after close succeeded")
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after close = %v, want EOF", err)
	}
	if got := l.InFlight(); got != 0 {
		t.Fatalf("after closed-pipe traffic: in flight = %d, want 0", got)
	}
}

// TestLedgerOwnCloseReleasesUnread: closing an end returns the token of
// what was delivered to it and never read, creation token included.
func TestLedgerOwnCloseReleasesUnread(t *testing.T) {
	var l Ledger
	a, b := l.Pipe()
	_, _ = a.Write([]byte("never read"))
	_ = b.Close() // b's inbound direction released, its outbound delivers EOF to a
	if got := l.InFlight(); got != 1 {
		t.Fatalf("in flight = %d, want 1 (a has not seen EOF)", got)
	}
	_ = a.Close()
	if got := l.InFlight(); got != 0 {
		t.Fatalf("in flight = %d, want 0", got)
	}
}

// TestLedgerStress: concurrent writers, readers and closers on many
// pipes of one ledger. The count stays within [0, 2·pipes] throughout and
// is exactly 0 once every end is closed. Run with -race.
func TestLedgerStress(t *testing.T) {
	const pipes = 16
	var l Ledger
	var bad atomic.Int64
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := l.InFlight(); n < 0 || n > 2*pipes {
				bad.Store(n)
				return
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < pipes; i++ {
		a, b := l.Pipe()
		rng := rand.New(rand.NewSource(int64(i)))
		for _, end := range []io.ReadWriteCloser{a, b} {
			end := end
			// Reader: drain until EOF, then close the own end — what a
			// session or connection reader does.
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 64)
				for {
					if _, err := end.Read(buf); err != nil {
						_ = end.Close()
						return
					}
				}
			}()
			// Two writers per end, writing until the pipe closes (or
			// they have said enough).
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					msg := []byte("control message")
					for i := 0; i < 2000; i++ {
						if _, err := end.Write(msg); err != nil {
							return
						}
					}
				}()
			}
		}
		// Closer: one end, chosen and timed per pipe.
		victim, after := a, time.Duration(rng.Intn(3000))*time.Microsecond
		if rng.Intn(2) == 0 {
			victim = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(after)
			_ = victim.Close()
		}()
	}
	wg.Wait()
	close(stop)
	watcher.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("in flight read %d during the run, want within [0, %d]", n, 2*pipes)
	}
	if got := l.InFlight(); got != 0 {
		t.Fatalf("every end closed: in flight = %d, want 0", got)
	}
}
