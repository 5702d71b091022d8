package cm

import (
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// captureManager wires a Manager with a capture sink.
func captureManager(t *testing.T) (*Manager, *capture.Capture) {
	t.Helper()
	g, err := topo.Star(2, topo.Switch, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := New(newEngine(), netmodel.New(g), nil)
	t.Cleanup(m.Stop)
	c, err := capture.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m.SetCapture(c)
	return m, c
}

// capturedPipe opens a BGP capture session named pair and returns the
// two ends of a (possibly delayed) tapped pipe recorded by it.
func capturedPipe(t *testing.T, m *Manager, c *capture.Capture, pair string, delay core.Time) (io.ReadWriteCloser, io.ReadWriteCloser) {
	t.Helper()
	sess, err := c.Session(pair,
		capture.Endpoint{Name: "a", MAC: core.MACFromUint64(1), IP: netip.MustParseAddr("10.0.0.1")},
		capture.Endpoint{Name: "b", MAC: core.MACFromUint64(2), IP: netip.MustParseAddr("10.0.0.2"), Port: capture.PortBGP},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m.tappedPipe(delay, delay, sess)
}

// captureFixture wires a Manager with a capture sink and one session
// over a (possibly delayed) tapped pipe.
func captureFixture(t *testing.T, delay core.Time) (*sim.Engine, io.ReadWriteCloser, *capture.Capture, string) {
	t.Helper()
	m, c := captureManager(t)
	a, _ := capturedPipe(t, m, c, "pair", delay)
	return m.Engine, a, c, c.Files()[0]
}

// dataPackets returns the delivery timestamps of the payload-bearing
// packets in the trace (the fabricated handshake carries none).
func dataPacketTimes(t *testing.T, path string) []core.Time {
	t.Helper()
	tr, err := capture.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := capture.Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.Time, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, m.Time)
	}
	return out
}

// TestCaptureStampsDeliveryTime pins the tentpole semantics: on a
// latency-delayed control channel the captured timestamp is the
// *delivery* virtual time — the write time plus the link's propagation
// delay — not the write time. The write fires at an exact FTI boundary
// so the expected delivery instant is deterministic.
func TestCaptureStampsDeliveryTime(t *testing.T) {
	const (
		writeAt = 10 * core.Millisecond
		delay   = 7 * core.Millisecond
	)
	engine, a, c, path := captureFixture(t, delay)
	keep := bgp.EncodeKeepalive()
	done := make(chan sim.Stats, 1)
	engine.PostData(func() {
		engine.Schedule(writeAt, func() {
			if _, err := a.Write(keep); err != nil {
				t.Errorf("write: %v", err)
			}
		})
	})
	go func() { done <- engine.Run(100 * core.Millisecond) }()
	<-done
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	times := dataPacketTimes(t, path)
	if len(times) != 1 {
		t.Fatalf("decoded %d messages, want 1", len(times))
	}
	if want := writeAt + delay; times[0] != want {
		t.Errorf("captured delivery time = %v, want write (%v) + propagation (%v) = %v",
			times[0], writeAt, delay, want)
	}
}

// TestCaptureZeroDelayStampsWriteTime is the degenerate case: an
// undelayed channel delivers instantly, so delivery time equals write
// time and the zero-latency trace carries the write's virtual instant.
func TestCaptureZeroDelayStampsWriteTime(t *testing.T) {
	const writeAt = 10 * core.Millisecond
	engine, a, c, path := captureFixture(t, 0)
	keep := bgp.EncodeKeepalive()
	done := make(chan sim.Stats, 1)
	engine.PostData(func() {
		engine.Schedule(writeAt, func() {
			if _, err := a.Write(keep); err != nil {
				t.Errorf("write: %v", err)
			}
		})
	})
	go func() { done <- engine.Run(100 * core.Millisecond) }()
	<-done
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	times := dataPacketTimes(t, path)
	if len(times) != 1 {
		t.Fatalf("decoded %d messages, want 1", len(times))
	}
	if times[0] != writeAt {
		t.Errorf("captured delivery time = %v, want write time %v (zero propagation)", times[0], writeAt)
	}
}

// TestUndelayedCaptureAllocatesNothing: once the pipe and the capture's
// frame buffer are warm, a tapped write with a capture session, read by
// its peer, allocates nothing — the writer records the bytes it wrote,
// with no copy and no post.
func TestUndelayedCaptureAllocatesNothing(t *testing.T) {
	m, c := captureManager(t)
	defer c.Close()
	// An ended run drops the write's control notice; the inbox's own
	// reuse is sim's to test.
	m.Engine.Run(0)
	a, b := capturedPipe(t, m, c, "pair", 0)
	keep := bgp.EncodeKeepalive()
	buf := make([]byte, len(keep))
	cycle := func() {
		if _, err := a.Write(keep); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: the handshake, the pipe and the frame buffer
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a captured tapped write allocates %v times, want 0", allocs)
	}
	if n := m.Stats.ControlWrites.Load(); n != 1002 {
		t.Fatalf("counted %d writes, want 1002", n)
	}
}

// TestConcurrentWriterSideCapture: several speakers write at once, each
// on its own captured channel, half of them delayed, while the engine
// advances. The trace validates — file order is time order — and no
// record is stamped before the virtual time of its write plus its
// channel's delay.
func TestConcurrentWriterSideCapture(t *testing.T) {
	const writers, msgs = 6, 200
	m, c := captureManager(t)
	engine := m.Engine
	keep := bgp.EncodeKeepalive()
	delays := make([]core.Time, writers)
	writeAt := make([][]core.Time, writers)
	type channel struct{ a, b io.ReadWriteCloser }
	chans := make([]channel, writers)
	for w := range chans {
		if w%2 == 1 {
			delays[w] = core.Time(w) * core.Millisecond
		}
		a, b := capturedPipe(t, m, c, fmt.Sprintf("pair-%d", w), delays[w])
		chans[w] = channel{a, b}
	}
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		engine.Run(core.MaxTime)
	}()
	var wg sync.WaitGroup
	for w, ch := range chans {
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := make([]byte, msgs*len(keep))
			if _, err := io.ReadFull(ch.b, buf); err != nil {
				t.Errorf("writer %d's peer: %v", w, err)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				writeAt[w] = append(writeAt[w], engine.NowExternal())
				if _, err := ch.a.Write(keep); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%20 == 0 {
					time.Sleep(100 * time.Microsecond) // let virtual time pass
				}
			}
		}()
	}
	wg.Wait()
	engine.Stop()
	<-ran
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := capture.ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := capture.Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	stamps := make([][]core.Time, writers)
	for _, msg := range got {
		stamps[msg.Interface] = append(stamps[msg.Interface], msg.Time)
	}
	for w := range stamps {
		if !strings.HasPrefix(tr.Interfaces[w], fmt.Sprintf("pair-%d ", w)) {
			t.Fatalf("interface %d is %q, want writer %d's session", w, tr.Interfaces[w], w)
		}
		if len(stamps[w]) != msgs {
			t.Fatalf("writer %d: %d messages captured, want %d", w, len(stamps[w]), msgs)
		}
		for i, at := range stamps[w] {
			if want := writeAt[w][i] + delays[w]; at < want {
				t.Fatalf("writer %d message %d stamped %v, before its write at %v plus delay %v",
					w, i, at, writeAt[w][i], delays[w])
			}
		}
	}
}
