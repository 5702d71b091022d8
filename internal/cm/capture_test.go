package cm

import (
	"io"
	"net/netip"
	"testing"

	"repro/internal/bgp"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// captureFixture wires a Manager with a capture sink and one session
// over a (possibly delayed) tapped pipe.
func captureFixture(t *testing.T, delay core.Time) (*sim.Engine, io.ReadWriteCloser, *capture.Capture, string) {
	t.Helper()
	g, err := topo.Star(2, topo.Switch, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine()
	m := New(engine, netmodel.New(g), nil)
	t.Cleanup(m.Stop)
	c, err := capture.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m.SetCapture(c)
	sess, err := c.Session("pair",
		capture.Endpoint{Name: "a", MAC: core.MACFromUint64(1), IP: netip.MustParseAddr("10.0.0.1")},
		capture.Endpoint{Name: "b", MAC: core.MACFromUint64(2), IP: netip.MustParseAddr("10.0.0.2"), Port: capture.PortBGP},
	)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.tappedPipe(delay, delay, sess)
	return engine, a, c, c.Files()[0]
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
