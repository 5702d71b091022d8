package sim

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// quiescenceConfig starts in FTI with a quiet timeout far beyond the
// settle, so which rule ended FTI shows in how much virtual time it took.
func quiescenceConfig() Config {
	cfg := fast()
	cfg.StartInFTI = true
	cfg.QuietTimeout = 50 * core.Millisecond
	return cfg
}

// keepBusy keeps the event queue non-empty so DES never idles out.
func keepBusy(e *Engine) {
	var tick func()
	tick = func() { e.After(10*core.Millisecond, tick) }
	e.Schedule(0, tick)
}

const settle = settleSteps * core.Millisecond // at fast()'s 1ms FTIStep

func TestEvidenceExitAfterSettle(t *testing.T) {
	e := New(quiescenceConfig())
	e.SetInFlight(func() int64 { return 0 })
	keepBusy(e)
	st := e.Run(core.Second)
	if st.EvidenceExits != 1 || st.TimeoutExits != 0 || st.Transitions != 1 {
		t.Fatalf("exits: %d on evidence, %d on timeout, %d transitions; want 1, 0, 1",
			st.EvidenceExits, st.TimeoutExits, st.Transitions)
	}
	if st.VirtualFTI != settle {
		t.Fatalf("VirtualFTI = %v, want the settle (%v)", st.VirtualFTI, settle)
	}
}

func TestEvidenceHoldsFTIWhileInFlight(t *testing.T) {
	var inFlight atomic.Int64
	inFlight.Store(2)
	e := New(quiescenceConfig())
	e.SetInFlight(inFlight.Load)
	keepBusy(e)
	// The last token comes back at 20ms: long after the settle, long
	// before the quiet timeout.
	const clearsAt = 20 * core.Millisecond
	e.Schedule(clearsAt/2, func() { inFlight.Add(-1) })
	e.Schedule(clearsAt, func() { inFlight.Add(-1) })
	st := e.Run(core.Second)
	if st.EvidenceExits != 1 || st.TimeoutExits != 0 {
		t.Fatalf("exits: %d on evidence, %d on timeout; want 1, 0", st.EvidenceExits, st.TimeoutExits)
	}
	if st.VirtualFTI < clearsAt || st.VirtualFTI > clearsAt+core.Millisecond {
		t.Fatalf("VirtualFTI = %v, want the increment the ledger cleared in (%v)", st.VirtualFTI, clearsAt)
	}
}

// TestQuietTimeoutIsTheFallback: a token that never comes back degrades
// to the quiet timeout, never to an early exit; and without SetInFlight
// the quiet timeout is the only exit, as it always was.
func TestQuietTimeoutIsTheFallback(t *testing.T) {
	for _, tc := range []struct {
		name     string
		inFlight func() int64
	}{
		{"leaked token", func() int64 { return 1 }},
		{"no ledger", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quiescenceConfig()
			e := New(cfg)
			if tc.inFlight != nil {
				e.SetInFlight(tc.inFlight)
			}
			keepBusy(e)
			st := e.Run(core.Second)
			if st.EvidenceExits != 0 || st.TimeoutExits != 1 {
				t.Fatalf("exits: %d on evidence, %d on timeout; want 0, 1", st.EvidenceExits, st.TimeoutExits)
			}
			if st.VirtualFTI != cfg.QuietTimeout {
				t.Fatalf("VirtualFTI = %v, want the quiet timeout (%v)", st.VirtualFTI, cfg.QuietTimeout)
			}
		})
	}
}

// TestEvidenceIgnoredWhileInboxHoldsAPost: a control plane goroutine
// posts to the engine and then parks, so the ledger can read zero while
// its last product is still in the inbox. Here the reading itself makes
// that post, which lands exactly between the engine's two reads: read in
// the right order (ledger, then inbox) the engine sees it and stays one
// more increment; in the wrong order it would leave at the settle.
func TestEvidenceIgnoredWhileInboxHoldsAPost(t *testing.T) {
	e := New(quiescenceConfig())
	var handledAt core.Time = -1
	posted := false
	e.SetInFlight(func() int64 {
		if !posted {
			posted = true
			e.PostData(func() { handledAt = e.Now() })
		}
		return 0
	})
	keepBusy(e)
	st := e.Run(core.Second)
	if handledAt != settle {
		t.Fatalf("post handled at %v, want %v (still inside FTI)", handledAt, settle)
	}
	if st.VirtualFTI != settle+core.Millisecond {
		t.Fatalf("VirtualFTI = %v, want %v: one increment past the settle", st.VirtualFTI, settle+core.Millisecond)
	}
	if st.EvidenceExits != 1 || st.TimeoutExits != 0 {
		t.Fatalf("exits: %d on evidence, %d on timeout; want 1, 0", st.EvidenceExits, st.TimeoutExits)
	}
}

func TestControlActivityRestartsTheSettle(t *testing.T) {
	e := New(quiescenceConfig())
	e.SetInFlight(func() int64 { return 0 })
	keepBusy(e)
	// Control activity every 2ms — inside the settle — for 20ms.
	const last = 20 * core.Millisecond
	var mark func()
	mark = func() {
		e.MarkControl()
		if e.Now() < last {
			e.After(2*core.Millisecond, mark)
		}
	}
	e.Schedule(0, mark)
	st := e.Run(core.Second)
	if st.Transitions != 1 || st.EvidenceExits != 1 {
		t.Fatalf("%d transitions, %d evidence exits; want one exit, after the burst", st.Transitions, st.EvidenceExits)
	}
	if st.VirtualFTI != last+settle {
		t.Fatalf("VirtualFTI = %v, want %v", st.VirtualFTI, last+settle)
	}
}
