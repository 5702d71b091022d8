package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

// fast returns a config that never sleeps long, for unit tests.
func fast() Config {
	return Config{
		QuietTimeout: 5 * core.Millisecond,
		Pacing:       1000, // 1ms virtual costs 1µs wall
		MaxIdleWall:  50 * time.Millisecond,
	}
}

func TestDESOrdering(t *testing.T) {
	e := New(fast())
	var got []core.Time
	for _, at := range []core.Time{5 * core.Second, core.Second, 3 * core.Second} {
		at := at
		e.Schedule(at, func() { got = append(got, e.Now()) })
	}
	st := e.Run(10 * core.Second)
	want := []core.Time{core.Second, 3 * core.Second, 5 * core.Second}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
	if st.Events != 3 {
		t.Errorf("Stats.Events = %d, want 3", st.Events)
	}
	if st.VirtualEnd != 10*core.Second {
		t.Errorf("VirtualEnd = %v, want 10s", st.VirtualEnd)
	}
}

func TestDESSameTimestampFIFO(t *testing.T) {
	e := New(fast())
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(core.Second, func() { got = append(got, i) })
	}
	e.Run(2 * core.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events out of order: %v", got)
		}
	}
}

func TestDESFastForward(t *testing.T) {
	// An hour of idle virtual time must cost almost no wall time in DES.
	e := New(fast())
	fired := false
	e.Schedule(core.Time(3600)*core.Second, func() { fired = true })
	start := time.Now()
	e.Run(core.Time(3600) * core.Second)
	if !fired {
		t.Fatal("event did not fire")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("DES fast-forward took %v wall time", wall)
	}
}

func TestLateEventClamped(t *testing.T) {
	e := New(fast())
	var at core.Time = -1
	e.Schedule(core.Second, func() {
		// Scheduling in the past must clamp to now, not go backwards.
		e.Schedule(0, func() { at = e.Now() })
	})
	st := e.Run(2 * core.Second)
	if at != core.Second {
		t.Fatalf("late event ran at %v, want 1s", at)
	}
	if st.LateEvents != 1 {
		t.Fatalf("LateEvents = %d, want 1", st.LateEvents)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New(fast())
	var at core.Time
	e.Schedule(core.Second, func() {
		e.After(500*core.Millisecond, func() { at = e.Now() })
	})
	e.Run(3 * core.Second)
	if at != 1500*core.Millisecond {
		t.Fatalf("After fired at %v, want 1.5s", at)
	}
}

func TestControlPostTriggersFTI(t *testing.T) {
	var transitions []Mode
	cfg := fast()
	cfg.OnModeChange = func(from, to Mode, at core.Time) { transitions = append(transitions, to) }
	e := New(cfg)

	// Keep the queue non-empty so DES has something to chew on.
	var tick func()
	tick = func() { e.After(core.Second, tick) }
	e.Schedule(core.Second, tick)

	// Inject a control event from "outside" (the emulated plane). The
	// inbox is buffered, so posting before Run is equivalent to a
	// control packet arriving at experiment start.
	e.Post(func() {})

	st := e.Run(20 * core.Second)
	if st.ControlPosts != 1 {
		t.Fatalf("ControlPosts = %d, want 1", st.ControlPosts)
	}
	if st.Transitions < 2 {
		t.Fatalf("Transitions = %d, want >= 2 (DES->FTI->DES)", st.Transitions)
	}
	if len(transitions) < 2 || transitions[0] != FTI || transitions[1] != DES {
		t.Fatalf("mode sequence = %v, want [FTI DES ...]", transitions)
	}
	if st.VirtualFTI < cfg.QuietTimeout {
		t.Fatalf("VirtualFTI = %v, want >= quiet timeout %v", st.VirtualFTI, cfg.QuietTimeout)
	}
}

func TestQuietTimeoutReturnsToDES(t *testing.T) {
	cfg := fast()
	cfg.QuietTimeout = 3 * core.Millisecond
	e := New(cfg)
	var tick func()
	tick = func() { e.After(core.Millisecond, tick) }
	e.Schedule(0, tick)

	done := make(chan Stats, 1)
	go func() { done <- e.Run(core.MaxTime) }()
	e.Post(func() {})
	time.Sleep(20 * time.Millisecond)
	m, ok := Call(e, false, func() Mode { return e.Mode() })
	if !ok {
		t.Fatal("probe did not run")
	}
	if m != DES {
		t.Fatalf("mode after quiet period = %v, want DES", m)
	}
	e.Stop()
	st := <-done
	if st.Transitions%2 != 0 {
		t.Fatalf("odd number of transitions %d; should end in DES", st.Transitions)
	}
}

func TestRepeatedControlKeepsFTI(t *testing.T) {
	cfg := fast()
	// The quiet period must outlast the gap between posts in wall time by
	// construction (200ms virtual at pacing 10 is 20ms against a 2ms gap,
	// room for a loaded machine to stretch the sleeps), not because the
	// runtime happens to round sub-millisecond sleeps up.
	cfg.QuietTimeout = 200 * core.Millisecond
	cfg.Pacing = 10
	e := New(cfg)
	var tick func()
	tick = func() { e.After(core.Millisecond, tick) }
	e.Schedule(0, tick)

	done := make(chan Stats, 1)
	go func() { done <- e.Run(5 * core.Second) }()
	// A burst of control activity: engine must not flap back to DES
	// between posts.
	for i := 0; i < 10; i++ {
		e.Post(func() {})
		time.Sleep(2 * time.Millisecond)
	}
	st := <-done
	if st.ControlPosts != 10 {
		t.Fatalf("ControlPosts = %d, want 10", st.ControlPosts)
	}
	// One DES->FTI ... FTI->DES pair; possibly a couple more if pacing
	// outruns the posts, but far fewer than one pair per post.
	if st.Transitions > 6 {
		t.Fatalf("mode flapping: %d transitions for one burst", st.Transitions)
	}
}

func TestStopEndsRun(t *testing.T) {
	e := New(fast())
	var tick func()
	tick = func() { e.After(core.Millisecond, tick) }
	e.Schedule(0, tick)
	done := make(chan Stats, 1)
	go func() { done <- e.Run(core.MaxTime) }()
	time.Sleep(5 * time.Millisecond)
	e.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not end the run")
	}
}

func TestIdleShutdown(t *testing.T) {
	cfg := fast()
	cfg.MaxIdleWall = 10 * time.Millisecond
	e := New(cfg)
	start := time.Now()
	st := e.Run(core.MaxTime)
	if !st.EndedIdle {
		t.Fatal("expected idle shutdown")
	}
	if time.Since(start) > time.Second {
		t.Fatal("idle shutdown too slow")
	}
}

func TestPostAfterRunDropped(t *testing.T) {
	e := New(fast())
	e.Run(0)
	// Must not panic or deadlock.
	e.Post(func() { t.Error("post after run executed") })
	e.PostData(func() { t.Error("post after run executed") })
	if _, ok := Call(e, false, func() int { return 7 }); ok {
		t.Fatal("Call after run reported success")
	}
}

// TestSteadyPostAllocatesNothing: once the inbox has grown to its
// working size, posting a pre-bound func that a running engine drains
// allocates nothing — the drained buffer becomes the next one.
func TestSteadyPostAllocatesNothing(t *testing.T) {
	// Unpaced and never quiet, so the engine stays in FTI and never
	// waits on the wall clock.
	steadyPostAllocs(t, 1e12)
}

// TestPacedSteadyPostAllocatesNothing is the paced twin: every post
// wakes the engine from its pacing wait, and each wait reuses the
// engine's one timer.
func TestPacedSteadyPostAllocatesNothing(t *testing.T) {
	steadyPostAllocs(t, 1)
}

// TestSteadyScheduleAllocatesNothing schedules batches of events, some at
// one instant, and runs them: once the queue has grown to the batch's
// depth, neither Schedule nor the run of what it queued allocates, since
// the queue holds its events by value. Every event runs once, in
// (time, schedule) order.
func TestSteadyScheduleAllocatesNothing(t *testing.T) {
	e := New(fast())
	var ran []int
	last := -1
	fns := make([]func(), 8)
	for i := range fns {
		fns[i] = func() {
			if i < last {
				t.Errorf("event at +%d ran after one at +%d", i, last)
			}
			last = i
			ran[i]++
		}
	}
	ran = make([]int, len(fns))
	batch := func() {
		last = -1
		for i := 0; i < 64; i++ {
			at := (i * 5) % len(fns)
			e.Schedule(e.now+core.Time(at), fns[at])
		}
		e.runDue(e.now + core.Time(len(fns)))
	}
	batch()
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Fatalf("a steady Schedule-then-run allocates %v times a batch, want 0", allocs)
	}
	for i, n := range ran {
		if n != 102*64/len(fns) {
			t.Fatalf("event at +%d ran %d times, want %d", i, n, 102*64/len(fns))
		}
	}
}

func steadyPostAllocs(t *testing.T, pacing float64) {
	t.Helper()
	e := New(Config{QuietTimeout: core.MaxTime, Pacing: pacing, StartInFTI: true})
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		e.Run(core.MaxTime)
	}()
	defer func() {
		e.Stop()
		<-ran
	}()
	handled := make(chan struct{}, 1)
	fn := func() {
		handled <- struct{}{}
		// AllocsPerRun runs at GOMAXPROCS 1 and the unpaced engine never
		// blocks: hand the processor back to the poster.
		runtime.Gosched()
	}
	post := func() {
		e.Post(fn)
		<-handled
	}
	if allocs := testing.AllocsPerRun(1000, post); allocs != 0 {
		t.Fatalf("a steady Post allocates %v times, want 0", allocs)
	}
}

func TestCallReturnsValue(t *testing.T) {
	e := New(fast())
	var tick func()
	tick = func() { e.After(core.Millisecond, tick) }
	e.Schedule(0, tick)
	done := make(chan Stats, 1)
	go func() { done <- e.Run(core.MaxTime) }()

	v, ok := Call(e, true, func() int { return 42 })
	if !ok || v != 42 {
		t.Fatalf("Call = %d,%v want 42,true", v, ok)
	}
	e.Stop()
	<-done
}

func TestCallConcurrent(t *testing.T) {
	e := New(fast())
	var tick func()
	counter := 0
	tick = func() { e.After(core.Millisecond, tick) }
	e.Schedule(0, tick)
	done := make(chan Stats, 1)
	go func() { done <- e.Run(core.MaxTime) }()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				// Increment through the engine: all mutations serialize
				// on the engine goroutine, so no data race and no lost
				// updates.
				if _, ok := Call(e, false, func() int { counter++; return counter }); !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	e.Stop()
	<-done
	if counter != 16*50 {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, 16*50)
	}
}

func TestNowExternalMonotonic(t *testing.T) {
	e := New(fast())
	var tick func()
	tick = func() { e.After(core.Millisecond, tick) }
	e.Schedule(0, tick)
	done := make(chan Stats, 1)
	go func() { done <- e.Run(core.Second) }()
	var last core.Time
	for i := 0; i < 100; i++ {
		now := e.NowExternal()
		if now < last {
			t.Fatalf("NowExternal went backwards: %v < %v", now, last)
		}
		last = now
	}
	<-done
}

func TestEventsNeverRunBeforeTheirTime(t *testing.T) {
	// Property: for random schedules, every event observes Now() >= its
	// requested timestamp and the observed sequence is sorted.
	f := func(raw []uint16) bool {
		e := New(fast())
		var fired []core.Time
		var want []core.Time
		for _, r := range raw {
			at := core.Time(r) * core.Microsecond
			want = append(want, at)
			at2 := at
			e.Schedule(at2, func() {
				if e.Now() < at2 {
					t.Errorf("event at %v ran at %v", at2, e.Now())
				}
				fired = append(fired, at2)
			})
		}
		e.Run(core.Time(1<<16) * core.Microsecond)
		if len(fired) != len(want) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapStressRandomInterleaving(t *testing.T) {
	e := New(fast())
	rng := rand.New(rand.NewSource(1))
	count := 0
	// Events that schedule more events, exercising heap growth/shrink.
	var spawn func(depth int)
	spawn = func(depth int) {
		count++
		if depth >= 3 {
			return
		}
		for i := 0; i < 3; i++ {
			d := core.Time(rng.Intn(1000)+1) * core.Microsecond
			e.After(d, func() { spawn(depth + 1) })
		}
	}
	e.Schedule(0, func() { spawn(0) })
	st := e.Run(core.Second)
	want := 1 + 3 + 9 + 27
	if count != want {
		t.Fatalf("executed %d events, want %d", count, want)
	}
	if st.PeakQueueDepth < 3 {
		t.Fatalf("PeakQueueDepth = %d, want >= 3", st.PeakQueueDepth)
	}
}

func TestWallTimeSplitAccounting(t *testing.T) {
	cfg := fast()
	cfg.Pacing = 10 // make FTI cost measurable wall time
	cfg.QuietTimeout = 20 * core.Millisecond
	e := New(cfg)
	var tick func()
	tick = func() { e.After(core.Millisecond, tick) }
	e.Schedule(0, tick)
	done := make(chan Stats, 1)
	go func() { done <- e.Run(core.Second) }()
	e.Post(func() {})
	st := <-done
	if st.WallFTI <= 0 {
		t.Fatalf("WallFTI = %v, want > 0", st.WallFTI)
	}
	if st.VirtualFTI < cfg.QuietTimeout {
		t.Fatalf("VirtualFTI = %v, want >= %v", st.VirtualFTI, cfg.QuietTimeout)
	}
	if st.VirtualDES+st.VirtualFTI != st.VirtualEnd {
		t.Fatalf("virtual split %v+%v != end %v", st.VirtualDES, st.VirtualFTI, st.VirtualEnd)
	}
}

func TestModeString(t *testing.T) {
	if DES.String() != "DES" || FTI.String() != "FTI" {
		t.Fatal("mode strings wrong")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{VirtualEnd: core.Second, Events: 3}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}
