// Package sim implements Horse's hybrid simulation engine: a classic
// discrete event simulator (DES) whose clock can switch into Fixed Time
// Increment (FTI) mode while the emulated control plane is active.
//
// In DES mode the virtual clock jumps directly to the timestamp of the next
// scheduled event. When a control plane event is observed (a BGP message, an
// OpenFlow message, ...) the engine enters FTI mode: virtual time advances
// in small fixed increments paced against the wall clock, reproducing the
// real-time operation the emulated control plane expects. Once the control
// plane is quiescent the engine falls back to DES and fast-forwards again.
// This is the core mechanism of the paper (Section 2, Figure 1). The paper
// infers quiescence from a user-defined quiet period, because its control
// plane is opaque processes; an engine that was given a reading of the
// work in flight (SetInFlight) leaves on that evidence and keeps the quiet
// period as the upper bound.
//
// Threading model: all simulation state is owned by the single goroutine
// that calls Run. Emulated control plane goroutines inject work with Post
// (which also marks control activity) or PostData (which does not). Schedule
// and Now must only be called from inside event callbacks, i.e. on the
// engine goroutine.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Mode is the time-advancement mode of the hybrid clock.
type Mode int

const (
	// DES advances the clock to the next event timestamp.
	DES Mode = iota
	// FTI advances the clock in fixed increments paced to the wall clock.
	FTI
)

func (m Mode) String() string {
	if m == FTI {
		return "FTI"
	}
	return "DES"
}

// Config tunes the hybrid clock.
type Config struct {
	// QuietTimeout is how long (virtual time) the engine stays in FTI
	// after the last control plane event before resuming DES: the exit
	// rule of an engine without SetInFlight, the upper bound of one with
	// it. Default 500ms.
	QuietTimeout core.Time

	// Pacing is the ratio of virtual to wall time in FTI mode.
	// 1.0 (default) reproduces real time, as the paper's control plane
	// emulation requires. Values > 1 accelerate FTI (virtual time runs
	// faster than the wall clock); they keep experiment *shapes* intact
	// but compress control plane timing, so results obtained with
	// Pacing != 1 must be reported as such.
	Pacing float64

	// MaxIdleWall bounds how long Run blocks waiting for external
	// activity when the event queue is empty. When exceeded the engine
	// concludes the experiment is over. Default 2s.
	MaxIdleWall time.Duration

	// StartInFTI makes the run begin in FTI mode, as if a control
	// plane event occurred at time zero. Experiments with an emulated
	// control plane need this: the emulated processes boot in wall
	// time, and a pure-DES start would fast-forward the entire
	// experiment before their first message arrives. The engine drops
	// to DES by the usual rule.
	StartInFTI bool

	// OnModeChange, when non-nil, observes every DES<->FTI transition.
	OnModeChange func(from, to Mode, at core.Time)
}

// ftiStep is the virtual time advanced per FTI increment: 1ms, matching
// the reference implementation.
const ftiStep = core.Millisecond

// settleSteps is how many FTI increments without control activity the
// engine lets pass before it believes an in-flight reading of zero
// (SetInFlight). Work that lives on the engine side for a moment — the
// Connection Manager's reroute flush one increment after a route install,
// whose re-pathed flows may punt PACKET_INs — is in no ledger; the settle
// keeps the clock in FTI across it instead of flapping through DES.
const settleSteps = 3

func (c *Config) setDefaults() {
	if c.QuietTimeout <= 0 {
		c.QuietTimeout = 500 * core.Millisecond
	}
	if c.Pacing <= 0 {
		c.Pacing = 1.0
	}
	if c.MaxIdleWall <= 0 {
		c.MaxIdleWall = 2 * time.Second
	}
}

// Stats summarises a finished run. It is the raw material for Figure 3:
// wall-clock execution time split by mode.
type Stats struct {
	VirtualEnd     core.Time     // final virtual clock value
	WallTotal      time.Duration // total wall time spent in Run
	WallFTI        time.Duration // wall time spent in FTI mode
	WallDES        time.Duration // wall time spent in DES mode (incl. idle waits)
	VirtualFTI     core.Time     // virtual time advanced in FTI mode
	VirtualDES     core.Time     // virtual time advanced in DES mode
	Events         uint64        // events executed
	LateEvents     uint64        // events scheduled in the past (clamped to now)
	ControlPosts   uint64        // external posts flagged as control activity
	Transitions    int           // DES<->FTI mode switches
	EvidenceExits  int           // FTI->DES switches on an in-flight reading of zero (SetInFlight)
	TimeoutExits   int           // FTI->DES switches after QuietTimeout without control activity
	EndedIdle      bool          // run ended because the queue drained and no activity arrived
	PeakQueueDepth int           // high-water mark of the event queue
}

func (s Stats) String() string {
	return fmt.Sprintf("virt=%v wall=%v (FTI %v / DES %v) events=%d control=%d transitions=%d",
		s.VirtualEnd, s.WallTotal.Round(time.Millisecond),
		s.WallFTI.Round(time.Millisecond), s.WallDES.Round(time.Millisecond),
		s.Events, s.ControlPosts, s.Transitions)
}

type event struct {
	at  core.Time
	seq uint64
	fn  func()
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It holds
// the events by value, so a Schedule allocates nothing once the slice has
// grown to the queue's depth.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	if len(*h) == cap(*h) {
		// Double: append grows a large slice by a quarter, and a queue
		// filled up front (a run's flow arrivals) would then copy itself
		// about five times over.
		q := make(eventHeap, len(*h), max(2*cap(*h), 64))
		copy(q, *h)
		*h = q
	}
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes the earliest event and returns it. The vacated slot drops
// its fn, so the queue's spare capacity keeps no closure alive.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && q.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

type external struct {
	fn      func()
	control bool
}

// postQueue is the unbounded inbox for external work. Control plane
// processes must never block posting to the engine: a bounded channel
// deadlocks experiment bootstrap when the emulated plane floods events
// while the engine is not yet (or briefly not) draining.
type postQueue struct {
	mu    sync.Mutex
	q     []external
	spare []external    // the last drained buffer; engine goroutine only
	wake  chan struct{} // capacity 1: wake signal for blocked waits
}

func (p *postQueue) put(x external) {
	p.mu.Lock()
	p.q = append(p.q, x)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

func (p *postQueue) empty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.q) == 0
}

// take returns all queued work; new work queues into the spare buffer,
// which drainInbox refills with the slice once it has run.
func (p *postQueue) take() []external {
	p.mu.Lock()
	q := p.q
	p.q = p.spare
	p.mu.Unlock()
	p.spare = nil
	return q
}

// Engine is the hybrid DES/FTI simulator.
type Engine struct {
	cfg   Config
	now   core.Time
	nowAt atomic.Int64 // mirror of now for NowExternal
	queue eventHeap
	seq   uint64
	inbox postQueue
	mode  Mode

	lastControl core.Time    // virtual timestamp of most recent control activity
	inFlight    func() int64 // control plane work in flight; nil: unknown (see SetInFlight)
	running     atomic.Bool
	stopped     atomic.Bool
	done        chan struct{} // closed when Run returns; Call selects on it
	stats       Stats
	modeEntered time.Time   // wall time current mode was entered
	virtEntered core.Time   // virtual time current mode was entered
	timer       *time.Timer // every wall wait of Run; engine goroutine only
}

// New creates an engine with the given configuration.
func New(cfg Config) *Engine {
	cfg.setDefaults()
	e := &Engine{
		cfg:  cfg,
		done: make(chan struct{}),
		mode: DES,
	}
	e.inbox.wake = make(chan struct{}, 1)
	if cfg.StartInFTI {
		e.mode = FTI
	}
	return e
}

// Now reports the current virtual time. Engine goroutine only.
func (e *Engine) Now() core.Time { return e.now }

// NowExternal reports a recent virtual time snapshot; safe from any
// goroutine. Emulated processes use it to timestamp control events.
func (e *Engine) NowExternal() core.Time { return core.Time(e.nowAt.Load()) }

// Mode reports the current clock mode. Engine goroutine only.
func (e *Engine) Mode() Mode { return e.mode }

// SetInFlight gives the engine a reading of the control plane work still
// in flight (the Connection Manager's emu.Ledger); read is called on the
// engine goroutine. With it the engine leaves FTI on evidence: settleSteps
// increments after the last control activity, once the reading is zero
// and the inbox is empty. A reading that never clears — a leaked token, a
// channel nobody reads — degrades to the QuietTimeout exit, never to an
// early one. Without it QuietTimeout is the only exit. Call before Run.
func (e *Engine) SetInFlight(read func() int64) { e.inFlight = read }

// Schedule queues fn to run at virtual time at. Events scheduled in the
// past run at the current time (and are counted in Stats.LateEvents).
// Engine goroutine only.
func (e *Engine) Schedule(at core.Time, fn func()) {
	if at < e.now {
		at = e.now
		e.stats.LateEvents++
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, fn: fn})
	if len(e.queue) > e.stats.PeakQueueDepth {
		e.stats.PeakQueueDepth = len(e.queue)
	}
}

// After queues fn to run d after the current virtual time.
func (e *Engine) After(d core.Time, fn func()) { e.Schedule(e.now+d, fn) }

// Post delivers fn to the engine goroutine, marking control plane
// activity: the engine switches to (or stays in) FTI mode. Safe from any
// goroutine. Posts after the run has ended are dropped.
func (e *Engine) Post(fn func()) { e.post(external{fn: fn, control: true}) }

// PostData delivers fn without marking control activity; used for
// non-control external inputs such as test instrumentation.
func (e *Engine) PostData(fn func()) { e.post(external{fn: fn, control: false}) }

// NotifyControl marks control plane activity without carrying work: the
// Connection Manager calls this from its channel taps whenever control
// bytes cross the emulation boundary.
func (e *Engine) NotifyControl() { e.post(external{control: true}) }

// MarkControl records control plane activity synchronously from within
// an event callback (engine goroutine only). Events that hand work to
// the emulated plane — a PACKET_IN punt, a virtual-timer wake of a
// controller app — must call this so the clock switches to FTI and paces
// in real time while the emulated side reacts; otherwise DES would race
// past the response.
func (e *Engine) MarkControl() {
	e.stats.ControlPosts++
	e.lastControl = e.now
	if e.mode == DES {
		e.switchMode(FTI)
	}
}

// post reports whether the work was delivered; false means the run ended.
// The queue is unbounded, so posting never blocks: emulated control plane
// processes must not stall (or deadlock) on the simulation side.
func (e *Engine) post(x external) bool {
	if e.stopped.Load() {
		return false
	}
	e.inbox.put(x)
	return true
}

// Stop requests the run loop to exit after the current iteration. Safe
// from any goroutine.
func (e *Engine) Stop() {
	e.running.Store(false)
	// Nudge a blocked idle wait.
	e.post(external{fn: func() {}, control: false})
}

// Run executes events until virtual time reaches until, the queue drains
// with no external activity for MaxIdleWall, or Stop is called. It returns
// the run statistics. Run must be called at most once.
func (e *Engine) Run(until core.Time) Stats {
	start := time.Now()
	e.modeEntered = start
	e.virtEntered = e.now
	e.running.Store(true)

	for e.running.Load() && e.now < until {
		e.drainInbox()
		if !e.running.Load() {
			break
		}
		switch e.mode {
		case FTI:
			e.stepFTI(until)
		default:
			if done := e.stepDES(until); done {
				e.running.Store(false)
			}
		}
	}
	if e.timer != nil {
		e.timer.Stop()
	}
	e.accountMode(e.mode) // close out the final mode interval
	e.stats.VirtualEnd = e.now
	e.stats.WallTotal = time.Since(start)
	e.stopped.Store(true)
	e.running.Store(false)
	close(e.done)
	return e.stats
}

// drainInbox handles all currently queued external work without blocking.
func (e *Engine) drainInbox() {
	q := e.inbox.take()
	for _, x := range q {
		e.handleExternal(x)
	}
	clear(q) // the spare buffer pins no closure
	e.inbox.spare = q[:0]
}

func (e *Engine) handleExternal(x external) {
	if x.control {
		e.stats.ControlPosts++
		e.lastControl = e.now
		if e.mode == DES {
			e.switchMode(FTI)
		}
	}
	if x.fn != nil {
		x.fn()
	}
}

func (e *Engine) switchMode(to Mode) {
	from := e.mode
	if from == to {
		return
	}
	e.accountMode(from)
	e.mode = to
	e.stats.Transitions++
	e.modeEntered = time.Now()
	e.virtEntered = e.now
	if e.cfg.OnModeChange != nil {
		e.cfg.OnModeChange(from, to, e.now)
	}
}

func (e *Engine) accountMode(m Mode) {
	wall := time.Since(e.modeEntered)
	virt := e.now - e.virtEntered
	if m == FTI {
		e.stats.WallFTI += wall
		e.stats.VirtualFTI += virt
	} else {
		e.stats.WallDES += wall
		e.stats.VirtualDES += virt
	}
	e.modeEntered = time.Now()
	e.virtEntered = e.now
}

// stepDES executes the next event batch, or blocks for external activity
// when the queue is empty. It reports whether the run should end.
func (e *Engine) stepDES(until core.Time) bool {
	if len(e.queue) == 0 {
		// Nothing scheduled: the only possible source of progress is the
		// emulated control plane. Wait a bounded wall time for it.
		if e.wait(e.cfg.MaxIdleWall) {
			e.drainInbox()
			return false
		}
		// Nothing scheduled and nothing arrived: the experiment has run
		// out of work. Finish at the requested horizon so that callers
		// observe the full virtual duration.
		if until < core.MaxTime {
			e.advance(until)
		}
		e.stats.EndedIdle = true
		return true
	}
	next := e.queue[0]
	if next.at > until {
		// The remaining events are beyond the horizon; finish at until.
		e.advance(until)
		return true
	}
	e.advance(next.at)
	e.runDue(e.now)
	return false
}

// stepFTI advances one fixed increment, pacing against the wall clock, and
// drops back to DES once the control plane is quiescent (or has been quiet
// for QuietTimeout).
func (e *Engine) stepFTI(until core.Time) {
	target := e.now + ftiStep
	if target > until {
		target = until
	}
	// Execute everything due within the increment, in timestamp order.
	for len(e.queue) > 0 && e.queue[0].at <= target {
		e.advance(e.queue[0].at)
		e.runDue(e.now)
	}
	e.advance(target)

	// Pace: one increment of virtual time costs ftiStep/Pacing wall time.
	// Wait on the inbox too, so control activity arriving mid-sleep is
	// handled immediately (it executes at the current virtual time).
	wallBudget := time.Duration(float64(ftiStep.Duration()) / e.cfg.Pacing)
	deadline := time.Now().Add(wallBudget)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		if e.wait(remain) {
			e.drainInbox()
		}
		if !e.running.Load() {
			return
		}
	}

	switch quiet := e.now - e.lastControl; {
	case quiet >= e.cfg.QuietTimeout:
		e.stats.TimeoutExits++
		e.switchMode(DES)
	case quiet >= settleSteps*ftiStep && e.quiescent():
		e.stats.EvidenceExits++
		e.switchMode(DES)
	}
}

// wait blocks until the inbox is woken, reporting true, or until d of wall
// time has passed. Every wait reuses the engine's one timer, so a paced
// increment and the post that wakes it allocate nothing.
func (e *Engine) wait(d time.Duration) bool {
	if e.timer == nil {
		e.timer = time.NewTimer(d)
	} else {
		// Before Go 1.23 timer semantics (go.mod says go 1.22) a Reset
		// timer may still deliver the expiry of its previous wait: stop
		// it and drain that expiry first.
		if !e.timer.Stop() {
			select {
			case <-e.timer.C:
			default:
			}
		}
		e.timer.Reset(d)
	}
	select {
	case <-e.inbox.wake:
		return true
	case <-e.timer.C:
		return false
	}
}

// quiescent reports whether the emulated control plane provably has
// nothing left to do. The order of the two reads matters: a control plane
// goroutine posts to the engine before it parks in Read and gives its
// token back, so once the ledger reads zero everything those goroutines
// produced is already in the inbox — reading the inbox first could miss a
// post made between the two reads.
func (e *Engine) quiescent() bool {
	return e.inFlight != nil && e.inFlight() == 0 && e.inbox.empty()
}

// advance moves the virtual clock forward to t (never backward).
func (e *Engine) advance(t core.Time) {
	if t > e.now {
		e.now = t
		e.nowAt.Store(int64(t))
	}
}

// runDue executes every event with timestamp <= t.
func (e *Engine) runDue(t core.Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		fn := e.queue.pop().fn
		e.stats.Events++
		fn()
	}
}
