package campaign

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/spec"
)

// EventType names a campaign lifecycle event.
type EventType string

// The lifecycle event types, in the order a healthy campaign emits
// them: accepted at submission, started when the runner picks it up,
// then per-run started/retried/succeeded/failed (one failed event per
// failed attempt) and canceled for runs a drain never fed, closed by a
// single done event carrying the final counts.
const (
	EvCampaignAccepted EventType = "campaign_accepted"
	EvCampaignStarted  EventType = "campaign_started"
	EvRunStarted       EventType = "run_started"
	EvRunRetried       EventType = "run_retried"
	EvRunSucceeded     EventType = "run_succeeded"
	EvRunFailed        EventType = "run_failed"
	EvRunCanceled      EventType = "run_canceled"
	EvCampaignDone     EventType = "campaign_done"
)

// Event is one entry in a campaign's ordered event log. Seq starts at 1
// and increments by one per event; an SSE client that reconnects with
// Last-Event-ID: N replays from N+1 and misses nothing.
type Event struct {
	Seq      int64     `json:"seq"`
	Time     time.Time `json:"time"`
	Type     EventType `json:"type"`
	Campaign string    `json:"campaign"`

	// State is the state the event moves its campaign (campaign_*) or
	// its run (run_*) to. The counts are set on campaign-level events
	// (accepted carries Total; done carries the final tally).
	State     State `json:"state,omitempty"`
	Total     int   `json:"total,omitempty"`
	Succeeded int   `json:"succeeded,omitempty"`
	Failed    int   `json:"failed,omitempty"`
	Canceled  int   `json:"canceled,omitempty"`

	// Run is set on run-level events.
	Run *RunEvent `json:"run,omitempty"`
}

// RunEvent is the run-level payload of a run_* event.
type RunEvent struct {
	Index   int    `json:"index"`
	Spec    string `json:"spec"`
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`

	// Digest, SteadyRx and Wall ride on run_succeeded: the fingerprint
	// digest identifies the converged state compactly (two runs of one
	// spec diverging is visible live), the wall stats carry cost.
	Digest   string          `json:"digest,omitempty"`
	SteadyRx string          `json:"steady_rx,omitempty"`
	Wall     *spec.WallStats `json:"wall,omitempty"`
}

// bus is a campaign's record: an append-only in-memory log (the replay
// source for reconnecting subscribers), the status folded from it, an
// optional JSONL persistence sink, and a set of live subscriber
// channels, all under one lock. Publishing never blocks: a subscriber
// whose buffer is full is dropped — its channel closed — so a stalled
// SSE client costs its own connection, never the runner.
type bus struct {
	mu     sync.Mutex
	events []Event
	status Status // the fold of events through apply
	subs   map[chan Event]struct{}
	closed bool
	logW   io.Writer // JSONL sink; nil until the runner attaches one
	logged int       // events already flushed to logW
}

// newBus starts an empty log whose events fold into st.
func newBus(st Status) *bus { return &bus{status: st, subs: map[chan Event]struct{}{}} }

// publish stamps the event with the next sequence number and the wall
// time, appends it to the log, folds it into the status, persists it,
// and fans it out.
func (b *bus) publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	ev.Seq = int64(len(b.events) + 1)
	ev.Time = time.Now().UTC()
	b.appendLocked(ev)
	b.flushLogLocked()
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			delete(b.subs, ch)
			close(ch)
		}
	}
}

// appendLocked adds ev to the log and folds it into the status.
func (b *bus) appendLocked(ev Event) {
	b.events = append(b.events, ev)
	apply(&b.status, ev)
}

// restore loads a log read back from its JSONL file: the events keep
// their sequence numbers and times, and count as already persisted.
func (b *bus) restore(evs []Event) {
	b.mu.Lock()
	for _, ev := range evs {
		b.appendLocked(ev)
	}
	b.logged = len(b.events)
	b.mu.Unlock()
}

// snapshot copies the folded status.
func (b *bus) snapshot() Status {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.status
	st.Runs = append([]RunStatus(nil), st.Runs...)
	return st
}

// attachLog starts persisting events to w (JSON lines), flushing any
// already-published events first so the file holds the complete log.
func (b *bus) attachLog(w io.Writer) {
	b.mu.Lock()
	b.logW = w
	b.flushLogLocked()
	b.mu.Unlock()
}

func (b *bus) flushLogLocked() {
	if b.logW == nil {
		return
	}
	for ; b.logged < len(b.events); b.logged++ {
		buf, err := json.Marshal(b.events[b.logged])
		if err != nil {
			return
		}
		// Best effort: the in-memory log serves this daemon; a lost line
		// makes the file fail its sequence check when a restart reads it.
		b.logW.Write(append(buf, '\n')) //nolint:errcheck
	}
}

// subscribe returns every logged event after seq (the replay) plus a
// live channel for what follows. On a finished campaign the channel is
// already closed, so a late subscriber sees the full replay and an
// immediate end of stream.
func (b *bus) subscribe(after int64, buf int) ([]Event, chan Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var replay []Event
	if after < 0 {
		after = 0
	}
	if after < int64(len(b.events)) {
		replay = append(replay, b.events[after:]...)
	}
	ch := make(chan Event, buf)
	if b.closed {
		close(ch)
		return replay, ch
	}
	b.subs[ch] = struct{}{}
	return replay, ch
}

// unsubscribe detaches a live channel (idempotent with the overflow
// drop in publish, which may already have closed it).
func (b *bus) unsubscribe(ch chan Event) {
	b.mu.Lock()
	if _, ok := b.subs[ch]; ok {
		delete(b.subs, ch)
		close(ch)
	}
	b.mu.Unlock()
}

// close ends the stream after the final event: every subscriber's
// channel closes once drained, and future subscribers get replay plus
// an already-closed channel.
func (b *bus) close() {
	b.mu.Lock()
	b.closed = true
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
	b.mu.Unlock()
}

// Events returns the campaign's logged events after seq and a live
// channel for subsequent ones (closed when the campaign finishes or the
// subscriber falls too far behind). buf bounds the live buffer; the
// SSE handler sizes it and drops the connection of a client that can't
// keep up.
func (c *Campaign) Events(after int64, buf int) ([]Event, chan Event) {
	return c.bus.subscribe(after, buf)
}

// Unsubscribe releases a live channel obtained from Events.
func (c *Campaign) Unsubscribe(ch chan Event) { c.bus.unsubscribe(ch) }

// readEvents parses a campaign's persisted events.jsonl.
func readEvents(r io.Reader) ([]Event, error) {
	var evs []Event
	dec := json.NewDecoder(r)
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return evs, nil
		} else if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
}
