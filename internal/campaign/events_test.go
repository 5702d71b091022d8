package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/spec"
)

// sseEvent is one parsed SSE frame: the id/event fields plus the raw
// data payload (compared byte-for-byte in the replay-exactness test).
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// parseSSE walks an event stream, calling emit per complete frame.
func parseSSE(r io.Reader, emit func(sseEvent)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id:"):
			cur.ID = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			cur.Event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			cur.Data += strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "":
			if cur.Data != "" {
				emit(cur)
				cur = sseEvent{}
			}
		}
	}
	return sc.Err()
}

// collectSSE fetches the whole event stream (the campaign must be
// finished, so the stream ends after replay) and parses it.
func collectSSE(t *testing.T, url, lastEventID string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d; body: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var events []sseEvent
	if err := parseSSE(resp.Body, func(ev sseEvent) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	return events
}

// flowOutcome fabricates a successful outcome with a real fingerprint
// so digests and analysis metrics have material to work on.
func flowOutcome(r spec.Run) *spec.Outcome {
	out := &spec.Outcome{Spec: r, Axes: r.Axes()}
	out.Fingerprint.SteadyRxBits = math.Float64bits(3e8)
	out.Fingerprint.SteadyRx = "300Mbps"
	out.Fingerprint.Flows = []spec.FlowPrint{
		{Tuple: "a->b", State: "active", RateBits: math.Float64bits(1e8), Rate: "100Mbps"},
		{Tuple: "c->d", State: "active", RateBits: math.Float64bits(2e8), Rate: "200Mbps"},
	}
	out.Wall.Solves = 5
	out.Wall.ConvergedAt = spec.Duration(100 * time.Millisecond)
	out.Wall.MinHostRxFloor = 1e8
	return out
}

// TestSSEStreamAndReplay drives a campaign to completion and pins the
// full event stream shape, the Last-Event-ID replay exactness (a
// reconnecting client observes the identical event sequence), and the
// persisted events.jsonl log matching the stream byte for byte.
func TestSSEStreamAndReplay(t *testing.T) {
	srv, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		return flowOutcome(r), nil
	})
	c, err := srv.Submit(Spec{
		Topos:     []string{"fattree:4", "linear:4"},
		Scenarios: []string{"ecmp5"},
		Traffics:  []string{"permutation"},
		Seeds:     []int64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, c.ID)

	url := ts.URL + "/campaigns/" + c.ID + "/events"
	full := collectSSE(t, url, "")

	// Shape: accepted, started, then per-run started/succeeded pairs,
	// closed by done; seq increments by one from 1.
	if len(full) != 2+2*4+1 {
		t.Fatalf("got %d events, want %d: %+v", len(full), 2+2*4+1, full)
	}
	counts := map[string]int{}
	for i, ev := range full {
		if want := fmt.Sprint(i + 1); ev.ID != want {
			t.Errorf("event %d: id = %s, want %s", i, ev.ID, want)
		}
		counts[ev.Event]++
		var parsed Event
		if err := json.Unmarshal([]byte(ev.Data), &parsed); err != nil {
			t.Fatalf("event %d: %v in %s", i, err, ev.Data)
		}
		if parsed.Campaign != c.ID {
			t.Errorf("event %d: campaign = %q", i, parsed.Campaign)
		}
	}
	if counts[string(EvCampaignAccepted)] != 1 || counts[string(EvCampaignStarted)] != 1 ||
		counts[string(EvRunStarted)] != 4 || counts[string(EvRunSucceeded)] != 4 ||
		counts[string(EvCampaignDone)] != 1 {
		t.Fatalf("event type counts = %v", counts)
	}
	if full[0].Event != string(EvCampaignAccepted) || full[len(full)-1].Event != string(EvCampaignDone) {
		t.Fatalf("stream must open with accepted and close with done: %v ... %v", full[0], full[len(full)-1])
	}
	var done Event
	if err := json.Unmarshal([]byte(full[len(full)-1].Data), &done); err != nil {
		t.Fatal(err)
	}
	if done.State != Done || done.Succeeded != 4 {
		t.Fatalf("done event = %+v, want done 4 succeeded", done)
	}
	var succeeded Event
	for _, ev := range full {
		if ev.Event == string(EvRunSucceeded) {
			if err := json.Unmarshal([]byte(ev.Data), &succeeded); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if succeeded.Run == nil || succeeded.Run.Digest == "" || succeeded.Run.Wall == nil {
		t.Fatalf("run_succeeded must carry digest and wall stats: %+v", succeeded.Run)
	}

	// Reconnect from the middle: the replayed suffix must be identical.
	mid := len(full) / 2
	resumed := collectSSE(t, url, full[mid-1].ID)
	if len(resumed) != len(full)-mid {
		t.Fatalf("resume after id %s: got %d events, want %d", full[mid-1].ID, len(resumed), len(full)-mid)
	}
	for i, ev := range resumed {
		want := full[mid+i]
		if ev != want {
			t.Errorf("resumed event %d diverged:\n got %+v\nwant %+v", i, ev, want)
		}
	}

	// ?after= is the query-param spelling of the same resume.
	viaQuery := collectSSE(t, url+"?after="+full[mid-1].ID, "")
	if len(viaQuery) != len(resumed) {
		t.Fatalf("?after= replay = %d events, want %d", len(viaQuery), len(resumed))
	}

	// The persisted event log carries the same sequence.
	logPath := filepath.Join(srv.runner.CampaignDir(c.ID), "events.jsonl")
	buf, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	if len(lines) != len(full) {
		t.Fatalf("events.jsonl has %d lines, want %d", len(lines), len(full))
	}
	for i, line := range lines {
		if line != full[i].Data {
			t.Errorf("events.jsonl line %d diverged from stream:\n disk %s\n sse  %s", i, line, full[i].Data)
		}
	}

	// Unknown campaign and malformed resume ids are clean errors.
	resp, err := http.Get(ts.URL + "/campaigns/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown campaign = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("Last-Event-ID", "xyz")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID = %d, want 400", resp.StatusCode)
	}
}

// TestSSEMidCampaignSubscribe connects while runs are still executing:
// the subscriber first replays everything already published, then
// receives the remaining events live, ending with campaign_done.
func TestSSEMidCampaignSubscribe(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		started <- struct{}{}
		<-release
		return flowOutcome(r), nil
	})
	c, err := srv.Submit(Spec{
		Topos:     []string{"fattree:4", "linear:4"},
		Scenarios: []string{"ecmp5"},
		Traffics:  []string{"permutation"},
		Seeds:     []int64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two runs are in flight (concurrency 2); their run_started events
	// are published before we subscribe.
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("runs never started")
		}
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + c.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 64)
	go func() {
		defer close(events)
		parseSSE(resp.Body, func(ev sseEvent) { events <- ev }) //nolint:errcheck // stream end is the signal
	}()

	// Replay: accepted, started and at least two run_started frames
	// arrive before any run finishes.
	var replayed []string
	for len(replayed) < 4 {
		select {
		case ev := <-events:
			replayed = append(replayed, ev.Event)
		case <-time.After(5 * time.Second):
			t.Fatalf("replay stalled after %v", replayed)
		}
	}
	if replayed[0] != string(EvCampaignAccepted) || replayed[1] != string(EvCampaignStarted) ||
		replayed[2] != string(EvRunStarted) || replayed[3] != string(EvRunStarted) {
		t.Fatalf("replay = %v", replayed)
	}

	// Release the pool; the live tail must deliver the remaining events
	// and close after campaign_done.
	close(release)
	var tail []string
	for ev := range events {
		tail = append(tail, ev.Event)
	}
	if len(tail) == 0 || tail[len(tail)-1] != string(EvCampaignDone) {
		t.Fatalf("live tail = %v, want a campaign_done-terminated sequence", tail)
	}
	succ := 0
	for _, e := range tail {
		if e == string(EvRunSucceeded) {
			succ++
		}
	}
	if succ != 4 {
		t.Fatalf("live tail saw %d run_succeeded, want 4 (tail: %v)", succ, tail)
	}
}

// stalledWriter is a ResponseWriter whose Write blocks until released —
// a client that stopped reading, as seen from inside the handler.
type stalledWriter struct {
	hdr     http.Header
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func newStalledWriter() *stalledWriter {
	return &stalledWriter{hdr: http.Header{}, release: make(chan struct{})}
}

func (w *stalledWriter) Header() http.Header { return w.hdr }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Flush()              {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestSSESlowClientDroppedNotRunner pins the backpressure contract at
// both layers. Bus layer: publishing to a full subscriber never blocks
// — the subscriber is dropped and its channel closed. HTTP layer: a
// handler stalled in Write while the campaign floods past its buffer
// loses its subscription and returns once writable; the runner drains
// the whole campaign regardless.
func TestSSESlowClientDroppedNotRunner(t *testing.T) {
	// Bus layer: a running campaign of one run, started and retried twice.
	b := newBus(Status{State: Running, Total: 1, Runs: []RunStatus{{State: Pending}}})
	_, ch := b.subscribe(0, 1)
	for _, typ := range []EventType{EvRunStarted, EvRunRetried, EvRunRetried} {
		donePub := make(chan struct{})
		go func() {
			if err := b.publish(Event{Type: typ, Campaign: "x", State: Running, Run: &RunEvent{}}); err != nil {
				t.Error(err)
			}
			close(donePub)
		}()
		select {
		case <-donePub:
		case <-time.After(time.Second):
			t.Fatal("publish blocked on a full subscriber")
		}
	}
	// One buffered event, then the close from the overflow drop.
	if ev, ok := <-ch; !ok || ev.Seq != 1 {
		t.Fatalf("first receive = %+v %v, want the buffered event", ev, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("slow subscriber's channel must be closed after overflow")
	}
	if got := len(b.events); got != 3 {
		t.Fatalf("log has %d events, want all 3 published", got)
	}

	// HTTP layer: EventBuffer 1, a stalled client, a 16-run campaign.
	srv := NewServer(newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
		return flowOutcome(r), nil
	}), t.Logf)
	srv.EventBuffer = 1
	c, err := srv.Submit(Spec{
		Topos:     []string{"fattree:4", "linear:4"},
		Scenarios: []string{"ecmp5", "reactive"},
		Traffics:  []string{"permutation"},
		Seeds:     []int64{1, 2, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	w := newStalledWriter()
	req := httptest.NewRequest("GET", "/campaigns/"+c.ID+"/events", nil)
	req.SetPathValue("id", c.ID)
	handlerDone := make(chan struct{})
	go func() {
		srv.handleEvents(w, req)
		close(handlerDone)
	}()

	// The runner must finish every run while the client is still
	// stalled — backpressure drops the subscriber, not the campaign.
	select {
	case <-c.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish while an SSE client was stalled")
	}
	if st := c.Status(); st.State != Done || st.Succeeded != 16 {
		t.Fatalf("campaign = %s %d/16, want done 16", st.State, st.Succeeded)
	}
	select {
	case <-handlerDone:
		t.Fatal("handler returned while its client was still stalled mid-write")
	default:
	}

	// Unstall: the handler drains what it has and returns because its
	// subscription was closed.
	close(w.release)
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after the dropped client became writable")
	}
}

// TestSSEDrainClosesStreams pins the shutdown path: draining the server
// cancels unstarted runs, publishes their run_canceled events and the
// terminal campaign_done, and every open SSE stream ends.
func TestSSEDrainClosesStreams(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		started <- struct{}{}
		<-release
		return flowOutcome(r), nil
	})
	c, err := srv.Submit(Spec{
		Topos:     []string{"fattree:4", "linear:4"},
		Scenarios: []string{"ecmp5"},
		Traffics:  []string{"permutation"},
		Seeds:     []int64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("runs never started")
		}
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + c.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 64)
	go func() {
		defer close(events)
		parseSSE(resp.Body, func(ev sseEvent) { events <- ev }) //nolint:errcheck
	}()

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()
	// The feed sees the cancel while both workers are still busy, so the
	// unstarted runs are canceled.
	<-srv.ctx.Done()
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The stream must end on its own (channel closes on stream EOF),
	// having delivered cancellations and the canceled-state done event.
	var types []string
	var done Event
	for ev := range events {
		types = append(types, ev.Event)
		if ev.Event == string(EvCampaignDone) {
			if err := json.Unmarshal([]byte(ev.Data), &done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(types) == 0 || types[len(types)-1] != string(EvCampaignDone) {
		t.Fatalf("drained stream = %v, want campaign_done last", types)
	}
	if done.State != Canceled || done.Canceled < 1 {
		t.Fatalf("done event after drain = %+v, want canceled state with canceled runs", done)
	}
	canceled := 0
	for _, e := range types {
		if e == string(EvRunCanceled) {
			canceled++
		}
	}
	if canceled != done.Canceled {
		t.Errorf("saw %d run_canceled events, done event says %d", canceled, done.Canceled)
	}
	_ = c
}
