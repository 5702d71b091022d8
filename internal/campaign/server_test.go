package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
)

// newTestServer wires a Server over a stubbed runner and returns it with
// its httptest front end. No test outlives its campaigns: the server is
// drained when the test ends — cleanups run last-registered first, so
// that is before the runner's TempDir is removed and while t.Logf may
// still be called — and then every campaign's persisted log must fold
// to the status the server holds.
func newTestServer(t *testing.T, exec func(r spec.Run) (*spec.Outcome, error)) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(newTestRunner(t, exec), t.Logf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Error(err)
			return
		}
		for _, id := range srv.order {
			assertFoldParity(t, srv.runner, srv.campaigns[id])
		}
	})
	return srv, ts
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d; body: %s", url, resp.StatusCode, wantCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v in %s", url, err, body)
		}
	}
}

// waitDone polls until the campaign leaves the running states.
func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK, &st)
		if st.State != Pending && st.State != Running {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return Status{}
}

// TestServerLifecycle submits a sweep over HTTP, polls it to done, and
// fetches a run's persisted outcome — the whole management-plane loop.
func TestServerLifecycle(t *testing.T) {
	_, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		return okOutcome(r), nil
	})

	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)

	body := `{
		"name": "Smoke Sweep",
		"topos": ["fattree:4"],
		"scenarios": ["ecmp5", "reactive"],
		"traffics": ["permutation"],
		"seeds": [1, 2],
		"base": {"dur": "2s", "pacing": 40}
	}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /campaigns = %d; body: %s", resp.StatusCode, raw)
	}
	var created Status
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID != "c0001-smoke-sweep" {
		t.Errorf("id = %q, want c0001-smoke-sweep (slugified name)", created.ID)
	}
	if created.Total != 4 {
		t.Errorf("total = %d, want 4 (1 topo x 2 scenarios x 2 seeds)", created.Total)
	}
	if loc := resp.Header.Get("Location"); loc != "/campaigns/"+created.ID {
		t.Errorf("Location = %q", loc)
	}

	st := waitDone(t, ts, created.ID)
	if st.State != Done || st.Succeeded != 4 {
		t.Fatalf("final = %s %d succeeded, want done 4", st.State, st.Succeeded)
	}

	var out spec.Outcome
	getJSON(t, ts.URL+"/campaigns/"+created.ID+"/runs/0", http.StatusOK, &out)
	if out.Spec.Topo != "fattree:4" || out.Spec.Traffic != "permutation:1" {
		t.Errorf("run 0 outcome spec = %s", out.Spec)
	}

	// The list endpoint returns summaries without per-run detail.
	var list struct {
		Campaigns []Status `json:"campaigns"`
	}
	getJSON(t, ts.URL+"/campaigns", http.StatusOK, &list)
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != created.ID {
		t.Fatalf("list = %+v", list)
	}
	if list.Campaigns[0].Runs != nil {
		t.Error("list summaries must omit per-run detail")
	}
}

// TestServerRejectsBadSpecs pins the 400s: malformed JSON, unknown
// fields, and sweeps that fail expansion.
func TestServerRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		t.Error("Exec called for a rejected campaign")
		return okOutcome(r), nil
	})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"malformed json", `{"topos": [`, "decoding"},
		{"unknown field", `{"topos": ["fattree:4"], "scenarios": ["ecmp5"], "bogus": 1}`, "bogus"},
		{"no topos", `{"scenarios": ["ecmp5"]}`, "no topologies"},
		{"bad axis", `{"topos": ["fattree:x"], "scenarios": ["ecmp5"]}`, "positive"},
		{"removed ablation knob", `{"topos": ["fattree:4"], "scenarios": ["ecmp5"], "base": {"naive_solver": true}}`, "naive_solver"},
		{"removed worker axis", `{"topos": ["fattree:4"], "scenarios": ["ecmp5"], "solver_workers": [1, 4]}`, "solver_workers"},
		{"negative retries", `{"topos": ["fattree:4"], "scenarios": ["ecmp5"], "retries": -1}`, "retries"},
		{"negative sample interval", `{"topos": ["fattree:4"], "scenarios": ["ecmp5"], "base": {"sample_interval": "-10ms"}}`, "negative sample interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST = %d, want 400; body: %s", resp.StatusCode, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error body %s, want an error containing %q", body, tc.want)
			}
		})
	}
}

// TestServerNotFound pins the 404s for unknown campaigns, runs and
// artifacts, plus the 400 for a non-numeric run index.
func TestServerNotFound(t *testing.T) {
	srv, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		return okOutcome(r), nil
	})
	c, err := srv.Submit(Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, c.ID)

	getJSON(t, ts.URL+"/campaigns/nope", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/campaigns/"+c.ID+"/runs/99", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/campaigns/"+c.ID+"/runs/x", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/campaigns/"+c.ID+"/runs/0/artifacts/none.pcapng", http.StatusNotFound, nil)
}

// TestServerRunWithoutResult pins the in-progress answer: a run that has
// not persisted a result yet reports its state in a 404 body.
func TestServerRunWithoutResult(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		<-release
		return okOutcome(r), nil
	})
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"topos": ["fattree:4"], "scenarios": ["ecmp5"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var created Status
	json.NewDecoder(resp.Body).Decode(&created) //nolint:errcheck
	resp.Body.Close()

	var notYet struct {
		Error string    `json:"error"`
		Run   RunStatus `json:"run"`
	}
	getJSON(t, ts.URL+"/campaigns/"+created.ID+"/runs/0", http.StatusNotFound, &notYet)
	if !strings.Contains(notYet.Error, "no result") {
		t.Errorf("error = %q, want a no-result explanation", notYet.Error)
	}
}

// TestServerArtifacts pins artifact listing and fetching, including the
// path-traversal guard.
func TestServerArtifacts(t *testing.T) {
	srv, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		// Pretend the experiment wrote a capture file.
		if r.CaptureDir != "" {
			if err := os.MkdirAll(r.CaptureDir, 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(r.CaptureDir, "bgp-a-b.pcapng"), []byte("pcap!"), 0o644); err != nil {
				return nil, err
			}
		}
		return okOutcome(r), nil
	})
	c, err := srv.Submit(Spec{
		Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"}, Capture: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts, c.ID)

	var listing struct {
		Artifacts []string `json:"artifacts"`
	}
	getJSON(t, ts.URL+"/campaigns/"+c.ID+"/runs/0/artifacts", http.StatusOK, &listing)
	if len(listing.Artifacts) != 1 || listing.Artifacts[0] != "bgp-a-b.pcapng" {
		t.Fatalf("artifacts = %v", listing.Artifacts)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + c.ID + "/runs/0/artifacts/bgp-a-b.pcapng")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, []byte("pcap!")) {
		t.Fatalf("artifact fetch = %d %q", resp.StatusCode, body)
	}

	// Dotfiles (and anything that isn't a plain basename) are refused.
	resp, err = http.Get(ts.URL + "/campaigns/" + c.ID + "/runs/0/artifacts/.hidden")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dotfile artifact = %d, want 400", resp.StatusCode)
	}
}

// TestServerDrain pins the daemon shutdown path end to end: draining
// refuses new campaigns, finishes in-flight runs, and cancels the rest.
func TestServerDrain(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv, ts := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		started <- struct{}{}
		<-release
		return okOutcome(r), nil
	})
	c, err := srv.Submit(Spec{
		Topos:     []string{"fattree:4", "linear:4"},
		Scenarios: []string{"ecmp5"},
		Seeds:     []int64{1, 2},
		Traffics:  []string{"permutation"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never started")
		}
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()
	// Draining: new submissions are refused even while the pool winds
	// down. Give Drain a moment to set the flag.
	time.Sleep(20 * time.Millisecond)
	if _, err := srv.Submit(Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"}}); err == nil {
		t.Error("Submit succeeded during drain, want refusal")
	}
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	st := c.Status()
	if st.State != Canceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if st.Succeeded < 2 || st.Canceled < 1 || st.Succeeded+st.Canceled != st.Total {
		t.Fatalf("succeeded=%d canceled=%d total=%d after drain", st.Succeeded, st.Canceled, st.Total)
	}
	_ = ts
}

// TestSlugify pins the campaign ID suffix rules.
func TestSlugify(t *testing.T) {
	for in, want := range map[string]string{
		"Smoke Sweep":    "smoke-sweep",
		"  weird!!name ": "weirdname",
		"---":            "",
		"":               "",
		"a_b-c 1":        "a-b-c-1",
	} {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRestartedServerNumbersAfterExistingCampaigns: a second server over
// the same data root continues the numbering, so the first campaign of the
// new daemon does not truncate the events log and overwrite the results of
// the first campaign of the old one.
func TestRestartedServerNumbersAfterExistingCampaigns(t *testing.T) {
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) { return okOutcome(r), nil })
	sp := Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"}, Name: "sweep"}
	submit := func() (id string, events []byte) {
		t.Helper()
		srv := NewServer(rn, t.Logf)
		c, err := srv.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		<-c.Done()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		events, err = os.ReadFile(filepath.Join(rn.CampaignDir(c.ID), "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return c.ID, events
	}
	first, before := submit()
	// Entries that are not campaigns, and a gap, do not confuse the scan.
	for _, name := range []string{"c0007-older", "notes", "c-x"} {
		if err := os.Mkdir(filepath.Join(rn.Dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	second, _ := submit()
	if first != "c0001-sweep" || second != "c0008-sweep" {
		t.Fatalf("ids = %s then %s after a restart, want c0001-sweep then c0008-sweep", first, second)
	}
	after, err := os.ReadFile(filepath.Join(rn.CampaignDir(first), "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || !bytes.Equal(before, after) {
		t.Fatalf("the first campaign's events log changed across the restart: %d bytes, then %d", len(before), len(after))
	}
}

// TestServerIDsAreSequential pins that submissions get distinct ordered
// IDs even when names collide.
func TestServerIDsAreSequential(t *testing.T) {
	srv, _ := newTestServer(t, func(r spec.Run) (*spec.Outcome, error) {
		return okOutcome(r), nil
	})
	base := Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"}, Name: "same"}
	var ids []string
	for i := 0; i < 3; i++ {
		c, err := srv.Submit(base)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c.ID)
		<-c.Done()
	}
	want := []string{"c0001-same", "c0002-same", "c0003-same"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
}

// getBody fetches url and returns its status code and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRestartedServerServesFinishedCampaign: a second server over the
// same data root rebuilds a finished campaign from campaign.json and the
// fold of events.jsonl, and serves it byte for byte as the first did —
// status (a retried run included), listing, run result, artifacts,
// analysis and the event replay — without touching its log.
func TestRestartedServerServesFinishedCampaign(t *testing.T) {
	var flaked atomic.Bool
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
		if r.Topo == "linear:4" && !flaked.Swap(true) {
			return nil, errors.New("transient failure")
		}
		if err := os.MkdirAll(r.CaptureDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(r.CaptureDir, "control.pcapng"), []byte("pcap!"), 0o644); err != nil {
			return nil, err
		}
		return flowOutcome(r), nil
	})
	rn.Concurrency = 1
	sp := smallSpec()
	sp.Capture = true
	sp.Retries = 1
	serve := func() (map[string][]byte, []sseEvent, string) {
		t.Helper()
		srv := NewServer(rn, t.Logf)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		c, ok := srv.Campaign("c0001-fault")
		if !ok {
			var err error
			if c, err = srv.Submit(sp); err != nil {
				t.Fatal(err)
			}
			<-c.Done()
		}
		bodies := map[string][]byte{}
		for _, path := range []string{"", "/" + c.ID, "/" + c.ID + "/runs/1", "/" + c.ID + "/runs/1/artifacts", "/" + c.ID + "/analysis"} {
			code, body := getBody(t, ts.URL+"/campaigns"+path)
			if code != http.StatusOK {
				t.Fatalf("GET /campaigns%s = %d: %s", path, code, body)
			}
			bodies[path] = body
		}
		events := collectSSE(t, ts.URL+"/campaigns/"+c.ID+"/events", "")
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(filepath.Join(rn.CampaignDir(c.ID), "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return bodies, events, string(log)
	}
	before, beforeEvents, beforeLog := serve()
	after, afterEvents, afterLog := serve()
	for path, want := range before {
		if !bytes.Equal(after[path], want) {
			t.Errorf("GET /campaigns%s after a restart:\n%s\nwant\n%s", path, after[path], want)
		}
	}
	if fmt.Sprint(afterEvents) != fmt.Sprint(beforeEvents) {
		t.Errorf("event replay after a restart:\n%v\nwant\n%v", afterEvents, beforeEvents)
	}
	if afterLog != beforeLog {
		t.Errorf("the restart rewrote a finished campaign's log")
	}
	var st Status
	if err := json.Unmarshal(after["/c0001-fault"], &st); err != nil {
		t.Fatal(err)
	}
	if st.State != Done || st.Succeeded != 4 || st.Runs[2].Attempts != 2 || st.Submitted.IsZero() {
		t.Fatalf("restored status = %s %d succeeded, run 2 after %d attempts, submitted %v; want done 4, 2 attempts and its submission time",
			st.State, st.Succeeded, st.Runs[2].Attempts, st.Submitted)
	}
}

// TestRestartClosesInterruptedLog: a log the daemon's death cut after a
// run_started reads back as canceled — the started run and the pending
// ones canceled as interrupted — and the file then ends in
// campaign_done, so a third start reads it unchanged.
func TestRestartClosesInterruptedLog(t *testing.T) {
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) { return okOutcome(r), nil })
	c, err := NewCampaign("c0001-cut", smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(rn.CampaignDir(c.ID), "events.jsonl")
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// accepted, started, the first run_started: the daemon dies there.
	lines := strings.SplitAfter(string(full), "\n")
	cut := strings.Join(lines[:3], "")
	if !strings.Contains(lines[2], `"type":"run_started"`) {
		t.Fatalf("third event is not a run_started: %s", lines[2])
	}
	if err := os.WriteFile(logPath, []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	var started Event
	if err := json.Unmarshal([]byte(lines[2]), &started); err != nil {
		t.Fatal(err)
	}

	restarted, ok := NewServer(rn, t.Logf).Campaign(c.ID)
	if !ok {
		t.Fatal("the restarted server does not serve the interrupted campaign")
	}
	<-restarted.Done()
	st := restarted.Status()
	if st.State != Canceled || st.Canceled != st.Total {
		t.Fatalf("restored status = %s with %d/%d canceled, want canceled with every run", st.State, st.Canceled, st.Total)
	}
	for _, r := range st.Runs {
		if r.Error != "interrupted: horsed restarted" {
			t.Errorf("run %d error = %q, want the interruption", r.Index, r.Error)
		}
		want := 0
		if r.Index == started.Run.Index {
			want = 1
		}
		if r.Attempts != want {
			t.Errorf("run %d attempts = %d, want %d", r.Index, r.Attempts, want)
		}
	}
	closed, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(closed), cut) {
		t.Fatal("the restart rewrote the log instead of appending to it")
	}
	if n := strings.Count(string(closed), "\n"); n != 3+st.Total+1 {
		t.Fatalf("closed log has %d events, want the 3 read back, %d run_canceled and campaign_done", n, st.Total)
	}
	assertFoldParity(t, rn, restarted)

	again, _ := NewServer(rn, t.Logf).Campaign(c.ID)
	assertJSONEqual(t, "status on a third start", again.Status(), st)
	if reread, _ := os.ReadFile(logPath); !bytes.Equal(reread, closed) {
		t.Fatal("a third start changed the closed log")
	}
}

// TestRestartSkipsUnreadableLog: a campaign directory whose log does not
// replay is left out, not served half-built, and its number is still
// taken.
func TestRestartSkipsUnreadableLog(t *testing.T) {
	accepted := `{"seq":1,"type":"campaign_accepted","campaign":"c0004-bad","state":"pending","total":1}` + "\n"
	for name, log := range map[string]string{
		"empty":            "",
		"not json":         "{",
		"seq gap":          accepted + `{"seq":3,"type":"campaign_started","campaign":"c0004-bad","state":"running"}` + "\n",
		"run out of range": accepted + `{"seq":2,"type":"run_started","campaign":"c0004-bad","state":"running","run":{"index":1,"spec":"x"}}` + "\n",
		"run event bare":   accepted + `{"seq":2,"type":"run_started","campaign":"c0004-bad","state":"running"}` + "\n",
		"wrong total":      `{"seq":1,"type":"campaign_accepted","campaign":"c0004-bad","state":"pending","total":2}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			rn := &Runner{Dir: t.TempDir()}
			dir := rn.CampaignDir("c0004-bad")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := writeJSONFile(filepath.Join(dir, "campaign.json"), Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"}}); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "events.jsonl"), []byte(log), 0o644); err != nil {
				t.Fatal(err)
			}
			var logged []string
			srv := NewServer(rn, func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) })
			if _, ok := srv.Campaign("c0004-bad"); ok {
				t.Fatal("a campaign whose log does not replay was restored")
			}
			if len(logged) != 1 || !strings.Contains(logged[0], "not restored") {
				t.Errorf("logged %q, want one not-restored line", logged)
			}
			if srv.nextID != 4 {
				t.Errorf("next ID after c%04d, want after c0004", srv.nextID)
			}
		})
	}
}
