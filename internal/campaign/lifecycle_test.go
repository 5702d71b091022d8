package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// replayChecked folds a finished campaign's log through apply, event by
// event from the empty-log status, and fails t at the first event apply
// refuses or after which the fold is inconsistent: the counts disagree
// with the runs, a run has more attempts than its retries allow, a run
// is unfinished at campaign_done, or campaign_done's counts are not the
// fold's. It returns the fold.
func replayChecked(t *testing.T, id string, sp Spec, evs []Event) Status {
	t.Helper()
	c, err := newCampaign(id, sp)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	for i, ev := range evs {
		where := fmt.Sprintf("campaign %s event %d (%s)", id, i+1, ev.Type)
		if err := apply(&st, ev); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		var tally [3]int
		for _, r := range st.Runs {
			if r.Attempts > 1+sp.Retries {
				t.Fatalf("%s: run %d has %d attempts, retries %d", where, r.Index, r.Attempts, sp.Retries)
			}
			switch r.State {
			case Done:
				tally[0]++
			case Failed:
				tally[1]++
			case Canceled:
				tally[2]++
			case Pending, Running:
				if ev.Type == EvCampaignDone {
					t.Fatalf("%s: run %d is still %s", where, r.Index, r.State)
				}
			}
		}
		if tally != [3]int{st.Succeeded, st.Failed, st.Canceled} {
			t.Fatalf("%s: counts %d/%d/%d, runs say %v", where, st.Succeeded, st.Failed, st.Canceled, tally)
		}
		if ev.Type == EvCampaignDone {
			if ev.Total != st.Total || ev.Succeeded != st.Succeeded || ev.Failed != st.Failed || ev.Canceled != st.Canceled {
				t.Fatalf("%s: counts %d %d/%d/%d, fold has %d %d/%d/%d", where, ev.Total, ev.Succeeded, ev.Failed,
					ev.Canceled, st.Total, st.Succeeded, st.Failed, st.Canceled)
			}
			if (st.State == Done) != (st.Succeeded == st.Total) {
				t.Fatalf("%s: campaign %s with %d of %d runs succeeded", where, st.State, st.Succeeded, st.Total)
			}
		}
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != EvCampaignDone {
		t.Fatalf("campaign %s: log of %d events does not end in campaign_done", id, len(evs))
	}
	return st
}

// diskFold reads a campaign directory's campaign.json and events.jsonl
// and replays the log through replayChecked.
func diskFold(t *testing.T, dir string) Status {
	t.Helper()
	var sp Spec
	mustReadJSON(t, filepath.Join(dir, "campaign.json"), &sp)
	f, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := readEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	return replayChecked(t, filepath.Base(dir), sp, evs)
}

// assertJSONEqual fails t unless a and b marshal to the same JSON.
func assertJSONEqual(t *testing.T, label string, a, b any) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("%s:\n %s\n %s", label, ja, jb)
	}
}

// assertFoldParity checks the campaign's persisted log through
// replayChecked and holds its fold to the campaign's own status.
func assertFoldParity(t *testing.T, rn *Runner, c *Campaign) {
	t.Helper()
	assertJSONEqual(t, "fold of events.jsonl vs Status()", diskFold(t, rn.CampaignDir(c.ID)), c.Status())
}

// checkLogsUnder replays every campaign log under a data root through
// replayChecked and checks each run the fold calls done has its
// result.json. newTestRunner runs it when a test ends, so every runner
// and server test checks the lifecycle of what it left on disk.
func checkLogsUnder(t *testing.T, root string) {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	rn := &Runner{Dir: root}
	for _, e := range entries {
		dir := rn.CampaignDir(e.Name())
		if info, err := os.Stat(filepath.Join(dir, "events.jsonl")); err != nil || !info.Mode().IsRegular() {
			continue
		}
		for _, r := range diskFold(t, dir).Runs {
			if _, err := os.Stat(filepath.Join(rn.RunDir(e.Name(), r.Index), "result.json")); r.State == Done && err != nil {
				t.Errorf("campaign %s: run %d is done but has no result: %v", e.Name(), r.Index, err)
			}
		}
	}
}

// TestRunnerSetupFailure pins that a campaign whose setup fails says so
// on its stream: Run returns the error, every run is canceled with the
// cause, and the log ends in campaign_done{failed}, after which a live
// subscriber's channel closes. The three setup steps fail in turn: the
// directory, campaign.json, and the event log (the campaign's only
// record).
func TestRunnerSetupFailure(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(rn *Runner, id string) error // makes one setup step fail
	}{
		{"data root is a file", func(rn *Runner, id string) error {
			rn.Dir = filepath.Join(rn.Dir, "file")
			return os.WriteFile(rn.Dir, nil, 0o644)
		}},
		{"campaign.json is a directory", func(rn *Runner, id string) error {
			return os.MkdirAll(filepath.Join(rn.CampaignDir(id), "campaign.json", "x"), 0o755)
		}},
		{"events.jsonl is a directory", func(rn *Runner, id string) error {
			return os.MkdirAll(filepath.Join(rn.CampaignDir(id), "events.jsonl"), 0o755)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
				t.Error("Exec called for a campaign whose setup failed")
				return okOutcome(r), nil
			})
			c, err := NewCampaign("c0001-setup", smallSpec())
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.block(rn, c.ID); err != nil {
				t.Fatal(err)
			}
			_, live := c.Events(0, 16)
			if err := rn.Run(context.Background(), c); err == nil {
				t.Fatal("Run succeeded, want the setup error")
			}
			st := c.Status()
			if st.State != Failed || st.Canceled != st.Total {
				t.Fatalf("status = %s with %d/%d canceled, want failed with every run canceled", st.State, st.Canceled, st.Total)
			}
			for _, r := range st.Runs {
				if !strings.Contains(r.Error, "setup failed") {
					t.Errorf("run %d error = %q, want the setup failure", r.Index, r.Error)
				}
			}
			evs, _ := c.Events(0, 0)
			if last := evs[len(evs)-1]; last.Type != EvCampaignDone || last.State != Failed {
				t.Fatalf("log ends in %s{%s}, want campaign_done{failed}", last.Type, last.State)
			}
			assertJSONEqual(t, "fold of Events vs Status()", replayChecked(t, c.ID, c.Spec, evs), st)

			var lastLive Event
			timeout := time.After(5 * time.Second)
			for open := true; open; {
				select {
				case ev, ok := <-live:
					if open = ok; ok {
						lastLive = ev
					}
				case <-timeout:
					t.Fatal("live subscriber's channel never closed")
				}
			}
			if lastLive.Type != EvCampaignDone {
				t.Fatalf("live stream ended after %s, want campaign_done", lastLive.Type)
			}
		})
	}
}

// TestPublishRefusesIllegalEvent: an event apply refuses comes back as
// publish's error and leaves no trace — the log and the status are as
// they were — and Runner.Run returns the campaign's first refusal.
func TestPublishRefusesIllegalEvent(t *testing.T) {
	run := func(i int) *RunEvent { return &RunEvent{Index: i, Spec: "x"} }
	accepted := Event{Type: EvCampaignAccepted, State: Pending, Total: 4}
	for _, tc := range []struct {
		name  string
		prior []Event // legal events published first
		ev    Event
		want  string
	}{
		{"before acceptance", nil, Event{Type: EvCampaignStarted, State: Running},
			"campaign_started before campaign_accepted"},
		{"wrong total", nil, Event{Type: EvCampaignAccepted, State: Pending, Total: 3},
			"campaign_accepted of 3 runs, the spec expands to 4"},
		{"accepted twice", []Event{accepted}, accepted,
			"campaign_accepted pending -> pending is not a lifecycle step"},
		{"campaign event with a run", []Event{accepted}, Event{Type: EvCampaignStarted, State: Running, Run: run(0)},
			"campaign_started carries run 0"},
		{"run event bare", []Event{accepted}, Event{Type: EvRunCanceled, State: Canceled},
			"run_canceled carries no run"},
		{"run out of range", []Event{accepted}, Event{Type: EvRunCanceled, State: Canceled, Run: run(4)},
			"run_canceled names run 4 of 4"},
		{"run succeeds while pending", []Event{accepted, {Type: EvCampaignStarted, State: Running}},
			Event{Type: EvRunSucceeded, State: Done, Run: run(0)},
			"run_succeeded pending -> done is not a lifecycle step"},
		{"run starts in a pending campaign", []Event{accepted}, Event{Type: EvRunStarted, State: Running, Run: run(0)},
			"run_started while the campaign is pending"},
		{"event after campaign_done", []Event{accepted, {Type: EvCampaignDone, State: Failed}},
			Event{Type: EvRunCanceled, State: Canceled, Run: run(0)},
			"run_canceled follows campaign_done"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := newCampaign("c0001-illegal", smallSpec())
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range tc.prior {
				if err := c.publish(ev); err != nil {
					t.Fatal(err)
				}
			}
			evs, _ := c.Events(0, 0)
			st := c.Status()
			if err := c.publish(tc.ev); err == nil || err.Error() != tc.want {
				t.Fatalf("publish = %v, want %q", err, tc.want)
			}
			after, _ := c.Events(0, 0)
			assertJSONEqual(t, "events after a refused publish", after, evs)
			assertJSONEqual(t, "status after a refused publish", c.Status(), st)
		})
	}

	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) { return okOutcome(r), nil })
	c, err := NewCampaign("c0001-refused", smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	refused := c.publish(Event{Type: EvRunSucceeded, State: Done, Run: run(0)})
	c.publish(Event{Type: EvCampaignDone, State: Done}) //nolint:errcheck // a second refusal
	if err := rn.Run(context.Background(), c); refused == nil || err != refused {
		t.Fatalf("Run = %v, want the first refusal %v", err, refused)
	}
	if st := c.Status(); st.State != Done || st.Succeeded != st.Total {
		t.Fatalf("status = %s with %d/%d succeeded, want the refusals to change nothing", st.State, st.Succeeded, st.Total)
	}
}
