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

// step is one lifecycle transition: the event that takes it and the
// state of its campaign (campaign_* events) or run (run_* events)
// before and after.
type step struct {
	ev       EventType
	from, to State
}

// legalSteps is the lifecycle's transition table, one entry per action
// in the TypeOK style: every event of a log must take one of these.
var legalSteps = map[step]bool{
	{EvCampaignAccepted, "", Pending}:     true,
	{EvCampaignStarted, Pending, Running}: true,
	{EvCampaignDone, Running, Done}:       true,
	{EvCampaignDone, Running, Failed}:     true,
	{EvCampaignDone, Running, Canceled}:   true,
	{EvCampaignDone, Pending, Failed}:     true, // setup failed
	{EvCampaignDone, Pending, Canceled}:   true, // a restart closes a log cut before the start

	{EvRunStarted, Pending, Running}:   true,
	{EvRunRetried, Running, Running}:   true,
	{EvRunFailed, Running, Running}:    true, // a retry follows
	{EvRunFailed, Running, Failed}:     true,
	{EvRunSucceeded, Running, Done}:    true,
	{EvRunCanceled, Pending, Canceled}: true,
	{EvRunCanceled, Running, Canceled}: true, // a restart closes an interrupted run
}

// replayChecked folds a finished campaign's log through apply, event by
// event from the empty-log status, and fails t at the first event that
// takes no legal step or breaks an invariant. It returns the fold.
func replayChecked(t *testing.T, id string, sp Spec, evs []Event) Status {
	t.Helper()
	c, err := newCampaign(id, sp)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	for i, ev := range evs {
		where := fmt.Sprintf("campaign %s event %d (%s)", id, i+1, ev.Type)
		if ev.Seq != int64(i+1) {
			t.Fatalf("%s: seq %d", where, ev.Seq)
		}
		if i > 0 && evs[i-1].Type == EvCampaignDone {
			t.Fatalf("%s follows campaign_done", where)
		}
		isRun := strings.HasPrefix(string(ev.Type), "run_")
		if isRun != (ev.Run != nil) || isRun && (ev.Run.Index < 0 || ev.Run.Index >= st.Total) {
			t.Fatalf("%s: run payload %+v on a campaign of %d runs", where, ev.Run, st.Total)
		}
		state := func() State {
			if isRun {
				return st.Runs[ev.Run.Index].State
			}
			return st.State
		}
		from, campaignState := state(), st.State
		apply(&st, ev)
		if to := state(); !legalSteps[step{ev.Type, from, to}] {
			t.Fatalf("%s: illegal step %q -> %q", where, from, to)
		}
		if (ev.Type == EvRunStarted || ev.Type == EvRunRetried) && campaignState != Running {
			t.Fatalf("%s: a run starts in a %s campaign", where, campaignState)
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
