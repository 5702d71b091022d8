package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/spec"
)

// Runner drains campaigns on a bounded worker pool and persists their
// results under Dir. One Runner serves every campaign a daemon accepts;
// each campaign gets its own subdirectory.
//
// Directory layout, relative to Dir:
//
//	<id>/campaign.json     the submitted Spec
//	<id>/status.json       progress snapshot, rewritten as runs finish
//	<id>/events.jsonl      the typed lifecycle event log (one JSON per line)
//	<id>/runs/<n>/result.json   the run's spec.Outcome
//	<id>/runs/<n>/pcap/control.pcapng capture artifact (Spec.Capture)
type Runner struct {
	// Dir is the data root.
	Dir string
	// Concurrency is the worker pool size (default 1). Each worker
	// executes one experiment at a time; experiments pace their
	// control plane against the wall clock, so oversubscribing cores
	// stretches FTI windows rather than breaking anything.
	Concurrency int
	// Exec executes one run. Nil means spec.Run.Execute — the real
	// experiment; tests substitute stubs to exercise fault paths.
	Exec func(r spec.Run) (*spec.Outcome, error)
	// Logf, when set, receives progress logging.
	Logf func(format string, args ...any)
}

func (rn *Runner) logf(format string, args ...any) {
	if rn.Logf != nil {
		rn.Logf(format, args...)
	}
}

func (rn *Runner) exec(r spec.Run) (*spec.Outcome, error) {
	if rn.Exec != nil {
		return rn.Exec(r)
	}
	return r.Execute()
}

// CampaignDir is the campaign's directory under the data root.
func (rn *Runner) CampaignDir(id string) string { return filepath.Join(rn.Dir, id) }

// RunDir is run n's directory within campaign id.
func (rn *Runner) RunDir(id string, n int) string {
	return filepath.Join(rn.CampaignDir(id), "runs", fmt.Sprintf("%04d", n))
}

// Run drains the campaign: every expanded run is scheduled onto the
// worker pool, attempted up to 1+Retries times with the per-run
// timeout, and its outcome persisted as it completes. Canceling ctx
// drains gracefully — in-flight runs finish and persist, unstarted runs
// are marked canceled — which is the daemon's SIGTERM path. Run returns
// after the pool has drained; the campaign's Done channel is closed and
// its final status (and status.json) reflects every run.
func (rn *Runner) Run(ctx context.Context, c *Campaign) error {
	defer close(c.done)
	defer c.bus.close()
	dir := rn.CampaignDir(c.ID)
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		c.setState(Failed)
		return err
	}
	if err := writeJSONFile(filepath.Join(dir, "campaign.json"), c.Spec); err != nil {
		c.setState(Failed)
		return err
	}
	// Persist the event log from here on (the accepted event published
	// before the directory existed is flushed first).
	if logF, err := os.OpenFile(filepath.Join(dir, "events.jsonl"),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644); err == nil {
		c.bus.attachLog(logF)
		defer logF.Close()
	} else {
		rn.logf("campaign %s: opening event log: %v", c.ID, err)
	}
	c.setState(Running)
	c.bus.publish(Event{Type: EvCampaignStarted, Campaign: c.ID, State: Running, Total: len(c.Status().Runs)})
	rn.persistStatus(c)

	workers := rn.Concurrency
	if workers < 1 {
		workers = 1
	}
	idxCh := make(chan int)
	doneCh := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { doneCh <- struct{}{} }()
			for idx := range idxCh {
				rn.runOne(c, idx)
				rn.persistStatus(c)
			}
		}()
	}

	total := len(c.Status().Runs)
	drained := true
feed:
	for i := 0; i < total; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			drained = false
			break feed
		}
	}
	close(idxCh)
	for w := 0; w < workers; w++ {
		<-doneCh
	}

	// Anything still pending was never started (a drain interrupted the
	// feed); record it so status.json tells the whole story.
	canceled := false
	st := c.Status()
	for _, r := range st.Runs {
		if r.State == Pending || r.State == Running {
			canceled = true
			c.setRun(r.Index, func(rs *RunStatus) {
				rs.State = Canceled
				rs.Error = "campaign drained before this run started"
			})
			c.bus.publish(Event{Type: EvRunCanceled, Campaign: c.ID, Run: &RunEvent{
				Index: r.Index, Spec: r.Spec.String(),
				Error: "campaign drained before this run started",
			}})
		}
	}
	st = c.Status()
	switch {
	case canceled || !drained:
		c.setState(Canceled)
	case st.Failed > 0:
		c.setState(Failed)
	default:
		c.setState(Done)
	}
	rn.persistStatus(c)
	final := c.Status()
	c.bus.publish(Event{Type: EvCampaignDone, Campaign: c.ID, State: final.State,
		Total: final.Total, Succeeded: final.Succeeded, Failed: final.Failed, Canceled: final.Canceled})
	rn.logf("campaign %s: %s (%d/%d succeeded, %d failed, %d canceled)",
		c.ID, final.State, st.Succeeded, st.Total, st.Failed, st.Canceled)
	return nil
}

// runOne attempts run idx until it succeeds or its attempts are spent.
func (rn *Runner) runOne(c *Campaign, idx int) {
	rs, _ := c.Run(idx)
	r := rs.Spec
	runDir := rn.RunDir(c.ID, idx)
	if c.Spec.Capture {
		r.CaptureDir = filepath.Join(runDir, "pcap")
	}
	timeout := c.Spec.Timeout.Duration()
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	attempts := 1 + c.Spec.Retries
	for a := 1; a <= attempts; a++ {
		c.setRun(idx, func(rs *RunStatus) {
			rs.State = Running
			rs.Attempts = a
		})
		startType := EvRunStarted
		if a > 1 {
			startType = EvRunRetried
		}
		c.bus.publish(Event{Type: startType, Campaign: c.ID,
			Run: &RunEvent{Index: idx, Spec: r.String(), Attempt: a}})
		rn.logf("campaign %s: run %d (%s) attempt %d/%d", c.ID, idx, r, a, attempts)
		out, err := rn.attempt(r, timeout)
		if err == nil {
			if err := os.MkdirAll(runDir, 0o755); err == nil {
				err = writeJSONFile(filepath.Join(runDir, "result.json"), out)
			}
			if err != nil {
				msg := fmt.Sprintf("persisting result: %v", err)
				c.setRun(idx, func(rs *RunStatus) {
					rs.State = Failed
					rs.Error = msg
				})
				c.bus.publish(Event{Type: EvRunFailed, Campaign: c.ID,
					Run: &RunEvent{Index: idx, Spec: r.String(), Attempt: a, Error: msg}})
				return
			}
			c.setRun(idx, func(rs *RunStatus) {
				rs.State = Done
				rs.Error = ""
			})
			wall := out.Wall
			c.bus.publish(Event{Type: EvRunSucceeded, Campaign: c.ID, Run: &RunEvent{
				Index: idx, Spec: r.String(), Attempt: a,
				Digest:   out.Fingerprint.Digest(),
				SteadyRx: out.Fingerprint.SteadyRx,
				Wall:     &wall,
			}})
			return
		}
		c.setRun(idx, func(rs *RunStatus) { rs.Error = err.Error() })
		c.bus.publish(Event{Type: EvRunFailed, Campaign: c.ID,
			Run: &RunEvent{Index: idx, Spec: r.String(), Attempt: a, Error: err.Error()}})
		rn.logf("campaign %s: run %d (%s) attempt %d failed: %v", c.ID, idx, r, a, err)
	}
	c.setRun(idx, func(rs *RunStatus) { rs.State = Failed })
}

// attempt executes one run attempt, converting panics into errors and
// bounding wall time. A timed-out experiment goroutine is abandoned —
// experiments always terminate on their own (the virtual horizon and
// the engine's MaxIdleWall bound them), so abandonment leaks at most a
// finishing run, and the pool moves on immediately.
func (rn *Runner) attempt(r spec.Run, timeout time.Duration) (*spec.Outcome, error) {
	type result struct {
		out *spec.Outcome
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- result{err: fmt.Errorf("run panicked: %v", p)}
			}
		}()
		out, err := rn.exec(r)
		ch <- result{out: out, err: err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.out, res.err
	case <-timer.C:
		return nil, fmt.Errorf("run exceeded its %v timeout", timeout)
	}
}

// persistStatus snapshots status.json. Concurrent workers may race
// here; each write is atomic (temp file + rename) so readers always see
// a complete snapshot.
func (rn *Runner) persistStatus(c *Campaign) {
	path := filepath.Join(rn.CampaignDir(c.ID), "status.json")
	if err := writeJSONFile(path, c.Status()); err != nil {
		rn.logf("campaign %s: writing status: %v", c.ID, err)
	}
}

// Outcome loads run n's persisted result.
func (rn *Runner) Outcome(id string, n int) (*spec.Outcome, error) {
	buf, err := os.ReadFile(filepath.Join(rn.RunDir(id, n), "result.json"))
	if err != nil {
		return nil, err
	}
	var out spec.Outcome
	if err := json.Unmarshal(buf, &out); err != nil {
		return nil, fmt.Errorf("campaign %s run %d: %w", id, n, err)
	}
	return &out, nil
}

// writeJSONFile writes v as indented JSON via temp-file-and-rename, so
// a crash or a concurrent reader never observes a torn file.
func writeJSONFile(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
