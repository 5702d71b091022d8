package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
//	<id>/events.jsonl      the typed lifecycle event log (one JSON per line);
//	                       the campaign's status is its fold
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
// its log ends in campaign_done, even when setup fails. Its error is the
// setup failure, or else the first event the campaign's lifecycle
// refused.
func (rn *Runner) Run(ctx context.Context, c *Campaign) error {
	defer close(c.done)
	defer c.bus.close()
	logF, err := rn.create(c)
	if err != nil {
		c.finish("campaign setup failed: "+err.Error(), true)
		return err
	}
	defer logF.Close()
	total := c.Status().Total
	c.publish(Event{Type: EvCampaignStarted, State: Running, Total: total})

	workers := max(rn.Concurrency, 1)
	idxCh := make(chan int)
	doneCh := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { doneCh <- struct{}{} }()
			for idx := range idxCh {
				rn.runOne(c, idx)
			}
		}()
	}
feed:
	for i := 0; i < total; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	for w := 0; w < workers; w++ {
		<-doneCh
	}

	// Anything still pending was never started (a drain interrupted the
	// feed).
	c.finish("campaign drained before this run started", false)
	st := c.Status()
	rn.logf("campaign %s: %s (%d/%d succeeded, %d failed, %d canceled)",
		c.ID, st.State, st.Succeeded, st.Total, st.Failed, st.Canceled)
	return c.bus.refusal()
}

// create lays out the campaign's directory and opens its event log,
// flushing the events published before the file existed. The log is the
// campaign's only record, so a log that cannot be opened fails the
// campaign like a directory that cannot be made.
func (rn *Runner) create(c *Campaign) (*os.File, error) {
	dir := rn.CampaignDir(c.ID)
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	if err := writeJSONFile(filepath.Join(dir, "campaign.json"), c.Spec); err != nil {
		return nil, err
	}
	logF, err := os.OpenFile(filepath.Join(dir, "events.jsonl"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	c.bus.attachLog(logF)
	return logF, nil
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
		ev := RunEvent{Index: idx, Spec: r.String(), Attempt: a}
		startType := EvRunStarted
		if a > 1 {
			startType = EvRunRetried
		}
		c.publishRun(startType, Running, ev)
		rn.logf("campaign %s: run %d (%s) attempt %d/%d", c.ID, idx, r, a, attempts)
		out, err := rn.attempt(r, timeout)
		if err == nil {
			if err := os.MkdirAll(runDir, 0o755); err == nil {
				err = writeJSONFile(filepath.Join(runDir, "result.json"), out)
			}
			if err != nil {
				ev.Error = fmt.Sprintf("persisting result: %v", err)
				c.publishRun(EvRunFailed, Failed, ev)
				return
			}
			wall := out.Wall
			ev.Digest, ev.SteadyRx, ev.Wall = out.Fingerprint.Digest(), out.Fingerprint.SteadyRx, &wall
			c.publishRun(EvRunSucceeded, Done, ev)
			return
		}
		ev.Error = err.Error()
		next := Running // a retry follows
		if a == attempts {
			next = Failed
		}
		c.publishRun(EvRunFailed, next, ev)
		rn.logf("campaign %s: run %d (%s) attempt %d failed: %v", c.ID, idx, r, a, err)
	}
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

// restore rebuilds campaign id from its directory: the spec from
// campaign.json, the status from folding events.jsonl through apply,
// which refuses the log at its first illegal step. A log cut short by
// the daemon's death is closed through the same publish, appended to the
// file: every unfinished run is canceled, then campaign_done. A kill
// during a publish can also leave a final line without its newline; that
// line is dropped, and cut from the file before the closing events are
// appended. A log that does not replay is left on disk as it was found.
// The campaign comes back finished. A directory without both files is
// fs.ErrNotExist.
func (rn *Runner) restore(id string) (*Campaign, error) {
	dir := rn.CampaignDir(id)
	buf, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return nil, err
	}
	var sp Spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("campaign.json: %w", err)
	}
	c, err := newCampaign(id, sp)
	if err != nil {
		return nil, err
	}
	logF, err := os.OpenFile(filepath.Join(dir, "events.jsonl"), os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	defer logF.Close()
	logged, err := io.ReadAll(logF)
	if err != nil {
		return nil, err
	}
	whole := logged[:bytes.LastIndexByte(logged, '\n')+1]
	evs, err := readEvents(bytes.NewReader(whole))
	if err != nil {
		return nil, fmt.Errorf("events.jsonl: %w", err)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			return nil, fmt.Errorf("events.jsonl line %d has seq %d", i+1, ev.Seq)
		}
	}
	if err := c.bus.restore(evs); err != nil {
		return nil, fmt.Errorf("events.jsonl %w", err)
	}
	if n := len(evs); n == 0 || evs[n-1].Type != EvCampaignDone {
		// Closed in memory first: the file changes only once the
		// closing events are known to be legal.
		c.finish("interrupted: horsed restarted", false)
		if err := c.bus.refusal(); err != nil {
			return nil, fmt.Errorf("closing events.jsonl: %w", err)
		}
	}
	if len(whole) < len(logged) {
		if err := logF.Truncate(int64(len(whole))); err != nil {
			return nil, err
		}
	}
	c.bus.attachLog(logF)
	c.bus.close()
	close(c.done)
	return c, nil
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
