package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spec"
)

// TestExpand pins the cross-product: axis order, seed-template
// instantiation, and the run count.
func TestExpand(t *testing.T) {
	s := Spec{
		Topos:     []string{"fattree:4", "linear:4"},
		Scenarios: []string{"ecmp5", "reactive"},
		Traffics:  []string{"permutation", "permutation:5", "stride:2"},
		Seeds:     []int64{1, 2},
		Base:      spec.Run{Dur: spec.Duration(2 * time.Second)},
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Workloads: permutation × {1,2} (template), permutation:5 (explicit,
	// once), stride:2 (unseeded, once) = 4; 2 topos × 2 scenarios × 4 = 16.
	if len(runs) != 16 {
		t.Fatalf("Expand: %d runs, want 16", len(runs))
	}
	// The first block is topos[0] × scenarios[0] × all workloads, in
	// workload order.
	wantWorkloads := []string{"permutation:1", "permutation:2", "permutation:5", "stride:2"}
	for i, want := range wantWorkloads {
		r := runs[i]
		if r.Topo != "fattree:4" || r.Scenario != "ecmp5" || r.Traffic != want {
			t.Errorf("run %d = %s, want fattree:4/ecmp5/%s", i, r, want)
		}
	}
	// The slowest axis is the topology.
	if runs[8].Topo != "linear:4" {
		t.Errorf("run 8 topo = %q, want linear:4 (topos are the outer axis)", runs[8].Topo)
	}
	// Base fields propagate and defaults fill in.
	if runs[0].Dur != spec.Duration(2*time.Second) {
		t.Errorf("run 0 dur = %v, want 2s from base", runs[0].Dur.Duration())
	}
	if runs[0].RateGbps != spec.DefaultRate {
		t.Errorf("run 0 rate = %v, want default %v", runs[0].RateGbps, spec.DefaultRate)
	}
}

// TestExpandCapacityAxis pins the capacity axis: it nests inside the
// traffic axis, and a seeded capacity template shares each run's seed
// with a seeded traffic template (one seed per run, not seeds²).
func TestExpandCapacityAxis(t *testing.T) {
	s := Spec{
		Topos:      []string{"fattree:4"},
		Scenarios:  []string{"ecmp5"},
		Traffics:   []string{"permutation"},
		Capacities: []string{"walk", "none"},
		Seeds:      []int64{1, 2},
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// permutation × walk × {1,2} then permutation × none × {1,2}.
	want := []struct{ traffic, capacity string }{
		{"permutation:1", "walk:1"},
		{"permutation:2", "walk:2"},
		{"permutation:1", ""},
		{"permutation:2", ""},
	}
	if len(runs) != len(want) {
		t.Fatalf("Expand: %d runs, want %d", len(runs), len(want))
	}
	for i, w := range want {
		if runs[i].Traffic != w.traffic || runs[i].Capacity != w.capacity {
			t.Errorf("run %d = %s/%s, want %s/%s",
				i, runs[i].Traffic, runs[i].Capacity, w.traffic, w.capacity)
		}
	}

	// A capacity-only template still expands over seeds with unseeded
	// traffic untouched; an explicitly-seeded capacity is inert.
	s.Traffics = []string{"stride:2"}
	s.Capacities = []string{"walk"}
	runs, err = s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Capacity != "walk:1" || runs[1].Capacity != "walk:2" ||
		runs[0].Traffic != "stride:2" {
		t.Fatalf("capacity-only template: %v", runs)
	}
	s.Capacities = []string{"walk:9"}
	runs, err = s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Capacity != "walk:9" {
		t.Fatalf("explicit capacity seed: %v", runs)
	}
}

// TestExpandSeedsWithoutTemplates pins that seeds are inert when every
// traffic names its seed explicitly.
func TestExpandSeedsWithoutTemplates(t *testing.T) {
	s := Spec{
		Topos:     []string{"fattree:4"},
		Scenarios: []string{"ecmp5"},
		Traffics:  []string{"permutation:5"},
		Seeds:     []int64{1, 2, 3},
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Traffic != "permutation:5" {
		t.Fatalf("Expand = %v, want a single permutation:5 run", runs)
	}
}

// TestExpandRejects pins submission-time rejection with errors that name
// the offending axis value — nothing from a bad sweep is scheduled.
func TestExpandRejects(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{"no topos", Spec{Scenarios: []string{"ecmp5"}}, "no topologies"},
		{"no scenarios", Spec{Topos: []string{"fattree:4"}}, "no scenarios"},
		{"bad topo", Spec{Topos: []string{"fattree:x"}, Scenarios: []string{"ecmp5"}}, "fattree"},
		{"bad scenario", Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ospf"}}, "unknown scenario"},
		{"bad traffic", Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"},
			Traffics: []string{"poisson"}}, `traffic "poisson"`},
		{"wan without bgp", Spec{Topos: []string{"wan:abilene"}, Scenarios: []string{"ecmp5"}}, "bgp scenario"},
		{"bad capacity", Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"},
			Capacities: []string{"flap:3"}}, `capacity "flap:3"`},
		{"negative retries", Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"}, Retries: -1}, "retries -1"},
		{"negative timeout", Spec{Topos: []string{"fattree:4"}, Scenarios: []string{"ecmp5"},
			Timeout: spec.Duration(-time.Second)}, "timeout -1s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs, err := tc.spec.Expand()
			if err == nil {
				t.Fatalf("Expand succeeded with %d runs, want error containing %q", len(runs), tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Expand error = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// okOutcome fabricates a minimal successful outcome for stubbed runs.
func okOutcome(r spec.Run) *spec.Outcome {
	return &spec.Outcome{Spec: r}
}

// newTestRunner builds a runner over t.TempDir with a stubbed Exec. When
// the test ends, every campaign log left under the directory must pass
// the lifecycle check (checkLogsUnder).
func newTestRunner(t *testing.T, exec func(r spec.Run) (*spec.Outcome, error)) *Runner {
	t.Helper()
	dir := t.TempDir()
	t.Cleanup(func() { checkLogsUnder(t, dir) })
	return &Runner{
		Dir:         dir,
		Concurrency: 2,
		Exec:        exec,
		Logf:        t.Logf,
	}
}

// smallSpec is a 4-run sweep for the fault-path tests.
func smallSpec() Spec {
	return Spec{
		Name:      "fault",
		Topos:     []string{"fattree:4", "linear:4"},
		Scenarios: []string{"ecmp5"},
		Traffics:  []string{"permutation"},
		Seeds:     []int64{1, 2},
		Timeout:   spec.Duration(5 * time.Second),
	}
}

// TestRunnerHappyPath drains a stubbed campaign and checks the on-disk
// layout: campaign.json, an events.jsonl whose fold is the status, and
// each run's result.json.
func TestRunnerHappyPath(t *testing.T) {
	var calls atomic.Int32
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
		calls.Add(1)
		return okOutcome(r), nil
	})
	c, err := NewCampaign("c0001-happy", smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done channel not closed after Run returned")
	}

	st := c.Status()
	if st.State != Done || st.Succeeded != 4 || st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("status = %s %d/%d/%d, want done 4/0/0", st.State, st.Succeeded, st.Failed, st.Canceled)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("Exec called %d times, want 4", got)
	}

	dir := rn.CampaignDir(c.ID)
	var persisted Spec
	mustReadJSON(t, filepath.Join(dir, "campaign.json"), &persisted)
	if persisted.Name != "fault" {
		t.Errorf("campaign.json name = %q", persisted.Name)
	}
	assertFoldParity(t, rn, c)
	for n := 0; n < 4; n++ {
		out, err := rn.Outcome(c.ID, n)
		if err != nil {
			t.Fatalf("Outcome(%d): %v", n, err)
		}
		rs, _ := c.Run(n)
		// Compare through JSON: Run holds a *float64, so direct struct
		// equality would compare pointer identity.
		want, _ := json.Marshal(rs.Spec)
		got, _ := json.Marshal(out.Spec)
		if string(got) != string(want) {
			t.Errorf("run %d persisted spec %s != status spec %s", n, got, want)
		}
	}
}

// TestRunnerPanic pins that a panicking run is recorded as failed with
// the panic in its error, while the pool keeps draining the rest.
func TestRunnerPanic(t *testing.T) {
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
		if r.Traffic == "permutation:2" {
			panic("solver exploded")
		}
		return okOutcome(r), nil
	})
	c, err := NewCampaign("c0001-panic", smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.State != Failed || st.Succeeded != 2 || st.Failed != 2 {
		t.Fatalf("status = %s %d/%d, want failed with 2 succeeded and 2 failed", st.State, st.Succeeded, st.Failed)
	}
	for _, rs := range st.Runs {
		if rs.Spec.Traffic == "permutation:2" {
			if rs.State != Failed || !strings.Contains(rs.Error, "panic") ||
				!strings.Contains(rs.Error, "solver exploded") {
				t.Errorf("panicked run %d = %s %q, want failed with the panic value", rs.Index, rs.State, rs.Error)
			}
		} else if rs.State != Done {
			t.Errorf("run %d = %s, want done (pool must keep draining past panics)", rs.Index, rs.State)
		}
	}
}

// TestRunnerTimeout pins that a hung run is failed with a timeout error
// and the rest of the sweep completes.
func TestRunnerTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
		if r.Topo == "linear:4" {
			<-release // hang until the test ends
		}
		return okOutcome(r), nil
	})
	s := smallSpec()
	s.Timeout = spec.Duration(50 * time.Millisecond)
	c, err := NewCampaign("c0001-timeout", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.State != Failed || st.Succeeded != 2 || st.Failed != 2 {
		t.Fatalf("status = %s %d/%d, want failed with 2 succeeded and 2 failed", st.State, st.Succeeded, st.Failed)
	}
	for _, rs := range st.Runs {
		if rs.Spec.Topo == "linear:4" {
			if rs.State != Failed || !strings.Contains(rs.Error, "timeout") {
				t.Errorf("hung run %d = %s %q, want failed with a timeout error", rs.Index, rs.State, rs.Error)
			}
		}
	}
}

// TestRunnerRetry pins that a flaky run succeeds on its second attempt
// when the spec grants a retry, with Attempts recording the count.
func TestRunnerRetry(t *testing.T) {
	var calls atomic.Int32
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient failure")
		}
		return okOutcome(r), nil
	})
	s := Spec{
		Topos:     []string{"fattree:4"},
		Scenarios: []string{"ecmp5"},
		Retries:   1,
		Timeout:   spec.Duration(5 * time.Second),
	}
	c, err := NewCampaign("c0001-retry", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.State != Done || st.Succeeded != 1 {
		t.Fatalf("status = %s %d succeeded, want done 1", st.State, st.Succeeded)
	}
	rs, _ := c.Run(0)
	if rs.Attempts != 2 || rs.Error != "" {
		t.Fatalf("run 0 attempts=%d error=%q, want 2 attempts and a cleared error", rs.Attempts, rs.Error)
	}
}

// TestRunnerRetriesExhausted pins the terminal failure after every
// attempt is spent, with the last error preserved.
func TestRunnerRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
		return nil, fmt.Errorf("attempt %d refused", calls.Add(1))
	})
	s := Spec{
		Topos:     []string{"fattree:4"},
		Scenarios: []string{"ecmp5"},
		Retries:   2,
		Timeout:   spec.Duration(5 * time.Second),
	}
	c, err := NewCampaign("c0001-spent", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("Exec called %d times, want 3 (1 + 2 retries)", got)
	}
	rs, _ := c.Run(0)
	if rs.State != Failed || rs.Attempts != 3 || !strings.Contains(rs.Error, "attempt 3 refused") {
		t.Fatalf("run 0 = %s attempts=%d error=%q, want failed/3/last error", rs.State, rs.Attempts, rs.Error)
	}
}

// TestRunnerDrain pins the SIGTERM path: canceling the context mid-sweep
// lets in-flight runs finish and persist while unfed runs are canceled,
// and the fold of events.jsonl records the whole story.
func TestRunnerDrain(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	rn := newTestRunner(t, func(r spec.Run) (*spec.Outcome, error) {
		started <- struct{}{}
		<-release
		return okOutcome(r), nil
	})
	rn.Concurrency = 2
	c, err := NewCampaign("c0001-drain", smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go rn.Run(ctx, c)

	// Wait for both workers to pick up a run, then drain and let the
	// in-flight pair complete.
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never started")
		}
	}
	cancel()
	close(release)
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("campaign never drained")
	}

	st := c.Status()
	if st.State != Canceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	// With an unbuffered feed channel and 2 workers, at least the 2
	// in-flight runs completed; at least one unfed run was canceled.
	if st.Succeeded < 2 {
		t.Errorf("succeeded = %d, want >= 2 (in-flight runs must finish)", st.Succeeded)
	}
	if st.Canceled < 1 {
		t.Errorf("canceled = %d, want >= 1", st.Canceled)
	}
	if st.Succeeded+st.Canceled != st.Total {
		t.Errorf("succeeded %d + canceled %d != total %d", st.Succeeded, st.Canceled, st.Total)
	}

	// Completed runs persisted their results; canceled runs explain why.
	for _, rs := range st.Runs {
		switch rs.State {
		case Done:
			if _, err := rn.Outcome(c.ID, rs.Index); err != nil {
				t.Errorf("completed run %d has no persisted result: %v", rs.Index, err)
			}
		case Canceled:
			if !strings.Contains(rs.Error, "drained") {
				t.Errorf("canceled run %d error = %q, want a drain explanation", rs.Index, rs.Error)
			}
		default:
			t.Errorf("run %d in unexpected state %s after drain", rs.Index, rs.State)
		}
	}
	assertFoldParity(t, rn, c)
}

// TestWriteJSONFileAtomic pins that rewrites go through rename — the
// temp file never lingers and the content is complete.
func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	for i := 0; i < 3; i++ {
		if err := writeJSONFile(path, map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	var v map[string]int
	mustReadJSON(t, path, &v)
	if v["i"] != 2 {
		t.Fatalf("content = %v, want the last write", v)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want just x.json (no temp litter)", len(entries))
	}
}

func mustReadJSON(t *testing.T, path string, v any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestExpandBGPAxes pins the advertise-delay × dampening sub-product:
// axis order (delays outer, dampening inner) and per-run field values.
func TestExpandBGPAxes(t *testing.T) {
	s := Spec{
		Topos:           []string{"wan:tier1"},
		Scenarios:       []string{"bgp-rr"},
		Traffics:        []string{"permutation:7"},
		AdvertiseDelays: []spec.Duration{spec.Duration(2 * time.Millisecond), spec.Duration(50 * time.Millisecond)},
		Dampenings:      []bool{false, true},
		Base:            spec.Run{Dur: spec.Duration(time.Second)},
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("Expand: %d runs, want 4 (2 delays × 2 dampenings)", len(runs))
	}
	want := []struct {
		adv  time.Duration
		damp bool
	}{
		{2 * time.Millisecond, false},
		{2 * time.Millisecond, true},
		{50 * time.Millisecond, false},
		{50 * time.Millisecond, true},
	}
	for i, w := range want {
		if got := runs[i].AdvertiseDelay.Duration(); got != w.adv {
			t.Errorf("run %d: advertise delay = %v, want %v", i, got, w.adv)
		}
		if runs[i].Dampening != w.damp {
			t.Errorf("run %d: dampening = %v, want %v", i, runs[i].Dampening, w.damp)
		}
	}
}

// TestCheckedInMRAICampaign parses the campaign file CI submits to
// horsed (campaigns/mrai-dampening-tier1.json) and expands it, so a
// field rename or a bad axis value fails here instead of in the
// campaign-e2e job.
func TestCheckedInMRAICampaign(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "campaigns", "mrai-dampening-tier1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("campaign file does not match the Spec schema: %v", err)
	}
	runs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("checked-in campaign expands to %d runs, want 4", len(runs))
	}
	seen := map[string]bool{}
	for _, r := range runs {
		if r.Topo != "wan:tier1" || r.Scenario != "bgp-rr" {
			t.Errorf("run %s: want wan:tier1/bgp-rr", r)
		}
		seen[fmt.Sprintf("%v/%v", r.AdvertiseDelay.Duration(), r.Dampening)] = true
	}
	if len(seen) != 4 {
		t.Errorf("sweep covers %d distinct (delay, dampening) points, want 4: %v", len(seen), seen)
	}
	if !s.Capture {
		t.Error("the MRAI campaign must record captures (the e2e job fetches artifacts)")
	}
}
