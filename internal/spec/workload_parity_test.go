package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// executeTwice runs one spec twice and returns both fingerprints.
func executeTwice(t *testing.T, r Run) (fps [2]Fingerprint) {
	t.Helper()
	for i := range fps {
		out, err := r.Execute()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		fps[i] = out.Fingerprint
	}
	return fps
}

// TestWorkloadFingerprintRepeatable pins the workload generators into
// the determinism contract: a capacity-churn run (seeded pareto
// heavy-tail traffic under a seeded capacity random walk) must produce
// the bit-identical Fingerprint every time. The injections fire at fixed
// virtual times and the workload is a pure function of its seed, so the
// converged rate vector — captured via Float64bits in the fingerprint —
// may not depend on anything else.
func TestWorkloadFingerprintRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	base := Run{
		Topo:     "fattree:4",
		Scenario: "ecmp5",
		Traffic:  "pareto:7",
		Capacity: "walk:7:250ms",
		Dur:      Duration(2 * time.Second),
		Pacing:   40,
	}
	fps := executeTwice(t, base)
	if len(fps[0].Flows) == 0 {
		t.Fatal("fingerprint holds no flows — the workload never started")
	}
	if !reflect.DeepEqual(fps[0], fps[1]) {
		t.Errorf("fingerprint diverged between two runs of one spec:\n  %+v\n  %+v", fps[0], fps[1])
	}
}

// TestCapacityTraceApply pins the trace-replay half of the -capacity
// axis end to end: a RateSchedule CSV compiles into one SetLinkRate
// injection per row, a row naming an unknown link fails at build time,
// and a replayed run is deterministic run to run.
func TestCapacityTraceApply(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "sched.csv")
	data := `# drop one agg-core link to half capacity, then restore
500ms,agg-0-0,core-0-0,0.5
1s,agg-0-0,core-0-0,1
`
	if err := os.WriteFile(trace, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	base := Run{
		Topo:     "fattree:4",
		Scenario: "ecmp5",
		Traffic:  "permutation:42",
		Capacity: "trace:" + trace,
		Dur:      Duration(2 * time.Second),
		Pacing:   40,
	}
	fps := executeTwice(t, base)
	if !reflect.DeepEqual(fps[0], fps[1]) {
		t.Errorf("trace-replay fingerprint diverged between two runs:\n  %+v\n  %+v", fps[0], fps[1])
	}

	// A trace naming an unknown node errors at experiment build.
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("0s,no-such,node,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := base
	r.Capacity = "trace:" + bad
	if _, err := r.Experiment(); err == nil {
		t.Error("trace with unknown nodes accepted")
	}
}

// TestMatrixTrafficExperiment pins the matrix loader through the full
// Run path: the spec string loads the file at experiment build time and
// a missing file surfaces there as an error.
func TestMatrixTrafficExperiment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	if err := os.WriteFile(path, []byte("0,1\n1,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := Run{
		Topo:     "fattree:4",
		Scenario: "ecmp5",
		Traffic:  "matrix:" + path,
		Dur:      Duration(time.Second),
	}
	if _, err := r.Experiment(); err != nil {
		t.Fatalf("matrix experiment: %v", err)
	}
	r.Traffic = "matrix:" + filepath.Join(dir, "nope.csv")
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate should not touch the filesystem: %v", err)
	}
	if _, err := r.Experiment(); err == nil {
		t.Error("missing matrix file accepted at experiment build")
	}
}
