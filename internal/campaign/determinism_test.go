package campaign

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// TestDaemonRunMatchesCLIRun is the service-boundary determinism pin: a
// run submitted to the daemon over HTTP must produce the bit-identical
// Fingerprint to the same spec executed directly through spec.Run
// (which is cmd/horse's code path), on each of two workload seeds.
//
// Full Results are NOT comparable across executions — the FTI clock
// paces the control plane against the wall, so byte and solve counters
// jitter; those live in WallStats. The Fingerprint (converged flow
// rates via Float64bits, flow states, path latencies, steady aggregate
// rx) is the deterministic projection, and this test holds it to
// bit-for-bit equality.
func TestDaemonRunMatchesCLIRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}

	// High pacing compresses the FTI windows so the 2s virtual run takes
	// ~50ms of wall time; ecmp5 is the topology-generic deterministic
	// scenario (hedera's polling is wall-timing-sensitive).
	base := spec.Run{
		Dur:    spec.Duration(2 * time.Second),
		Pacing: 40,
	}

	// The daemon side: a real runner (Exec nil = spec.Run.Execute), a
	// seed axis of 42 and 7, submitted over HTTP like any client.
	srv := NewServer(&Runner{Dir: t.TempDir(), Concurrency: 2, Logf: t.Logf}, t.Logf)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{
		"name": "determinism",
		"topos": ["fattree:4"],
		"scenarios": ["ecmp5"],
		"traffics": ["permutation"],
		"seeds": [42, 7],
		"base": {"dur": "2s", "pacing": 40},
		"timeout": "2m"
	}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created Status
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.Total != 2 {
		t.Fatalf("POST = %d with %d runs, want 201 with 2", resp.StatusCode, created.Total)
	}

	st := waitDone(t, ts, created.ID)
	if st.State != Done {
		t.Fatalf("campaign = %s (%d failed), want done; runs: %+v", st.State, st.Failed, st.Runs)
	}

	var daemon [2]spec.Outcome
	for n := 0; n < 2; n++ {
		getJSON(t, ts.URL+"/campaigns/"+created.ID+"/runs/"+string(rune('0'+n)), http.StatusOK, &daemon[n])
	}

	// The CLI side: the same specs through Run.Execute, which is exactly
	// what cmd/horse does after flag parsing.
	for n, traffic := range []string{"permutation:42", "permutation:7"} {
		if daemon[n].Spec.Traffic != traffic {
			t.Fatalf("daemon run %d ran %s, want %s", n, daemon[n].Spec.Traffic, traffic)
		}
		cli := base
		cli.Topo = "fattree:4"
		cli.Scenario = "ecmp5"
		cli.Traffic = traffic
		cliOut, err := cli.Execute()
		if err != nil {
			t.Fatal(err)
		}
		assertFingerprintsEqual(t, "daemon vs CLI on "+traffic, daemon[n].Fingerprint, cliOut.Fingerprint)
	}
	if daemon[0].Fingerprint.Digest() == daemon[1].Fingerprint.Digest() {
		t.Error("the two seeds produced one fingerprint: the seed axis did not reach the workload")
	}
}

// assertFingerprintsEqual compares two fingerprints field by field so a
// regression names exactly what diverged.
func assertFingerprintsEqual(t *testing.T, label string, a, b spec.Fingerprint) {
	t.Helper()
	if a.Hosts != b.Hosts || a.Switches != b.Switches || a.Routers != b.Routers {
		t.Errorf("%s: topology %d/%d/%d vs %d/%d/%d", label,
			a.Hosts, a.Switches, a.Routers, b.Hosts, b.Switches, b.Routers)
	}
	if a.SteadyRxBits != b.SteadyRxBits {
		t.Errorf("%s: steady rx %s (%#x) vs %s (%#x)", label,
			a.SteadyRx, a.SteadyRxBits, b.SteadyRx, b.SteadyRxBits)
	}
	if a.MeanPathLatencyNs != b.MeanPathLatencyNs {
		t.Errorf("%s: mean path latency %dns vs %dns", label,
			a.MeanPathLatencyNs, b.MeanPathLatencyNs)
	}
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("%s: %d flows vs %d", label, len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		fa, fb := a.Flows[i], b.Flows[i]
		if fa != fb {
			t.Errorf("%s: flow %d diverged:\n  %+v\n  %+v", label, i, fa, fb)
		}
	}
}

// TestExecuteFingerprintStable runs the same spec twice back to back in
// process and demands bit-identical fingerprints — the cheaper cousin of
// the daemon test, catching in-process nondeterminism (map iteration,
// scheduling-order dependence) without the HTTP machinery.
func TestExecuteFingerprintStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	r := spec.Run{
		Topo:     "fattree:4",
		Scenario: "ecmp5",
		Traffic:  "permutation:7",
		Dur:      spec.Duration(2 * time.Second),
		Pacing:   40,
	}
	first, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	assertFingerprintsEqual(t, "run 1 vs run 2", first.Fingerprint, second.Fingerprint)
}
