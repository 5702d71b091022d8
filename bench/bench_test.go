package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// manifest is ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json against the tables the
// program reports from, and against the limits the driver enforces.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer: over the 8/16/128 limits",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	shares := 0.0
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in the manifest, %q in the program (or their whys differ)", i, w.Name, workloads[i].name)
		}
		shares += workloads[i].share
	}
	if mean := shares / float64(len(workloads)); math.Abs(mean-1) > 1e-9 {
		t.Errorf("the workloads' shares of -seconds average %v, want 1", mean)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			unique(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	setup := false
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || e == metricDef{"setup_s", "s", "lower", e.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, better lower")
	}
}

// TestSmokeEmitsEveryMetric runs all four workloads at smoke size, untraced
// and traced, and wants every metric the manifest names exactly once with a
// finite value, and every run passing its output checks.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{seed: 1, reps: 1, trace: trace, smoke: true, outDir: t.TempDir()}
			rep, err := runSet(w, o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, the manifest names %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not reported", w.name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s in %q, manifest says %q", w.name, trace, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s is %v", w.name, trace, d.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s is %v, want > 0", w.name, d.Name, v.Value)
				}
			}
		}
	}
}
