package spec

import (
	"math"
	"testing"
	"time"
)

// TestRunAxes pins the axis labeling the campaign analysis groups by:
// seeded workloads collapse to a seed-elided family label plus a seed
// axis, unseeded ones keep their literal spelling.
func TestRunAxes(t *testing.T) {
	cases := []struct {
		name string
		run  Run
		want map[string]string
	}{
		{
			name: "defaults",
			run:  Run{Topo: "fattree:4", Scenario: "ecmp5"},
			want: map[string]string{
				"topo": "fattree:4", "scenario": "ecmp5",
				"traffic": "permutation", "seed": "42",
				"advertise_delay": "0s", "dampening": "false",
			},
		},
		{
			name: "seeded pareto",
			run:  Run{Topo: "linear:4", Scenario: "ecmp5", Traffic: "pareto:7:2000"},
			want: map[string]string{
				"topo": "linear:4", "scenario": "ecmp5",
				"traffic": "pareto:*:2000", "seed": "7",
				"advertise_delay": "0s", "dampening": "false",
			},
		},
		{
			name: "mrai sweep cell",
			run: Run{Topo: "wan:tier1", Scenario: "bgp-rr", Traffic: "permutation:7",
				AdvertiseDelay: Duration(50 * time.Millisecond), Dampening: true},
			want: map[string]string{
				"topo": "wan:tier1", "scenario": "bgp-rr",
				"traffic": "permutation", "seed": "7",
				"advertise_delay": "50ms", "dampening": "true",
			},
		},
		{
			name: "unseeded traffic keeps its spelling, seeded capacity supplies the seed",
			run: Run{Topo: "fattree:4", Scenario: "ecmp5", Traffic: "stride:8",
				Capacity: "walk:9:250ms"},
			want: map[string]string{
				"topo": "fattree:4", "scenario": "ecmp5",
				"traffic": "stride:8", "capacity": "walk:*:250ms", "seed": "9",
				"advertise_delay": "0s", "dampening": "false",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run.Axes()
			for k, want := range tc.want {
				if got[k] != want {
					t.Errorf("axis %s = %q, want %q (all: %v)", k, got[k], want, got)
				}
			}
			for k := range got {
				if _, ok := tc.want[k]; !ok {
					t.Errorf("unexpected axis %s=%q", k, got[k])
				}
			}
		})
	}

	// Two runs differing only in seed share every axis but seed — the
	// property the analysis grouping depends on.
	a := Run{Topo: "fattree:4", Scenario: "ecmp5", Traffic: "pareto:1:2000"}.Axes()
	b := Run{Topo: "fattree:4", Scenario: "ecmp5", Traffic: "pareto:2:2000"}.Axes()
	for k := range a {
		if k == "seed" {
			if a[k] == b[k] {
				t.Errorf("seed axis should differ: %q vs %q", a[k], b[k])
			}
			continue
		}
		if a[k] != b[k] {
			t.Errorf("axis %s differs across seeds: %q vs %q", k, a[k], b[k])
		}
	}
}

// TestFingerprintDigest pins the digest used in run_succeeded events:
// stable for equal fingerprints, sensitive to any flow-rate change.
func TestFingerprintDigest(t *testing.T) {
	fp := Fingerprint{
		SteadyRxBits: math.Float64bits(3e8),
		SteadyRx:     "300Mbps",
		Flows: []FlowPrint{
			{Tuple: "a->b", State: "active", RateBits: math.Float64bits(1e8)},
		},
	}
	d := fp.Digest()
	if len(d) != 16 {
		t.Fatalf("digest %q, want 16 hex chars", d)
	}
	if d2 := fp.Digest(); d2 != d {
		t.Fatalf("digest not stable: %q vs %q", d, d2)
	}
	cp := fp
	cp.Flows = []FlowPrint{
		{Tuple: "a->b", State: "active", RateBits: math.Float64bits(1e8 + 1)},
	}
	if cp.Digest() == d {
		t.Fatal("digest unchanged after a flow-rate bit flip")
	}
}
