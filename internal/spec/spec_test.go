package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// topoString is the canonical spelling of a TopoSpec. Nothing outside
// the tests prints one, so the round trip in TestParseTopo owns the
// printer it needs.
func topoString(ts TopoSpec) string {
	switch ts.Kind {
	case TopoFatTree, TopoLinear, TopoStar:
		return fmt.Sprintf("%s:%d", ts.Kind, ts.K)
	case TopoRing:
		return fmt.Sprintf("ring:%d:%d", ts.K, ts.Chord)
	case TopoWAN:
		return "wan:" + ts.Name
	case TopoWANMesh:
		return fmt.Sprintf("wan:mesh:%d:%d", ts.Seed, ts.PoPs)
	case TopoWANMultiAS:
		return fmt.Sprintf("wan:multi:%d:%d:%d:%d", ts.Seed, ts.ASes, ts.PoPs, ts.FullTable)
	default:
		return string(ts.Kind)
	}
}

// topoCases are TestParseTopo's rows; FuzzSpec seeds its corpus with them.
var topoCases = []struct {
	in      string
	want    TopoSpec
	wantErr string // substring of the error; empty = must parse
}{
	{in: "fattree:4", want: TopoSpec{Kind: TopoFatTree, K: 4}},
	{in: "fattree:8", want: TopoSpec{Kind: TopoFatTree, K: 8}},
	{in: "fattree", wantErr: "positive"},
	{in: "fattree:x", wantErr: "positive"},
	{in: "fattree:0", wantErr: "positive"},
	{in: "fattree:-2", wantErr: "positive"},
	{in: "linear:5", want: TopoSpec{Kind: TopoLinear, K: 5}},
	{in: "linear", wantErr: "positive"},
	{in: "star:3", want: TopoSpec{Kind: TopoStar, K: 3}},
	{in: "star:0", wantErr: "positive"},
	{in: "ring:8", want: TopoSpec{Kind: TopoRing, K: 8}},
	{in: "ring:8:2", want: TopoSpec{Kind: TopoRing, K: 8, Chord: 2}},
	{in: "ring:8:0", want: TopoSpec{Kind: TopoRing, K: 8, Chord: 0}},
	{in: "ring", wantErr: "ring:N[:CHORD]"},
	{in: "ring:8:x", wantErr: "chord"},
	{in: "ring:8:-1", wantErr: "chord"},
	{in: "ring:8:2:9", wantErr: "ring:N[:CHORD]"},
	{in: "two-routers", want: TopoSpec{Kind: TopoTwoRouters}},
	{in: "two-routers:1", wantErr: "no arguments"},
	{in: "wan:abilene", want: TopoSpec{Kind: TopoWAN, Name: "abilene"}},
	{in: "wan:tier1", want: TopoSpec{Kind: TopoWAN, Name: "tier1"}},
	{in: "wan:nosuch", wantErr: "unknown WAN backbone"},
	{in: "wan:mesh:7", want: TopoSpec{Kind: TopoWANMesh, Seed: 7, PoPs: 16}},
	{in: "wan:mesh:7:24", want: TopoSpec{Kind: TopoWANMesh, Seed: 7, PoPs: 24}},
	{in: "wan:mesh:-3", want: TopoSpec{Kind: TopoWANMesh, Seed: -3, PoPs: 16}},
	{in: "wan:mesh", wantErr: "needs a seed"},
	{in: "wan:mesh:x", wantErr: "seed must be an integer"},
	{in: "wan:mesh:7:0", wantErr: "PoP count"},
	{in: "wan:mesh:7:24:5", wantErr: "wan:mesh:SEED[:POPS]"},
	{in: "wan:multi:7", want: TopoSpec{Kind: TopoWANMultiAS, Seed: 7, ASes: 3, PoPs: 6}},
	{in: "wan:multi:7:2", want: TopoSpec{Kind: TopoWANMultiAS, Seed: 7, ASes: 2, PoPs: 6}},
	{in: "wan:multi:7:4:10", want: TopoSpec{Kind: TopoWANMultiAS, Seed: 7, ASes: 4, PoPs: 10}},
	{in: "wan:multi:7:2:5:5000", want: TopoSpec{Kind: TopoWANMultiAS, Seed: 7, ASes: 2, PoPs: 5, FullTable: 5000}},
	{in: "wan:multi:-3", want: TopoSpec{Kind: TopoWANMultiAS, Seed: -3, ASes: 3, PoPs: 6}},
	{in: "wan:multi", wantErr: "needs a seed"},
	{in: "wan:multi:x", wantErr: "seed must be an integer"},
	{in: "wan:multi:7:1", wantErr: "AS count"},
	{in: "wan:multi:7:2:0", wantErr: "PoP count"},
	{in: "wan:multi:7:2:5:-1", wantErr: "prefix count"},
	{in: "wan:multi:7:2:5:100:9", wantErr: "wan:multi:SEED[:ASES[:POPS[:PREFIXES]]]"},
	{in: "", wantErr: "empty topology"},
	{in: "mesh:4", wantErr: "unknown topology kind"},
	{in: "fat-tree:4", wantErr: "unknown topology kind"},
}

// TestParseTopo covers every -topo form the CLIs accept, plus the
// malformed specs a campaign submission must reject with an error that
// names the offending part. Every accepted form also round-trips:
// Parse(x.String()) == x, the property each of the four grammar tables
// in this file checks row by row.
func TestParseTopo(t *testing.T) {
	for _, tc := range topoCases {
		t.Run(tc.in, func(t *testing.T) {
			got, err := ParseTopo(tc.in)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("ParseTopo(%q) = %+v, want error containing %q", tc.in, got, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseTopo(%q) error = %q, want it to contain %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseTopo(%q): %v", tc.in, err)
			}
			if got != tc.want {
				t.Fatalf("ParseTopo(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
			if back, err := ParseTopo(topoString(got)); err != nil || back != got {
				t.Errorf("ParseTopo(%q) = %+v, %v; want %+v back", topoString(got), back, err, got)
			}
		})
	}
}

// TestTopoWAN pins which kinds demand a BGP scenario.
func TestTopoWAN(t *testing.T) {
	for in, want := range map[string]bool{
		"wan:abilene": true,
		"wan:mesh:7":  true,
		"wan:multi:7": true,
		"fattree:4":   false,
		"ring:8":      false,
		"two-routers": false,
	} {
		ts, err := ParseTopo(in)
		if err != nil {
			t.Fatalf("ParseTopo(%q): %v", in, err)
		}
		if ts.WAN() != want {
			t.Errorf("ParseTopo(%q).WAN() = %v, want %v", in, ts.WAN(), want)
		}
	}
}

// TestParseScenario covers every scenario name and the BGP flag each
// surface relies on to pick router vs switch forwarding nodes.
func TestParseScenario(t *testing.T) {
	wantBGP := map[string]bool{
		"bgp":      true,
		"bgp-ecmp": true,
		"bgp-rr":   true,
		"ecmp5":    false,
		"hedera":   false,
		"reactive": false,
	}
	names := ScenarioNames()
	if len(names) != len(wantBGP) {
		t.Fatalf("ScenarioNames() = %v, want %d names", names, len(wantBGP))
	}
	for _, name := range names {
		sc, err := ParseScenario(name)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("ParseScenario(%q).Name = %q", name, sc.Name)
		}
		if back, err := ParseScenario(sc.Name); err != nil || back != sc {
			t.Errorf("ParseScenario(%q) = %+v, %v; want %+v back", sc.Name, back, err, sc)
		}
		want, ok := wantBGP[name]
		if !ok {
			t.Errorf("unexpected scenario %q in ScenarioNames()", name)
			continue
		}
		if sc.BGP() != want {
			t.Errorf("ParseScenario(%q).BGP() = %v, want %v", name, sc.BGP(), want)
		}
	}
	if _, err := ParseScenario("ospf"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("ParseScenario(\"ospf\") error = %v, want unknown scenario", err)
	}
	if _, err := ParseScenario(""); err == nil {
		t.Error("ParseScenario(\"\") succeeded, want error")
	}
}

// trafficCases are TestParseTraffic's rows; FuzzSpec seeds its corpus with them.
var trafficCases = []struct {
	in         string
	want       TrafficSpec
	wantStr    string
	wantSeeded bool
	wantErr    string
}{
	{in: "permutation", want: TrafficSpec{Kind: "permutation", Seed: 42}, wantStr: "permutation:42", wantSeeded: true},
	{in: "permutation:7", want: TrafficSpec{Kind: "permutation", Seed: 7, ExplicitSeed: true}, wantStr: "permutation:7", wantSeeded: true},
	{in: "permutation:-1", want: TrafficSpec{Kind: "permutation", Seed: -1, ExplicitSeed: true}, wantStr: "permutation:-1", wantSeeded: true},
	{in: "permutation:x", wantErr: "seed must be an integer"},
	{in: "stride", want: TrafficSpec{Kind: "stride", N: 1}, wantStr: "stride:1"},
	{in: "stride:4", want: TrafficSpec{Kind: "stride", N: 4}, wantStr: "stride:4"},
	{in: "stride:0", wantErr: "positive"},
	{in: "stride:x", wantErr: "positive"},
	{in: "none", want: TrafficSpec{Kind: "none"}, wantStr: "none"},
	{in: "none:1", wantErr: "no arguments"},
	{in: "matrix:demands.csv", want: TrafficSpec{Kind: "matrix", File: "demands.csv", Scale: 1}, wantStr: "matrix:demands.csv"},
	{in: "matrix:demands.csv:2", want: TrafficSpec{Kind: "matrix", File: "demands.csv", Scale: 2}, wantStr: "matrix:demands.csv:2"},
	{in: "matrix:trace.pcapng:0.5", want: TrafficSpec{Kind: "matrix", File: "trace.pcapng", Scale: 0.5}, wantStr: "matrix:trace.pcapng:0.5"},
	{in: "matrix", wantErr: "needs a file"},
	{in: "matrix:", wantErr: "needs a file"},
	{in: "matrix::2", wantErr: "needs a file"},
	{in: "matrix:demands.csv:0", wantErr: "positive"},
	{in: "matrix:demands.csv:x", wantErr: "positive"},
	{in: "matrix:demands.csv:inf", wantErr: "finite"},
	{in: "matrix:demands.csv:nan", wantErr: "finite"},
	{in: "matrix:a:5:1", wantErr: "colon"},
	{in: "pareto", want: TrafficSpec{Kind: "pareto", Seed: 42}, wantStr: "pareto:42", wantSeeded: true},
	{in: "pareto:7", want: TrafficSpec{Kind: "pareto", Seed: 7, ExplicitSeed: true}, wantStr: "pareto:7", wantSeeded: true},
	{in: "pareto:7:100", want: TrafficSpec{Kind: "pareto", Seed: 7, ExplicitSeed: true, N: 100}, wantStr: "pareto:7:100", wantSeeded: true},
	{in: "pareto:x", wantErr: "seed must be an integer"},
	{in: "pareto:7:0", wantErr: "positive"},
	{in: "pareto:7:100:9", wantErr: "pareto[:SEED[:N]]"},
	{in: "lognormal", want: TrafficSpec{Kind: "lognormal", Seed: 42}, wantStr: "lognormal:42", wantSeeded: true},
	{in: "lognormal:3:50", want: TrafficSpec{Kind: "lognormal", Seed: 3, ExplicitSeed: true, N: 50}, wantStr: "lognormal:3:50", wantSeeded: true},
	{in: "incast", want: TrafficSpec{Kind: "incast", Seed: 42}, wantStr: "incast:42", wantSeeded: true},
	{in: "incast:7", want: TrafficSpec{Kind: "incast", Seed: 7, ExplicitSeed: true}, wantStr: "incast:7", wantSeeded: true},
	{in: "incast:7:8", want: TrafficSpec{Kind: "incast", Seed: 7, ExplicitSeed: true, N: 8}, wantStr: "incast:7:8", wantSeeded: true},
	{in: "incast:x", wantErr: "seed must be an integer"},
	{in: "incast:7:0", wantErr: "positive"},
	{in: "alltoall", want: TrafficSpec{Kind: "alltoall"}, wantStr: "alltoall"},
	{in: "alltoall:3", want: TrafficSpec{Kind: "alltoall", N: 3}, wantStr: "alltoall:3"},
	{in: "alltoall:0", wantErr: "positive"},
	{in: "ring", want: TrafficSpec{Kind: "ring"}, wantStr: "ring"},
	{in: "ring:4", want: TrafficSpec{Kind: "ring", N: 4}, wantStr: "ring:4"},
	{in: "ring:x", wantErr: "positive"},
	{in: "poisson", wantErr: "unknown traffic"},
	{in: "", wantErr: "unknown traffic"},
}

// TestParseTraffic covers the workload grammar, seed-template detection
// (the campaign seed axis), and canonical String round-trips.
func TestParseTraffic(t *testing.T) {
	for _, tc := range trafficCases {
		t.Run(tc.in, func(t *testing.T) {
			got, err := ParseTraffic(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseTraffic(%q) error = %v, want it to contain %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseTraffic(%q): %v", tc.in, err)
			}
			if got != tc.want {
				t.Fatalf("ParseTraffic(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
			if got.String() != tc.wantStr {
				t.Errorf("ParseTraffic(%q).String() = %q, want %q", tc.in, got.String(), tc.wantStr)
			}
			if got.Seeded() != tc.wantSeeded {
				t.Errorf("ParseTraffic(%q).Seeded() = %v, want %v", tc.in, got.Seeded(), tc.wantSeeded)
			}
			// The canonical string names its seed, so only a seed
			// template ("pareto") comes back changed, and only there.
			got.ExplicitSeed = got.Seeded()
			if back, err := ParseTraffic(tc.wantStr); err != nil || back != got || back.String() != tc.wantStr {
				t.Errorf("ParseTraffic(%q) = %+v, %v; want %+v back", tc.wantStr, back, err, got)
			}
		})
	}
}

// TestTrafficWithSeed pins the campaign seed-axis instantiation: a
// template without an explicit seed becomes an explicitly-seeded spec,
// for every seedable kind.
func TestTrafficWithSeed(t *testing.T) {
	for in, want := range map[string]string{
		"permutation": "permutation:9",
		"pareto":      "pareto:9",
		"lognormal":   "lognormal:9",
		"incast":      "incast:9",
	} {
		ts, err := ParseTraffic(in)
		if err != nil {
			t.Fatal(err)
		}
		got := ts.WithSeed(9)
		if got.Seed != 9 || !got.ExplicitSeed {
			t.Fatalf("ParseTraffic(%q).WithSeed(9) = %+v, want Seed=9 ExplicitSeed=true", in, got)
		}
		if got.String() != want {
			t.Fatalf("ParseTraffic(%q).WithSeed(9).String() = %q, want %q", in, got.String(), want)
		}
		// The receiver is unchanged (value semantics).
		if ts.ExplicitSeed {
			t.Errorf("WithSeed mutated its %s receiver", in)
		}
	}
}

// capacityCases are TestParseCapacity's rows; FuzzSpec seeds its corpus with them.
var capacityCases = []struct {
	in         string
	want       CapacitySpec
	wantStr    string
	wantSeeded bool
	wantErr    string
}{
	{in: "", want: CapacitySpec{}, wantStr: "none"},
	{in: "none", want: CapacitySpec{}, wantStr: "none"},
	{in: "walk", want: CapacitySpec{Kind: "walk", Seed: 42, Period: DefaultWalkPeriod}, wantStr: "walk:42", wantSeeded: true},
	{in: "walk:7", want: CapacitySpec{Kind: "walk", Seed: 7, ExplicitSeed: true, Period: DefaultWalkPeriod}, wantStr: "walk:7", wantSeeded: true},
	{in: "walk:-1", want: CapacitySpec{Kind: "walk", Seed: -1, ExplicitSeed: true, Period: DefaultWalkPeriod}, wantStr: "walk:-1", wantSeeded: true},
	{in: "walk:7:250ms", want: CapacitySpec{Kind: "walk", Seed: 7, ExplicitSeed: true, Period: Duration(250 * time.Millisecond)}, wantStr: "walk:7:250ms", wantSeeded: true},
	{in: "walk:7:500ms", want: CapacitySpec{Kind: "walk", Seed: 7, ExplicitSeed: true, Period: DefaultWalkPeriod}, wantStr: "walk:7", wantSeeded: true},
	{in: "walk:x", wantErr: "seed must be an integer"},
	{in: "walk:7:0s", wantErr: "positive duration"},
	{in: "walk:7:brief", wantErr: "positive duration"},
	{in: "walk:7:250ms:9", wantErr: "walk[:SEED[:PERIOD]]"},
	{in: "trace:sched.csv", want: CapacitySpec{Kind: "trace", File: "sched.csv"}, wantStr: "trace:sched.csv"},
	{in: "trace", wantErr: "needs a file"},
	{in: "trace:", wantErr: "needs a file"},
	{in: "flap:3", wantErr: "unknown capacity"},
}

// TestParseCapacity covers the -capacity grammar, seed-template
// detection and canonical String round-trips, mirroring the traffic
// table.
func TestParseCapacity(t *testing.T) {
	for _, tc := range capacityCases {
		t.Run(tc.in, func(t *testing.T) {
			got, err := ParseCapacity(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseCapacity(%q) error = %v, want it to contain %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseCapacity(%q): %v", tc.in, err)
			}
			if got != tc.want {
				t.Fatalf("ParseCapacity(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
			if got.String() != tc.wantStr {
				t.Errorf("ParseCapacity(%q).String() = %q, want %q", tc.in, got.String(), tc.wantStr)
			}
			if got.Seeded() != tc.wantSeeded {
				t.Errorf("ParseCapacity(%q).Seeded() = %v, want %v", tc.in, got.Seeded(), tc.wantSeeded)
			}
			got.ExplicitSeed = got.Seeded()
			if back, err := ParseCapacity(tc.wantStr); err != nil || back != got || back.String() != tc.wantStr {
				t.Errorf("ParseCapacity(%q) = %+v, %v; want %+v back", tc.wantStr, back, err, got)
			}
		})
	}
}

// TestCapacityWithSeed pins seed-axis instantiation for the walk
// template, including period preservation.
func TestCapacityWithSeed(t *testing.T) {
	cs, err := ParseCapacity("walk")
	if err != nil {
		t.Fatal(err)
	}
	got := cs.WithSeed(9)
	if got.Seed != 9 || !got.ExplicitSeed {
		t.Fatalf("WithSeed(9) = %+v, want Seed=9 ExplicitSeed=true", got)
	}
	if got.String() != "walk:9" {
		t.Fatalf("WithSeed(9).String() = %q, want walk:9", got.String())
	}
	if cs.ExplicitSeed {
		t.Error("WithSeed mutated its receiver")
	}

	period, err := ParseCapacity("walk:1:250ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := period.WithSeed(5).String(); got != "walk:5:250ms" {
		t.Fatalf("walk:1:250ms WithSeed(5) = %q, want walk:5:250ms", got)
	}
}

// TestRunValidate covers the cross-field checks on top of the per-part
// grammars.
func TestRunValidate(t *testing.T) {
	valid := Run{Topo: "fattree:4", Scenario: "ecmp5"}
	if err := valid.Validate(); err != nil {
		t.Fatalf("minimal run invalid: %v", err)
	}

	neg := func(f func(r *Run)) Run {
		r := valid
		f(&r)
		return r
	}
	negDS, nanDS := -0.5, math.NaN()
	cases := []struct {
		name    string
		run     Run
		wantErr string
	}{
		{"bad topo", Run{Topo: "fattree:x", Scenario: "ecmp5"}, "positive"},
		{"bad scenario", Run{Topo: "fattree:4", Scenario: "ospf"}, "unknown scenario"},
		{"bad traffic", Run{Topo: "fattree:4", Scenario: "ecmp5", Traffic: "poisson"}, "unknown traffic"},
		{"bad capacity", Run{Topo: "fattree:4", Scenario: "ecmp5", Capacity: "flap:3"}, "unknown capacity"},
		{"bad capacity period", Run{Topo: "fattree:4", Scenario: "ecmp5", Capacity: "walk:7:0s"}, "positive duration"},
		{"wan needs bgp", Run{Topo: "wan:abilene", Scenario: "ecmp5"}, "needs a bgp scenario"},
		{"wan mesh needs bgp", Run{Topo: "wan:mesh:7", Scenario: "hedera"}, "needs a bgp scenario"},
		{"negative rate", neg(func(r *Run) { r.RateGbps = -1 }), "negative rate"},
		{"negative dur", neg(func(r *Run) { r.Dur = Duration(-time.Second) }), "negative duration"},
		{"negative pacing", neg(func(r *Run) { r.Pacing = -2 }), "negative pacing"},
		{"negative delay scale", neg(func(r *Run) { r.DelayScale = &negDS }), "negative delay scale"},
		{"NaN rate", neg(func(r *Run) { r.RateGbps = math.NaN() }), "not a finite number"},
		{"infinite rate", neg(func(r *Run) { r.RateGbps = math.Inf(1) }), "not a finite number"},
		{"infinite pacing", neg(func(r *Run) { r.Pacing = math.Inf(1) }), "not a finite number"},
		{"NaN delay scale", neg(func(r *Run) { r.DelayScale = &nanDS }), "not a finite number"},
		{"negative advertise delay", neg(func(r *Run) { r.AdvertiseDelay = Duration(-time.Millisecond) }), "negative advertise delay"},
		{"negative sample interval", neg(func(r *Run) { r.SampleInterval = Duration(-10 * time.Millisecond) }), "negative sample interval"},
		{"wan multi needs bgp", Run{Topo: "wan:multi:7", Scenario: "ecmp5"}, "needs a bgp scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate(%+v) error = %v, want it to contain %q", tc.run, err, tc.wantErr)
			}
		})
	}

	// WAN topologies with BGP scenarios are fine.
	for _, topo := range []string{"wan:abilene", "wan:mesh:7", "wan:multi:7:2:4"} {
		r := Run{Topo: topo, Scenario: "bgp-rr"}
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%s/bgp-rr): %v", topo, err)
		}
	}
}

// TestRunWithDefaults pins the CLI default values and that explicit
// values survive.
func TestRunWithDefaults(t *testing.T) {
	got := Run{Topo: "fattree:4", Scenario: "ecmp5"}.WithDefaults()
	if got.Traffic != DefaultTraffic {
		t.Errorf("Traffic = %q, want %q", got.Traffic, DefaultTraffic)
	}
	if got.RateGbps != DefaultRate {
		t.Errorf("RateGbps = %v, want %v", got.RateGbps, DefaultRate)
	}
	if got.Dur != DefaultDur {
		t.Errorf("Dur = %v, want %v", got.Dur.Duration(), DefaultDur.Duration())
	}
	if got.Pacing != DefaultPacing {
		t.Errorf("Pacing = %v, want %v", got.Pacing, DefaultPacing)
	}
	if got.DelayScale == nil || *got.DelayScale != 1.0 {
		t.Errorf("DelayScale = %v, want 1.0", got.DelayScale)
	}

	zero := 0.0
	explicit := Run{
		Topo: "fattree:4", Scenario: "ecmp5",
		Traffic: "stride:2", RateGbps: 2.5, Dur: Duration(5 * time.Second),
		Pacing: 40, DelayScale: &zero,
	}.WithDefaults()
	if explicit.Traffic != "stride:2" || explicit.RateGbps != 2.5 ||
		explicit.Dur != Duration(5*time.Second) || explicit.Pacing != 40 {
		t.Errorf("WithDefaults clobbered explicit values: %+v", explicit)
	}
	if explicit.DelayScale == nil || *explicit.DelayScale != 0 {
		t.Error("WithDefaults clobbered the explicit zero-latency DelayScale")
	}
}

// TestDurationJSON pins the wire format: marshals as a Go duration
// string, unmarshals from either a string or nanoseconds.
func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(20 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"20s"` {
		t.Fatalf("Marshal(20s) = %s, want \"20s\"", b)
	}

	for in, want := range map[string]Duration{
		`"20s"`:      Duration(20 * time.Second),
		`"150ms"`:    Duration(150 * time.Millisecond),
		`"1m30s"`:    Duration(90 * time.Second),
		`2000000000`: Duration(2 * time.Second),
	} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err != nil {
			t.Errorf("Unmarshal(%s): %v", in, err)
			continue
		}
		if d != want {
			t.Errorf("Unmarshal(%s) = %v, want %v", in, d.Duration(), want.Duration())
		}
	}

	for _, in := range []string{`"20 parsecs"`, `true`, `{"ns": 5}`} {
		var d Duration
		if err := json.Unmarshal([]byte(in), &d); err == nil {
			t.Errorf("Unmarshal(%s) succeeded with %v, want error", in, d.Duration())
		}
	}
}

// TestRunJSONRoundTrip pins that a Run survives the management API wire
// format unchanged.
func TestRunJSONRoundTrip(t *testing.T) {
	ds := 0.5
	r := Run{
		Topo: "wan:mesh:7:24", Scenario: "bgp-rr", Traffic: "permutation:9",
		Capacity: "walk:7:250ms",
		RateGbps: 2, Dur: Duration(5 * time.Second), Pacing: 40,
		SampleInterval: Duration(10 * time.Millisecond), DelayScale: &ds,
		Dampening: true, AdvertiseDelay: Duration(50 * time.Millisecond),
		CaptureDir: "pcap",
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got Run
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.DelayScale == nil || *got.DelayScale != ds {
		t.Fatalf("DelayScale did not round-trip: %v", got.DelayScale)
	}
	got.DelayScale, r.DelayScale = nil, nil
	if got != r {
		t.Fatalf("round trip changed the run:\n got %+v\nwant %+v", got, r)
	}
}

// TestRunString pins the log label format the campaign runner prints.
func TestRunString(t *testing.T) {
	r := Run{Topo: "fattree:4", Scenario: "ecmp5", Traffic: "permutation:7"}
	if got := r.String(); got != "fattree:4/ecmp5/permutation:7" {
		t.Fatalf("String() = %q", got)
	}
	r.Capacity = "walk:7"
	if got := r.String(); got != "fattree:4/ecmp5/permutation:7/walk:7" {
		t.Fatalf("String() = %q", got)
	}
}

// TestExperimentBadRun pins that Experiment rejects what Validate
// rejects (the daemon calls Validate at submission, but Execute must be
// safe against a spec that bypassed it).
// TestNonFiniteInputsRefused feeds NaN and Inf through the workload files
// a run reads (TestRunValidate covers the numeric Run fields). Each must
// be an error before Run: a NaN rate or capacity reaches the max–min
// solver, whose fill never terminates on one.
func TestNonFiniteInputsRefused(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	nanCSV := write("nan.csv", "0,NaN\n1,0\n")
	okCSV := write("ok.csv", "0,1\n1,0\n")
	zeroCSV := write("zero.csv", "0,0\n0,0\n")
	hugeCSV := write("huge.csv", "0,1e300\n1,0\n")
	nanTrace := write("nan-rate.csv", "1s,agg-0-0,core-0-0,NaN\n")
	base := Run{Topo: "fattree:4", Scenario: "ecmp5", Dur: Duration(2 * time.Second)}
	with := func(f func(r *Run)) Run {
		r := base
		f(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		run  Run
	}{
		{"NaN matrix cell", with(func(r *Run) { r.Traffic = "matrix:" + nanCSV })},
		{"NaN matrix scale", with(func(r *Run) { r.Traffic = "matrix:" + okCSV + ":nan" })},
		{"zero times infinite scale", with(func(r *Run) { r.Traffic = "matrix:" + zeroCSV + ":inf" })},
		{"overflowing demand", with(func(r *Run) { r.Traffic = "matrix:" + hugeCSV + ":1e300" })},
		{"NaN capacity trace", with(func(r *Run) { r.Capacity = "trace:" + nanTrace })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.run.Experiment(); err == nil {
				t.Fatalf("Experiment(%s) accepted a non-finite input", tc.run)
			}
		})
	}
}

func TestExperimentBadRun(t *testing.T) {
	if _, err := (Run{Topo: "fattree:x", Scenario: "ecmp5"}).Experiment(); err == nil {
		t.Error("Experiment accepted a malformed topo")
	}
	if _, err := (Run{Topo: "wan:abilene", Scenario: "ecmp5"}).Experiment(); err == nil {
		t.Error("Experiment accepted a WAN topo without a BGP scenario")
	}
}
