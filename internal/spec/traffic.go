package spec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/traffic"
)

// TrafficSpec is a parsed -traffic argument.
type TrafficSpec struct {
	// Kind is "permutation", "stride", "matrix", "pareto", "lognormal",
	// "incast", "alltoall", "ring" or "none".
	Kind string
	// Seed parameterizes the seeded kinds (default 42).
	Seed int64
	// ExplicitSeed records whether the spec named its seed; the
	// campaign seed axis only instantiates specs that did not.
	ExplicitSeed bool
	// N is the kind-specific count: stride distance, heavy-tail flow
	// count (0 = 4 per host), incast fan-in (0 = half the hosts),
	// all-to-all phases / ring steps (0 = full collective).
	N int
	// File is the matrix source (CSV/JSON/pcapng).
	File string
	// Scale multiplies matrix demands (1 = as loaded).
	Scale float64
}

// trafficUsage is the accepted grammar, quoted by parse errors.
const trafficUsage = "permutation[:SEED], stride[:N], matrix:FILE[:SCALE], pareto[:SEED[:N]], lognormal[:SEED[:N]], incast[:SEED[:FANIN]], alltoall[:PHASES], ring[:STEPS], none"

// ParseTraffic parses a -traffic spec string.
func ParseTraffic(s string) (TrafficSpec, error) {
	kind, arg, hasArg := strings.Cut(s, ":")
	switch kind {
	case "none":
		if hasArg {
			return TrafficSpec{}, fmt.Errorf("spec: traffic \"none\" takes no arguments, got %q", s)
		}
		return TrafficSpec{Kind: "none"}, nil
	case "permutation":
		ts := TrafficSpec{Kind: "permutation", Seed: 42}
		if hasArg {
			seed, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return TrafficSpec{}, fmt.Errorf("spec: permutation seed must be an integer, got %q in %q", arg, s)
			}
			ts.Seed = seed
			ts.ExplicitSeed = true
		}
		return ts, nil
	case "stride":
		ts := TrafficSpec{Kind: "stride", N: 1}
		if hasArg {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return TrafficSpec{}, fmt.Errorf("spec: stride distance must be a positive integer, got %q in %q", arg, s)
			}
			ts.N = n
		}
		return ts, nil
	case "matrix":
		if !hasArg || arg == "" {
			return TrafficSpec{}, fmt.Errorf("spec: matrix needs a file, want matrix:FILE[:SCALE] in %q", s)
		}
		ts := TrafficSpec{Kind: "matrix", File: arg, Scale: 1}
		// An optional trailing :SCALE multiplies the loaded demands.
		// A file path containing a colon is refused: String could not
		// spell it back unambiguously.
		if i := strings.LastIndex(arg, ":"); i >= 0 {
			scale, err := strconv.ParseFloat(arg[i+1:], 64)
			if err != nil || scale <= 0 || !finite(scale) {
				return TrafficSpec{}, fmt.Errorf("spec: matrix scale must be a positive finite number, got %q in %q", arg[i+1:], s)
			}
			ts.File = arg[:i]
			ts.Scale = scale
			if ts.File == "" {
				return TrafficSpec{}, fmt.Errorf("spec: matrix needs a file, want matrix:FILE[:SCALE] in %q", s)
			}
		}
		if strings.Contains(ts.File, ":") {
			return TrafficSpec{}, fmt.Errorf("spec: matrix file %q contains a colon, which the string form cannot carry, in %q", ts.File, s)
		}
		return ts, nil
	case "pareto", "lognormal", "incast":
		ts := TrafficSpec{Kind: kind, Seed: 42}
		if hasArg {
			wants, noun := "want "+kind+"[:SEED[:N]]", "flow count"
			if kind == "incast" {
				wants, noun = "want incast[:SEED[:FANIN]]", "fan-in"
			}
			seed, rest, err := seedFields(kind, wants, arg, s, 2)
			if err != nil {
				return TrafficSpec{}, err
			}
			ts.Seed, ts.ExplicitSeed = seed, true
			if len(rest) == 1 {
				if ts.N, err = positiveInt(kind, noun, rest[0], s); err != nil {
					return TrafficSpec{}, err
				}
			}
		}
		return ts, nil
	case "alltoall", "ring":
		ts := TrafficSpec{Kind: kind}
		if hasArg {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				what := "phase count"
				if kind == "ring" {
					what = "step count"
				}
				return TrafficSpec{}, fmt.Errorf("spec: %s %s must be a positive integer, got %q in %q", kind, what, arg, s)
			}
			ts.N = n
		}
		return ts, nil
	default:
		return TrafficSpec{}, fmt.Errorf("spec: unknown traffic %q (want %s)", s, trafficUsage)
	}
}

// Seeded reports whether the traffic kind is parameterized by a seed.
func (ts TrafficSpec) Seeded() bool {
	switch ts.Kind {
	case "permutation", "pareto", "lognormal", "incast":
		return true
	}
	return false
}

// WithSeed returns the spec with its seed replaced — the campaign seed
// axis instantiating a template like "permutation".
func (ts TrafficSpec) WithSeed(seed int64) TrafficSpec {
	ts.Seed = seed
	ts.ExplicitSeed = true
	return ts
}

// Family is the canonical spec string with the seed elided — the
// workload identity an analysis groups by, so the seed-swept instances
// of one template ("pareto:1:2000", "pareto:2:2000") share a label
// while the seed itself lives on its own axis.
func (ts TrafficSpec) Family() string {
	if !ts.Seeded() {
		return ts.String()
	}
	if ts.N > 0 {
		return fmt.Sprintf("%s:*:%d", ts.Kind, ts.N)
	}
	return ts.Kind
}

// String reconstructs the canonical spec string.
func (ts TrafficSpec) String() string {
	switch ts.Kind {
	case "permutation":
		return fmt.Sprintf("permutation:%d", ts.Seed)
	case "stride":
		return fmt.Sprintf("stride:%d", ts.N)
	case "matrix":
		if ts.Scale != 1 {
			return fmt.Sprintf("matrix:%s:%s", ts.File, strconv.FormatFloat(ts.Scale, 'g', -1, 64))
		}
		return "matrix:" + ts.File
	case "pareto", "lognormal", "incast":
		if ts.N > 0 {
			return fmt.Sprintf("%s:%d:%d", ts.Kind, ts.Seed, ts.N)
		}
		return fmt.Sprintf("%s:%d", ts.Kind, ts.Seed)
	case "alltoall", "ring":
		if ts.N > 0 {
			return fmt.Sprintf("%s:%d", ts.Kind, ts.N)
		}
		return ts.Kind
	default:
		return ts.Kind
	}
}

// Pattern returns the workload pattern at the given per-flow rate over
// the run horizon (arrival-driven kinds schedule within it), or nil for
// "none". Matrix sources are loaded here, so a missing or malformed
// file surfaces as an error at experiment build time.
func (ts TrafficSpec) Pattern(rate core.Rate, until core.Time) (traffic.Pattern, error) {
	switch ts.Kind {
	case "permutation":
		return traffic.Permutation(ts.Seed, rate, 0, 0), nil
	case "stride":
		return traffic.Stride(ts.N, rate, 0, 0), nil
	case "matrix":
		m, err := traffic.LoadMatrix(ts.File, ts.Scale)
		if err != nil {
			return nil, err
		}
		return m.Pattern(0, 0), nil
	case "pareto":
		return traffic.Pareto(ts.Seed, ts.N, rate, until), nil
	case "lognormal":
		return traffic.Lognormal(ts.Seed, ts.N, rate, until), nil
	case "incast":
		return traffic.Incast(ts.Seed, ts.N, rate, until), nil
	case "alltoall":
		return traffic.AllToAll(ts.N, rate, 0), nil
	case "ring":
		return traffic.Ring(ts.N, rate, 0), nil
	default:
		return nil, nil
	}
}
