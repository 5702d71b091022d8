package spec

import (
	"fmt"
	"strings"
	"time"

	horse "repro"
	"repro/internal/core"
	"repro/internal/traffic"
)

// CapacitySpec is a parsed -capacity argument: a time-varying link
// capacity generator, the ABC-style workload axis where capacity (not
// connectivity) churns. The generator compiles into
// Experiment.At(t).SetLinkRate injections before Run.
type CapacitySpec struct {
	// Kind is "walk", "trace" or "" (no capacity dynamics).
	Kind string
	// Seed drives the random walk (default 42).
	Seed int64
	// ExplicitSeed records whether the spec named its seed; the
	// campaign seed axis only instantiates specs that did not.
	ExplicitSeed bool
	// Period is the walk step interval (default 500ms).
	Period Duration
	// File is the trace-replay CSV (time,nodeA,nodeB,gbps rows).
	File string
}

// DefaultWalkPeriod is the walk step interval when the spec names none.
const DefaultWalkPeriod = Duration(500 * time.Millisecond)

// capacityUsage is the accepted grammar, quoted by parse errors.
const capacityUsage = "walk[:SEED[:PERIOD]], trace:FILE, none"

// ParseCapacity parses a -capacity spec string. Empty means "none".
func ParseCapacity(s string) (CapacitySpec, error) {
	if s == "" || s == "none" {
		return CapacitySpec{}, nil
	}
	kind, arg, hasArg := strings.Cut(s, ":")
	switch kind {
	case "walk":
		cs := CapacitySpec{Kind: "walk", Seed: 42, Period: DefaultWalkPeriod}
		if hasArg {
			seed, rest, err := seedFields("walk", "want walk[:SEED[:PERIOD]]", arg, s, 2)
			if err != nil {
				return CapacitySpec{}, err
			}
			cs.Seed, cs.ExplicitSeed = seed, true
			if len(rest) == 1 {
				period, err := time.ParseDuration(rest[0])
				if err != nil || period <= 0 {
					return CapacitySpec{}, fmt.Errorf("spec: walk period must be a positive duration like \"250ms\", got %q in %q", rest[0], s)
				}
				cs.Period = Duration(period)
			}
		}
		return cs, nil
	case "trace":
		if !hasArg || arg == "" {
			return CapacitySpec{}, fmt.Errorf("spec: trace needs a file, want trace:FILE in %q", s)
		}
		return CapacitySpec{Kind: "trace", File: arg}, nil
	default:
		return CapacitySpec{}, fmt.Errorf("spec: unknown capacity %q (want %s)", s, capacityUsage)
	}
}

// Seeded reports whether the capacity kind is parameterized by a seed.
func (cs CapacitySpec) Seeded() bool { return cs.Kind == "walk" }

// WithSeed returns the spec with its seed replaced — the campaign seed
// axis instantiating a template like "walk".
func (cs CapacitySpec) WithSeed(seed int64) CapacitySpec {
	cs.Seed = seed
	cs.ExplicitSeed = true
	return cs
}

// Family is the canonical spec string with the seed elided — the
// capacity-dynamics identity an analysis groups by (the seed lives on
// its own axis).
func (cs CapacitySpec) Family() string {
	if !cs.Seeded() {
		return cs.String()
	}
	if cs.Period != DefaultWalkPeriod && cs.Period != 0 {
		return fmt.Sprintf("walk:*:%s", cs.Period.Duration())
	}
	return "walk"
}

// String reconstructs the canonical spec string.
func (cs CapacitySpec) String() string {
	switch cs.Kind {
	case "walk":
		if cs.Period != DefaultWalkPeriod && cs.Period != 0 {
			return fmt.Sprintf("walk:%d:%s", cs.Seed, cs.Period.Duration())
		}
		return fmt.Sprintf("walk:%d", cs.Seed)
	case "trace":
		return "trace:" + cs.File
	default:
		return "none"
	}
}

// Apply compiles the capacity schedule into SetLinkRate injections on
// the experiment (which must already have its topology): the walk
// schedules a seeded multiplicative random walk over every backbone
// cable, the trace replays its file through named links. It returns the
// number of scheduled capacity changes.
func (cs CapacitySpec) Apply(exp *horse.Experiment, until core.Time) (int, error) {
	switch cs.Kind {
	case "":
		return 0, nil
	case "walk":
		period := core.FromDuration(cs.Period.Duration())
		if period <= 0 {
			period = core.FromDuration(DefaultWalkPeriod.Duration())
		}
		return exp.WalkLinkRates(cs.Seed, period, period, until)
	case "trace":
		sched, err := traffic.LoadRateSchedule(cs.File)
		if err != nil {
			return 0, err
		}
		for _, ev := range sched {
			if err := exp.At(ev.At).SetLinkRate(ev.A, ev.B, ev.Rate); err != nil {
				return 0, fmt.Errorf("spec: capacity trace %s at %v: %w", cs.File, ev.At, err)
			}
		}
		return len(sched), nil
	default:
		return 0, fmt.Errorf("spec: unknown capacity kind %q", cs.Kind)
	}
}
