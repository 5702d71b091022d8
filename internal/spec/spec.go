// Package spec is the shared experiment-specification layer: the one
// place that parses the -topo/-scenario/-traffic string forms and
// expands a fully-specified Run into a configured horse.Experiment.
// cmd/horse (both of its subcommands) and the horsed campaign daemon
// consume this package, so a run submitted over the management API is
// by construction the same experiment as the equivalent CLI
// invocation — the determinism tests in internal/campaign pin that.
//
// A Run is JSON-serializable (it is the unit the campaign API submits)
// and durations marshal as Go duration strings ("20s", "150ms").
package spec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	horse "repro"
	"repro/internal/core"
)

// Duration is a time.Duration that marshals to JSON as a Go duration
// string ("20s") and unmarshals from either a string or a number of
// nanoseconds.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v := v.(type) {
	case string:
		parsed, err := time.ParseDuration(v)
		if err != nil {
			return fmt.Errorf("spec: bad duration %q: %w", v, err)
		}
		*d = Duration(parsed)
		return nil
	case float64:
		*d = Duration(time.Duration(v))
		return nil
	default:
		return fmt.Errorf("spec: duration must be a string like \"20s\" or nanoseconds, got %T", v)
	}
}

// Duration converts back to the standard type.
func (d Duration) Duration() time.Duration { return time.Duration(d) }

// Run is one fully-specified experiment: the same knobs the CLIs accept
// as flags, in the canonical string forms (-topo/-scenario/-traffic).
// The zero value of every optional field means "the CLI default".
type Run struct {
	// Topo is the topology spec: fattree:K, linear:N, star:N,
	// ring:N[:CHORD], two-routers, wan:NAME, wan:mesh:SEED[:POPS],
	// wan:multi:SEED[:ASES[:POPS[:PREFIXES]]].
	Topo string `json:"topo"`
	// Scenario is the control plane: bgp, bgp-ecmp, bgp-rr, ecmp5,
	// hedera, reactive.
	Scenario string `json:"scenario"`
	// Traffic is the workload: permutation[:SEED], stride[:N],
	// matrix:FILE[:SCALE], pareto[:SEED[:N]], lognormal[:SEED[:N]],
	// incast[:SEED[:FANIN]], alltoall[:PHASES], ring[:STEPS], none.
	// Empty means permutation:42 (the CLI default).
	Traffic string `json:"traffic,omitempty"`
	// Capacity is the time-varying link capacity generator:
	// walk[:SEED[:PERIOD]], trace:FILE, none. Empty means none.
	Capacity string `json:"capacity,omitempty"`
	// RateGbps is the per-flow rate in Gbps (default 1.0).
	RateGbps float64 `json:"rate_gbps,omitempty"`
	// Dur is the virtual experiment duration (default 20s).
	Dur Duration `json:"dur,omitempty"`
	// Pacing is the FTI virtual:wall ratio (default 1.0).
	Pacing float64 `json:"pacing,omitempty"`
	// SampleInterval overrides the aggregate-rate sampling period
	// (default 100ms; negative is an error).
	SampleInterval Duration `json:"sample_interval,omitempty"`
	// DelayScale scales WAN geographic link delays; nil means 1.0 and
	// an explicit 0 is the zero-latency ablation.
	DelayScale *float64 `json:"delay_scale,omitempty"`
	// Dampening enables BGP route flap dampening with defaults.
	Dampening bool `json:"dampening,omitempty"`
	// AdvertiseDelay overrides the BGP MRAI-style batching window
	// (zero = the speaker default of 2ms; virtual time, so a long window
	// costs no wall time). Only BGP scenarios consult it; the MRAI
	// campaign sweeps this against Dampening.
	AdvertiseDelay Duration `json:"advertise_delay,omitempty"`
	// CaptureDir, when non-empty, records the control plane as pcapng
	// traces there (the campaign runner points it at the run's
	// artifact directory).
	CaptureDir string `json:"capture_dir,omitempty"`
}

// Defaults for the optional Run fields, shared with the CLI flag
// definitions so both surfaces stay in lockstep.
const (
	DefaultTraffic = "permutation:42"
	DefaultRate    = 1.0
	DefaultDur     = Duration(20 * time.Second)
	DefaultPacing  = 1.0
)

// WithDefaults returns the run with every zero-valued optional field
// replaced by its CLI default.
func (r Run) WithDefaults() Run {
	if r.Traffic == "" {
		r.Traffic = DefaultTraffic
	}
	if r.RateGbps == 0 {
		r.RateGbps = DefaultRate
	}
	if r.Dur == 0 {
		r.Dur = DefaultDur
	}
	if r.Pacing == 0 {
		r.Pacing = DefaultPacing
	}
	if r.DelayScale == nil {
		one := 1.0
		r.DelayScale = &one
	}
	return r
}

// parts is a run's four grammar strings, each parsed once.
type parts struct {
	topo     TopoSpec
	scenario ScenarioSpec
	traffic  TrafficSpec
	capacity CapacitySpec
}

// parse is the one place a run's strings and numbers are checked. r
// must already carry its defaults. Validate keeps only the verdict;
// Experiment goes on to build from the parsed forms.
func (r Run) parse() (parts, error) {
	var p parts
	var err error
	if p.topo, err = ParseTopo(r.Topo); err != nil {
		return p, err
	}
	if p.scenario, err = ParseScenario(r.Scenario); err != nil {
		return p, err
	}
	if p.traffic, err = ParseTraffic(r.Traffic); err != nil {
		return p, err
	}
	if p.capacity, err = ParseCapacity(r.Capacity); err != nil {
		return p, err
	}
	if p.topo.WAN() && !p.scenario.BGP() {
		return p, fmt.Errorf("spec: topology %q is a BGP router mesh; it needs a bgp scenario (use bgp-rr), not %q", r.Topo, r.Scenario)
	}
	if r.RateGbps < 0 {
		return p, fmt.Errorf("spec: negative rate %vGbps", r.RateGbps)
	}
	if r.Dur < 0 {
		return p, fmt.Errorf("spec: negative duration %v", r.Dur.Duration())
	}
	if r.Pacing < 0 {
		return p, fmt.Errorf("spec: negative pacing %v", r.Pacing)
	}
	if ds := r.DelayScale; ds != nil && *ds < 0 {
		return p, fmt.Errorf("spec: negative delay scale %v", *ds)
	}
	if r.AdvertiseDelay < 0 {
		return p, fmt.Errorf("spec: negative advertise delay %v", r.AdvertiseDelay.Duration())
	}
	if r.SampleInterval < 0 {
		return p, fmt.Errorf("spec: negative sample interval %v", r.SampleInterval.Duration())
	}
	return p, nil
}

// seedFields parses the SEED[:…] tail that the seeded grammars share
// (pareto, lognormal, incast, walk, wan:mesh, wan:multi): arg, split on
// ":" into at most max fields, starts with an integer seed, and the
// fields after it are the caller's to interpret. kind names the grammar
// in the errors, wants is what an over-long spec is told, s is the whole
// spec as the user wrote it.
func seedFields(kind, wants, arg, s string, max int) (seed int64, rest []string, err error) {
	fields := strings.Split(arg, ":")
	if len(fields) > max {
		return 0, nil, fmt.Errorf("spec: %s, got %q", wants, s)
	}
	seed, err = strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("spec: %s seed must be an integer, got %q in %q", kind, fields[0], s)
	}
	return seed, fields[1:], nil
}

// positiveInt parses one count field of a spec; noun names it in the
// error.
func positiveInt(kind, noun, field, s string) (int, error) {
	n, err := strconv.Atoi(field)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("spec: %s %s must be a positive integer, got %q in %q", kind, noun, field, s)
	}
	return n, nil
}

// Validate parses every component of the run without building the
// topology, so a malformed sweep is rejected at submission time with an
// error naming the offending part.
func (r Run) Validate() error {
	_, err := r.WithDefaults().parse()
	return err
}

// Until is the virtual end time of the run.
func (r Run) Until() core.Time {
	r = r.WithDefaults()
	return core.FromDuration(r.Dur.Duration())
}

// Experiment builds the configured horse.Experiment for the run:
// topology constructed, control plane selected, workload scheduled.
// The caller may script injections before calling Run(r.Until()) — this
// is exactly the code path the CLIs execute.
func (r Run) Experiment() (*horse.Experiment, error) {
	r = r.WithDefaults()
	p, err := r.parse()
	if err != nil {
		return nil, err
	}
	g, err := p.topo.Build(p.scenario.BGP(), *r.DelayScale)
	if err != nil {
		return nil, err
	}
	exp := horse.NewExperiment(horse.Config{
		Pacing:         r.Pacing,
		SampleInterval: core.FromDuration(r.SampleInterval.Duration()),
	})
	exp.CaptureTo(r.CaptureDir)
	exp.SetTopology(g)
	base := horse.BGPOptions{AdvertiseDelay: r.AdvertiseDelay.Duration()}
	if r.Dampening {
		base.Dampening = &horse.Dampening{}
	}
	p.scenario.Apply(exp, base)
	rate := core.Rate(r.RateGbps) * core.Gbps
	pattern, err := p.traffic.Pattern(rate, r.Until())
	if err != nil {
		return nil, err
	}
	if pattern != nil {
		if err := exp.AddTraffic(pattern); err != nil {
			return nil, err
		}
	}
	if _, err := p.capacity.Apply(exp, r.Until()); err != nil {
		return nil, err
	}
	return exp, nil
}

// Execute builds and runs the experiment, returning the serializable
// Outcome. This is the campaign runner's whole per-run code path.
func (r Run) Execute() (*Outcome, error) {
	r = r.WithDefaults()
	exp, err := r.Experiment()
	if err != nil {
		return nil, err
	}
	res, err := exp.Run(r.Until())
	if err != nil {
		return nil, err
	}
	return NewOutcome(r, res), nil
}

// AxisNames lists the sweep-axis labels in campaign expansion order.
// Axes keys the run with these names, and the campaign analysis
// endpoints group completed runs by them.
var AxisNames = []string{
	"topo", "scenario", "traffic", "capacity",
	"seed", "advertise_delay", "dampening",
}

// Axes labels the run with its position on every sweep axis — the
// grouping keys campaign analysis aggregates by. The traffic and
// capacity labels elide the seed (Family), which gets its own "seed"
// axis, so a seed sweep over one workload template groups as one
// traffic value with N seed values rather than N distinct traffics.
// The "capacity" and "seed" keys are absent when the run has no
// capacity dynamics or no seeded workload.
func (r Run) Axes() map[string]string {
	r = r.WithDefaults()
	ax := map[string]string{
		"topo":            r.Topo,
		"scenario":        r.Scenario,
		"traffic":         r.Traffic,
		"advertise_delay": r.AdvertiseDelay.Duration().String(),
		"dampening":       strconv.FormatBool(r.Dampening),
	}
	if ts, err := ParseTraffic(r.Traffic); err == nil {
		ax["traffic"] = ts.Family()
		if ts.Seeded() {
			ax["seed"] = strconv.FormatInt(ts.Seed, 10)
		}
	}
	if cs, err := ParseCapacity(r.Capacity); err == nil && cs.Kind != "" {
		ax["capacity"] = cs.Family()
		if _, ok := ax["seed"]; !ok && cs.Seeded() {
			ax["seed"] = strconv.FormatInt(cs.Seed, 10)
		}
	}
	return ax
}

// String is a compact one-line label for logs and progress output.
func (r Run) String() string {
	r = r.WithDefaults()
	s := fmt.Sprintf("%s/%s/%s", r.Topo, r.Scenario, r.Traffic)
	if r.Capacity != "" {
		s += "/" + r.Capacity
	}
	return s
}
