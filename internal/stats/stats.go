// Package stats collects virtual-time series during experiments — the raw
// material of the demo's "aggregated rate of all flows arriving at the
// hosts" graphs.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
)

// Sample is one (virtual time, value) point.
type Sample struct {
	At    core.Time
	Value float64
}

// Series is an append-only time series. Not safe for concurrent use; all
// sampling happens on the simulation engine goroutine.
type Series struct {
	Name    string
	Samples []Sample
}

// Add appends a sample.
func (s *Series) Add(at core.Time, v float64) {
	s.Samples = append(s.Samples, Sample{At: at, Value: v})
}

// Len reports the sample count.
func (s *Series) Len() int { return len(s.Samples) }

// Last returns the most recent sample (zero value when empty).
func (s *Series) Last() Sample {
	if len(s.Samples) == 0 {
		return Sample{}
	}
	return s.Samples[len(s.Samples)-1]
}

// Max returns the largest value seen.
func (s *Series) Max() float64 {
	m := 0.0
	for _, x := range s.Samples {
		if x.Value > m {
			m = x.Value
		}
	}
	return m
}

// Mean returns the arithmetic mean of the sampled values.
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.Samples {
		sum += x.Value
	}
	return sum / float64(len(s.Samples))
}

// MeanAfter returns the mean of samples at or after t (useful for
// steady-state averages that skip convergence).
func (s *Series) MeanAfter(t core.Time) float64 {
	sum, n := 0.0, 0
	for _, x := range s.Samples {
		if x.At >= t {
			sum += x.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanBetween returns the mean of samples with t0 <= At < t1; 0 when
// the window holds no samples.
func (s *Series) MeanBetween(t0, t1 core.Time) float64 {
	sum, n := 0.0, 0
	for _, x := range s.Samples {
		if x.At >= t0 && x.At < t1 {
			sum += x.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MinBetween returns the smallest sample in [t0, t1) and its time; ok is
// false when the window holds no samples. Failure experiments use it to
// measure the depth of the throughput dip after an injection.
func (s *Series) MinBetween(t0, t1 core.Time) (Sample, bool) {
	var min Sample
	found := false
	for _, x := range s.Samples {
		if x.At < t0 || x.At >= t1 {
			continue
		}
		if !found || x.Value < min.Value {
			min = x
			found = true
		}
	}
	return min, found
}

// PercentileBetween returns the p-quantile (0 ≤ p ≤ 1, nearest-rank) of
// the sample values in [t0, t1); ok is false when the window holds no
// samples. Workload summaries use it to characterize the dip
// distribution of a series (e.g. the min-host-rx floor under incast).
func (s *Series) PercentileBetween(t0, t1 core.Time, p float64) (float64, bool) {
	var vals []float64
	for _, x := range s.Samples {
		if x.At >= t0 && x.At < t1 {
			vals = append(vals, x.Value)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	sort.Float64s(vals)
	if p <= 0 {
		return vals[0], true
	}
	if p >= 1 {
		return vals[len(vals)-1], true
	}
	idx := int(math.Ceil(p*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return vals[idx], true
}

// FirstAtLeast returns the first sample at or after t whose value
// reaches threshold; ok is false if none does. Failure experiments use
// it to measure recovery time after a dip.
func (s *Series) FirstAtLeast(t core.Time, threshold float64) (Sample, bool) {
	for _, x := range s.Samples {
		if x.At >= t && x.Value >= threshold {
			return x, true
		}
	}
	return Sample{}, false
}

// DefaultRepairFrac is the recovery threshold repair-latency metrics
// use: a dipped rate counts as repaired when it re-reaches this fraction
// of the degraded steady rate. Shared by cmd/horse (-fail and fig3) and
// the packet-level baseline so both systems' repair numbers use one
// definition.
const DefaultRepairFrac = 0.98

// Repair summarizes a dip-and-recover episode of a rate series around a
// failure at failAt healed at healAt.
type Repair struct {
	// Dip is the deepest sample in [failAt, healAt).
	Dip Sample
	// Degraded is the steady rate of the degraded topology: the mean
	// over the second (or half the window, if shorter) before healAt.
	Degraded float64
	// Recovered reports whether the rate re-reached frac*Degraded after
	// the dip and before the heal; Rec is the first sample doing so and
	// Latency is Rec.At - failAt. Anchoring at the dip rather than
	// failAt keeps a shallow failure from reading as an instant repair.
	Recovered bool
	Rec       Sample
	Latency   core.Time
}

// RepairAfter extracts the dip-and-recover episode around a failure
// window. ok is false when there is no measurable degraded baseline or
// no samples in the window.
func (s *Series) RepairAfter(failAt, healAt core.Time, frac float64) (Repair, bool) {
	win := core.Second
	if half := (healAt - failAt) / 2; win > half {
		win = half
	}
	degraded := s.MeanBetween(healAt-win, healAt)
	if degraded <= 0 {
		return Repair{}, false
	}
	dip, ok := s.MinBetween(failAt, healAt)
	if !ok {
		return Repair{}, false
	}
	r := Repair{Dip: dip, Degraded: degraded}
	if rec, ok := s.FirstAtLeast(dip.At, frac*degraded); ok && rec.At < healAt {
		r.Recovered = true
		r.Rec = rec
		r.Latency = rec.At - failAt
	}
	return r, true
}

// Ratio returns num/den and reports whether the quotient is meaningful:
// ok is false (and the ratio 0) when the denominator is zero or negative
// or either operand is not finite. It is the shared guard for summary
// arithmetic over possibly-empty measurement windows — horse fig3's
// speedup and repair-ratio columns and capture.Summary's per-second
// message rates (via PerSecond) both divide by quantities that
// legitimately come out zero (no repair observed, an empty trace), and
// must report "n/a" rather than NaN/Inf.
func Ratio(num, den float64) (float64, bool) {
	if den <= 0 || math.IsNaN(num) || math.IsInf(num, 0) || math.IsInf(den, 0) {
		return 0, false
	}
	return num / den, true
}

// PerSecond converts an event count over a virtual-time window into a
// rate; 0 when the window is empty or inverted (a single-sample or
// message-free trace has no meaningful rate).
func PerSecond(count float64, window core.Time) float64 {
	r, ok := Ratio(count, window.Seconds())
	if !ok {
		return 0
	}
	return r
}

// TSV renders the series as "time<TAB>value" lines, with times in
// seconds — directly gnuplot-able, as the demo's live graphs were.
func (s *Series) TSV() string {
	var b strings.Builder
	for _, x := range s.Samples {
		fmt.Fprintf(&b, "%.3f\t%g\n", x.At.Seconds(), x.Value)
	}
	return b.String()
}
