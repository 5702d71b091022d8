package main

import (
	"sort"
	"time"
)

// span is one timed interval of the traced run: a call the benchmark made
// into a layer, or a sub-interval reconstructed from what that call
// reported. Times are seconds since the trace began.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Self     float64 `json:"self"` // duration minus what child spans cover
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced repetitions run the same code.
type tracer struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, time.Now(), time.Time{})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
}

// add records a span whose bounds are already known.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	s := span{ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: t.rep,
		Start: start.Sub(t.t0).Seconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Seconds()
	}
	t.spans = append(t.spans, s)
	return id
}

// timed runs fn as a span under parent and returns how long it took.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start)
}

// finish computes every span's self time: its duration minus the part of
// it that its children cover. Children may overlap (campaign runs execute
// two at a time), so the covered part is the union of their intervals.
func (t *tracer) finish() []span {
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			children[s.Parent] = append(children[s.Parent],
				[2]float64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	for i := range t.spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, upTo := 0.0, t.spans[i].Start
		for _, c := range iv {
			if c[1] > upTo {
				covered += c[1] - max(c[0], upTo)
				upTo = c[1]
			}
		}
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - covered
	}
	return t.spans
}
