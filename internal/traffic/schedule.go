package traffic

// Time-varying link capacity schedules. A RateSchedule is the
// trace-replay half of the -capacity axis (the seeded random walk lives
// in the experiment layer, which owns the topology): a CSV of
// (time, link, rate) rows replayed through Experiment.At(t).SetLinkRate
// — the ABC-style cellular-trace workload where capacity, not
// connectivity, is what churns.

import (
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// RateEvent is one capacity change: at time At, the link between nodes
// A and B is set to Rate (both directions, like SetLinkRate).
type RateEvent struct {
	At   core.Time
	A, B string
	Rate core.Rate
}

// RateSchedule is an ordered list of capacity changes.
type RateSchedule []RateEvent

// LoadRateSchedule parses a capacity trace CSV: each row is
// `time,nodeA,nodeB,gbps` where time is a Go duration ("1.5s", "300ms")
// and gbps the new capacity. Blank lines and lines starting with # are
// skipped. Events must be in non-decreasing time order (replay order is
// the file order).
func LoadRateSchedule(path string) (RateSchedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.Comment = '#'
	r.FieldsPerRecord = 4
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("traffic: capacity trace %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("traffic: capacity trace %s is empty", path)
	}
	sched := make(RateSchedule, 0, len(rows))
	for i, row := range rows {
		d, err := time.ParseDuration(strings.TrimSpace(row[0]))
		if err != nil {
			return nil, fmt.Errorf("traffic: capacity trace %s row %d: bad time: %w", path, i, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("traffic: capacity trace %s row %d: negative time %v", path, i, d)
		}
		gbps, err := strconv.ParseFloat(strings.TrimSpace(row[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: capacity trace %s row %d: bad rate: %w", path, i, err)
		}
		if gbps < 0 {
			return nil, fmt.Errorf("traffic: capacity trace %s row %d: negative rate %v", path, i, gbps)
		}
		ev := RateEvent{
			At:   core.FromDuration(d),
			A:    strings.TrimSpace(row[1]),
			B:    strings.TrimSpace(row[2]),
			Rate: core.Rate(gbps) * core.Gbps,
		}
		if !ev.Rate.Finite() {
			return nil, fmt.Errorf("traffic: capacity trace %s row %d: non-finite rate %v", path, i, gbps)
		}
		if n := len(sched); n > 0 && ev.At < sched[n-1].At {
			return nil, fmt.Errorf("traffic: capacity trace %s row %d: time %v before previous %v", path, i, ev.At, sched[n-1].At)
		}
		sched = append(sched, ev)
	}
	return sched, nil
}
