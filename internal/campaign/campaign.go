// Package campaign is the experiment campaign engine behind the horsed
// daemon: it expands a sweep specification into the cross-product of
// runs (topology × scenario × traffic × capacity × seed × advertise
// delay × dampening), schedules them on a bounded worker pool with
// per-run timeout and retry, and persists each run's spec.Outcome as
// JSON under a campaign directory alongside its pcapng capture
// artifacts.
//
// Because every run executes through internal/spec — the same package
// cmd/horse parses its flags into — a submitted campaign run is by
// construction the identical experiment to the equivalent CLI
// invocation; TestDaemonRunMatchesCLIRun pins that bit-for-bit.
package campaign

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/spec"
)

// Spec is a sweep submission: the axes are crossed in the fixed order
// topos × scenarios × traffics × capacities × seeds × advertise delays ×
// dampenings, so run indices are deterministic and a resubmitted spec
// maps runs to the same indices.
type Spec struct {
	// Name labels the campaign (used in its ID slug).
	Name string `json:"name,omitempty"`

	// Topos and Scenarios are the mandatory axes (spec string forms).
	Topos     []string `json:"topos"`
	Scenarios []string `json:"scenarios"`

	// Traffics is the workload axis; empty means the base run's
	// traffic (or the permutation:42 default).
	Traffics []string `json:"traffics,omitempty"`

	// Capacities is the time-varying link capacity axis (walk:SEED,
	// trace:FILE, none); empty means the base run's capacity (usually
	// none).
	Capacities []string `json:"capacities,omitempty"`

	// Seeds instantiates seedable templates: a traffic spec like
	// "permutation" or a capacity spec like "walk" (no explicit seed)
	// expands to one run per seed. When both the traffic and the
	// capacity of a workload are templates they are instantiated with
	// the same seed (one seed per run, not seeds²). Templates with an
	// explicit seed — and unseeded kinds like stride — appear once
	// regardless.
	Seeds []int64 `json:"seeds,omitempty"`

	// AdvertiseDelays is the BGP MRAI-style batching-window axis (only
	// meaningful for bgp scenarios); empty means one instance with the
	// base run's delay. The MRAI × dampening campaign sweeps this.
	AdvertiseDelays []spec.Duration `json:"advertise_delays,omitempty"`

	// Dampenings is the BGP route-flap dampening axis; empty means one
	// instance with the base run's setting.
	Dampenings []bool `json:"dampenings,omitempty"`

	// Base carries the shared per-run fields (dur, rate, pacing,
	// dampening, ...). Its Topo/Scenario/Traffic fields are overwritten
	// by the axes.
	Base spec.Run `json:"base,omitempty"`

	// Timeout bounds each run's wall time (default 5m). A timed-out
	// run is recorded as failed; the pool keeps draining.
	Timeout spec.Duration `json:"timeout,omitempty"`
	// Retries is how many extra attempts a failed run gets.
	Retries int `json:"retries,omitempty"`
	// Capture records each run's control plane as one pcapng trace in
	// the run's artifact directory.
	Capture bool `json:"capture,omitempty"`
}

// DefaultTimeout bounds a run's wall time when the spec does not.
const DefaultTimeout = 5 * time.Minute

// Expand crosses the axes into the ordered run list. Every run is
// validated; a malformed axis value rejects the whole campaign with an
// error naming it, so nothing is scheduled from a bad sweep.
func (s Spec) Expand() ([]spec.Run, error) {
	if len(s.Topos) == 0 {
		return nil, fmt.Errorf("campaign: no topologies (want e.g. [\"fattree:4\"])")
	}
	if len(s.Scenarios) == 0 {
		return nil, fmt.Errorf("campaign: no scenarios (want e.g. [\"ecmp5\"])")
	}
	traffics := s.Traffics
	if len(traffics) == 0 {
		t := s.Base.Traffic
		if t == "" {
			t = spec.DefaultTraffic
		}
		traffics = []string{t}
	}
	capacities := s.Capacities
	if len(capacities) == 0 {
		capacities = []string{s.Base.Capacity}
	}
	// Instantiate the traffic × capacity × seed sub-product once, up
	// front. A seed instantiates whichever side of the workload is an
	// unseeded template; when both sides are, they share it.
	type workload struct{ traffic, capacity string }
	capString := func(cs spec.CapacitySpec) string {
		if cs.Kind == "" {
			return ""
		}
		return cs.String()
	}
	var workloads []workload
	for _, t := range traffics {
		ts, err := spec.ParseTraffic(t)
		if err != nil {
			return nil, fmt.Errorf("campaign: traffic %q: %w", t, err)
		}
		for _, c := range capacities {
			cs, err := spec.ParseCapacity(c)
			if err != nil {
				return nil, fmt.Errorf("campaign: capacity %q: %w", c, err)
			}
			tTemplate := ts.Seeded() && !ts.ExplicitSeed
			cTemplate := cs.Seeded() && !cs.ExplicitSeed
			if len(s.Seeds) > 0 && (tTemplate || cTemplate) {
				for _, seed := range s.Seeds {
					w := workload{traffic: ts.String(), capacity: capString(cs)}
					if tTemplate {
						w.traffic = ts.WithSeed(seed).String()
					}
					if cTemplate {
						w.capacity = capString(cs.WithSeed(seed))
					}
					workloads = append(workloads, w)
				}
			} else {
				workloads = append(workloads, workload{traffic: ts.String(), capacity: capString(cs)})
			}
		}
	}
	advDelays := s.AdvertiseDelays
	if len(advDelays) == 0 {
		advDelays = []spec.Duration{s.Base.AdvertiseDelay}
	}
	dampenings := s.Dampenings
	if len(dampenings) == 0 {
		dampenings = []bool{s.Base.Dampening}
	}

	var runs []spec.Run
	for _, topo := range s.Topos {
		for _, scenario := range s.Scenarios {
			for _, workload := range workloads {
				for _, adv := range advDelays {
					for _, damp := range dampenings {
						r := s.Base
						r.Topo = topo
						r.Scenario = scenario
						r.Traffic = workload.traffic
						r.Capacity = workload.capacity
						r.AdvertiseDelay = adv
						r.Dampening = damp
						r = r.WithDefaults()
						if err := r.Validate(); err != nil {
							return nil, fmt.Errorf("campaign: run %d (%s): %w", len(runs), r, err)
						}
						runs = append(runs, r)
					}
				}
			}
		}
	}
	return runs, nil
}

// State is a campaign or run lifecycle state.
type State string

// The lifecycle states. A campaign is Done only when every run
// succeeded; Failed when it drained fully but some runs failed;
// Canceled when a drain stopped it before every run was attempted.
const (
	Pending  State = "pending"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// RunStatus is the observable state of one expanded run.
type RunStatus struct {
	Index    int      `json:"index"`
	Spec     spec.Run `json:"spec"`
	State    State    `json:"state"`
	Attempts int      `json:"attempts,omitempty"`
	Error    string   `json:"error,omitempty"`
}

// Campaign is one submitted sweep and its progress. All mutation goes
// through the runner; readers take Status snapshots.
type Campaign struct {
	ID        string
	Spec      Spec
	Submitted time.Time

	mu    sync.Mutex
	state State
	runs  []RunStatus
	done  chan struct{}
	bus   *bus
}

// NewCampaign expands the spec into a pending campaign and publishes
// its campaign_accepted event (the first entry of the event log every
// SSE subscriber replays).
func NewCampaign(id string, s Spec) (*Campaign, error) {
	runs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		ID:        id,
		Spec:      s,
		Submitted: time.Now(),
		state:     Pending,
		done:      make(chan struct{}),
		bus:       newBus(),
	}
	for i, r := range runs {
		c.runs = append(c.runs, RunStatus{Index: i, Spec: r, State: Pending})
	}
	c.bus.publish(Event{Type: EvCampaignAccepted, Campaign: id, State: Pending, Total: len(runs)})
	return c, nil
}

// Done is closed when the campaign has finished (drained, failed or
// canceled).
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Status is a JSON-ready snapshot of campaign progress.
type Status struct {
	ID        string      `json:"id"`
	Name      string      `json:"name,omitempty"`
	State     State       `json:"state"`
	Submitted time.Time   `json:"submitted"`
	Total     int         `json:"total"`
	Succeeded int         `json:"succeeded"`
	Failed    int         `json:"failed"`
	Canceled  int         `json:"canceled"`
	Runs      []RunStatus `json:"runs"`
}

// Status snapshots the campaign.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:        c.ID,
		Name:      c.Spec.Name,
		State:     c.state,
		Submitted: c.Submitted,
		Total:     len(c.runs),
		Runs:      append([]RunStatus(nil), c.runs...),
	}
	for _, r := range c.runs {
		switch r.State {
		case Done:
			st.Succeeded++
		case Failed:
			st.Failed++
		case Canceled:
			st.Canceled++
		}
	}
	return st
}

// Run returns the status of run n.
func (c *Campaign) Run(n int) (RunStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 || n >= len(c.runs) {
		return RunStatus{}, false
	}
	return c.runs[n], true
}

// setRun mutates run n under the lock.
func (c *Campaign) setRun(n int, f func(*RunStatus)) {
	c.mu.Lock()
	f(&c.runs[n])
	c.mu.Unlock()
}

// setState transitions the campaign state.
func (c *Campaign) setState(s State) {
	c.mu.Lock()
	c.state = s
	c.mu.Unlock()
}
