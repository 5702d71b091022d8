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
	if s.Retries < 0 {
		return nil, fmt.Errorf("campaign: retries %d is negative", s.Retries)
	}
	if s.Timeout < 0 {
		return nil, fmt.Errorf("campaign: timeout %v is negative", s.Timeout.Duration())
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
// succeeded; Failed when it drained fully but some runs failed, or when
// its setup failed; Canceled when a drain stopped it before every run
// was attempted.
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

// Status is a JSON-ready snapshot of campaign progress: the fold of the
// campaign's event log through apply.
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

// step is one lifecycle transition: the event that takes it and the
// state of its campaign (campaign_* events) or run (run_* events)
// before and after.
type step struct {
	ev       EventType
	from, to State
}

// lifecycle is the transition table, one entry per action: apply takes
// no step that is not here.
var lifecycle = map[step]bool{
	{EvCampaignAccepted, "", Pending}:     true,
	{EvCampaignStarted, Pending, Running}: true,
	{EvCampaignDone, Running, Done}:       true,
	{EvCampaignDone, Running, Failed}:     true,
	{EvCampaignDone, Running, Canceled}:   true,
	{EvCampaignDone, Pending, Failed}:     true, // setup failed
	{EvCampaignDone, Pending, Canceled}:   true, // a restart closes a log cut before the start

	{EvRunStarted, Pending, Running}:   true,
	{EvRunRetried, Running, Running}:   true,
	{EvRunFailed, Running, Running}:    true, // a retry follows
	{EvRunFailed, Running, Failed}:     true,
	{EvRunSucceeded, Running, Done}:    true,
	{EvRunCanceled, Pending, Canceled}: true,
	{EvRunCanceled, Running, Canceled}: true, // a restart closes an interrupted run
}

// apply is the lifecycle's one transition function: it folds ev into st,
// or returns why ev takes no legal step from st and leaves st as it was.
// Every event carries the state it moves its campaign or run to (a
// run_failed says running when a retry follows and failed when it is
// terminal), so the log alone determines the status. Besides the table's
// steps, a run starts or retries only while its campaign is running, and
// nothing follows campaign_done.
func apply(st *Status, ev Event) error {
	from := st.State
	var r *RunStatus
	switch ev.Type {
	case EvCampaignAccepted, EvCampaignStarted, EvCampaignDone:
		if ev.Run != nil {
			return fmt.Errorf("%s carries run %d", ev.Type, ev.Run.Index)
		}
	default:
		if ev.Run == nil {
			return fmt.Errorf("%s carries no run", ev.Type)
		}
		if ev.Run.Index < 0 || ev.Run.Index >= st.Total {
			return fmt.Errorf("%s names run %d of %d", ev.Type, ev.Run.Index, st.Total)
		}
		r = &st.Runs[ev.Run.Index]
		from = r.State
	}
	switch {
	case st.State == Done || st.State == Failed || st.State == Canceled:
		return fmt.Errorf("%s follows campaign_done", ev.Type)
	case st.State == "" && ev.Type != EvCampaignAccepted:
		return fmt.Errorf("%s before campaign_accepted", ev.Type)
	case (ev.Type == EvRunStarted || ev.Type == EvRunRetried) && st.State != Running:
		return fmt.Errorf("%s while the campaign is %s", ev.Type, st.State)
	case !lifecycle[step{ev.Type, from, ev.State}]:
		return fmt.Errorf("%s %s -> %s is not a lifecycle step", ev.Type, from, ev.State)
	case ev.Type == EvCampaignAccepted && ev.Total != st.Total:
		return fmt.Errorf("campaign_accepted of %d runs, the spec expands to %d", ev.Total, st.Total)
	}

	if r == nil {
		st.State = ev.State
		if ev.Type == EvCampaignAccepted {
			st.Submitted = ev.Time
		}
		return nil
	}
	// Finished states are terminal, so entering one is what counts.
	r.State = ev.State
	switch r.State {
	case Done:
		st.Succeeded++
	case Failed:
		st.Failed++
	case Canceled:
		st.Canceled++
	}
	switch ev.Type {
	case EvRunStarted, EvRunRetried:
		// A retry keeps the last attempt's error on view.
		r.Attempts = ev.Run.Attempt
	default:
		r.Error = ev.Run.Error
	}
	return nil
}

// Campaign is one submitted sweep. Its event log is its only record:
// the runner changes lifecycle state only by publishing events, and
// Status and Run read the fold of the log.
type Campaign struct {
	ID   string
	Spec Spec

	done chan struct{}
	bus  *bus
}

// newCampaign expands the spec into a campaign with an empty log, every
// run pending: the status the log is folded into.
func newCampaign(id string, s Spec) (*Campaign, error) {
	runs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	st := Status{ID: id, Name: s.Name, Total: len(runs), Runs: make([]RunStatus, len(runs))}
	for i, r := range runs {
		st.Runs[i] = RunStatus{Index: i, Spec: r, State: Pending}
	}
	return &Campaign{ID: id, Spec: s, done: make(chan struct{}), bus: newBus(st)}, nil
}

// NewCampaign expands the spec into a pending campaign and publishes
// its campaign_accepted event (the first entry of the event log every
// SSE subscriber replays; its time is the campaign's Submitted).
func NewCampaign(id string, s Spec) (*Campaign, error) {
	c, err := newCampaign(id, s)
	if err != nil {
		return nil, err
	}
	c.publish(Event{Type: EvCampaignAccepted, State: Pending, Total: c.Status().Total})
	return c, nil
}

// Done is closed when the campaign has finished (drained, failed or
// canceled).
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Status snapshots the campaign.
func (c *Campaign) Status() Status { return c.bus.snapshot() }

// Run returns the status of run n.
func (c *Campaign) Run(n int) (RunStatus, bool) {
	runs := c.Status().Runs
	if n < 0 || n >= len(runs) {
		return RunStatus{}, false
	}
	return runs[n], true
}

// publish appends ev, stamped with the campaign's ID, to the log, or
// returns why apply refuses it.
func (c *Campaign) publish(ev Event) error {
	ev.Campaign = c.ID
	return c.bus.publish(ev)
}

// publishRun publishes a run event that moves run re.Index to state.
func (c *Campaign) publishRun(typ EventType, state State, re RunEvent) {
	c.publish(Event{Type: typ, State: state, Run: &re}) //nolint:errcheck // the bus keeps the first refusal
}

// finish closes the log: every run not yet finished is canceled with why
// as its error, then campaign_done carries the final state and counts.
// A campaign whose setup failed is Failed; otherwise a canceled run
// makes it Canceled, a failed one Failed, and it is Done only when every
// run succeeded.
func (c *Campaign) finish(why string, setupFailed bool) {
	for _, r := range c.Status().Runs {
		if r.State == Pending || r.State == Running {
			c.publishRun(EvRunCanceled, Canceled, RunEvent{Index: r.Index, Spec: r.Spec.String(), Error: why})
		}
	}
	st := c.Status()
	state := Done
	switch {
	case setupFailed:
		state = Failed
	case st.Canceled > 0:
		state = Canceled
	case st.Failed > 0:
		state = Failed
	}
	c.publish(Event{Type: EvCampaignDone, State: state,
		Total: st.Total, Succeeded: st.Succeeded, Failed: st.Failed, Canceled: st.Canceled})
}
