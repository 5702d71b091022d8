package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"

	horse "repro"
	"repro/internal/core"
)

// Outcome is the persisted, JSON-serializable result of executing one
// Run. It splits the horse.Result into a deterministic Fingerprint —
// the contract the service determinism tests compare bit-for-bit — and
// the wall-clock-sensitive WallStats.
type Outcome struct {
	Spec        Run         `json:"spec"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Wall        WallStats   `json:"wall"`
	// Axes labels the run's position on every sweep axis (Run.Axes),
	// persisted so campaign analysis — and anyone pointing jq at a
	// result.json — can group runs without re-parsing spec grammars.
	Axes map[string]string `json:"axes,omitempty"`
	// CaptureFiles lists the pcapng traces the run wrote, relative to
	// nothing in particular (they are absolute paths on the machine
	// that ran the experiment; the campaign API serves them as run
	// artifacts).
	CaptureFiles []string `json:"capture_files,omitempty"`
}

// Fingerprint is the deterministic projection of a horse.Result: the
// converged state the run ended in, which depends only on the spec —
// same seed, any wall-clock jitter — once the control plane has settled.
// Two executions of the same spec must produce bit-identical
// fingerprints (rates are compared via Float64bits). Nothing in it is
// sampled: a sample's instant is decided by FTI pacing, so a series of
// samples through the convergence window — delivered bytes, event
// counts, solve counts, the aggregate rate series — is
// wall-timing-sensitive and lives in WallStats instead.
type Fingerprint struct {
	Hosts    int `json:"hosts"`
	Switches int `json:"switches"`
	Routers  int `json:"routers"`

	// SteadyRxBits is math.Float64bits of the steady aggregate receive
	// rate: the sum of the final flow rates, in Flows order. SteadyRx is
	// the same value human-readable.
	SteadyRxBits uint64 `json:"steady_rx_bits"`
	SteadyRx     string `json:"steady_rx"`

	// MeanPathLatencyNs is the rate-weighted mean one-way path latency
	// of the final allocation (0 on delay-free topologies).
	MeanPathLatencyNs int64 `json:"mean_path_latency_ns,omitempty"`

	// Flows is the per-flow converged state, in scheduling order.
	Flows []FlowPrint `json:"flows"`
}

// FlowPrint is one flow's converged state.
type FlowPrint struct {
	Tuple         string `json:"tuple"`
	State         string `json:"state"`
	RateBits      uint64 `json:"rate_bits"`
	Rate          string `json:"rate"`
	PathLatencyNs int64  `json:"path_latency_ns,omitempty"`
}

// WallStats records the run's wall-clock cost and activity counters.
// None of these are deterministic across executions: control plane
// goroutines race the FTI clock, so byte counts and solve counts shift
// with scheduling jitter.
type WallStats struct {
	Setup       Duration `json:"setup"`
	Exec        Duration `json:"exec"`
	Teardown    Duration `json:"teardown"`
	VirtualEnd  Duration `json:"virtual_end"`
	Transitions int      `json:"transitions"`
	// EvidenceExits and TimeoutExits split the FTI->DES transitions by
	// why the clock left FTI: the in-flight ledger read zero, or the
	// quiet timeout ran out with work still counted in flight — the
	// latter means a leaked token (or a channel nobody reads) and a run
	// that paid wall time for nothing.
	EvidenceExits int `json:"evidence_exits"`
	TimeoutExits  int `json:"timeout_exits"`

	Solves          int    `json:"solves"`
	ControlBytes    uint64 `json:"control_bytes"`
	RouteInstalls   uint64 `json:"route_installs,omitempty"`
	RouteWithdraws  uint64 `json:"route_withdraws,omitempty"`
	FlowModsApplied uint64 `json:"flow_mods_applied,omitempty"`
	PacketIns       uint64 `json:"packet_ins,omitempty"`
	Injections      uint64 `json:"injections,omitempty"`
	Drops           uint64 `json:"drops,omitempty"`
	RxBytes         uint64 `json:"rx_bytes"`

	// ConvergedAt is the virtual time at which the aggregate receive
	// rate first reached 95% of its steady value — the run's
	// convergence latency (zero when it never converged). Convergence
	// timing races the emulated control plane against the FTI clock,
	// so it jitters with wall scheduling and lives here, not in the
	// Fingerprint.
	ConvergedAt Duration `json:"converged_at,omitempty"`

	// SampledSteadyRx is the mean sampled aggregate receive rate (bps)
	// over the second half of the run. It equals the Fingerprint's
	// steady rate when every sample in that window is the converged
	// allocation, and differs when the control plane was still moving
	// flows there (Hedera reschedules every poll).
	SampledSteadyRx float64 `json:"sampled_steady_rx,omitempty"`
	// MinHostRxFloor is the lowest per-host receive rate (bps)
	// observed over the second half of the run — the fairness floor
	// of the converged allocation as sampled.
	MinHostRxFloor float64 `json:"min_host_rx_floor,omitempty"`
}

// NewOutcome projects a finished run's Result into its Outcome.
func NewOutcome(r Run, res *horse.Result) *Outcome {
	fp := Fingerprint{
		Hosts:             res.Topology.Hosts,
		Switches:          res.Topology.Switches,
		Routers:           res.Topology.Routers,
		MeanPathLatencyNs: int64(res.MeanPathLatency),
	}
	if len(res.Flows) > 0 { // a run without flows keeps nil: its JSON reads null
		fp.Flows = make([]FlowPrint, 0, len(res.Flows))
	}
	var steady core.Rate
	var rxBytes uint64
	for _, f := range res.Flows {
		steady += f.Rate
		fp.Flows = append(fp.Flows, FlowPrint{
			Tuple:         f.Tuple.String(),
			State:         f.State,
			RateBits:      math.Float64bits(float64(f.Rate)),
			Rate:          f.Rate.String(),
			PathLatencyNs: int64(f.PathLatency),
		})
		rxBytes += f.Bytes
	}
	fp.SteadyRxBits = math.Float64bits(float64(steady))
	fp.SteadyRx = steady.String()
	var convergedAt Duration
	if at, ok := res.ConvergedAt(0.95); ok {
		convergedAt = Duration(at.Duration())
	}
	var minFloor float64
	if res.MinHostRx != nil {
		if s, ok := res.MinHostRx.MinBetween(res.Sim.VirtualEnd/2, res.Sim.VirtualEnd); ok {
			minFloor = s.Value
		}
	}
	return &Outcome{
		Spec:        r,
		Fingerprint: fp,
		Axes:        r.Axes(),
		Wall: WallStats{
			Setup:           Duration(res.SetupWall),
			Exec:            Duration(res.Sim.WallTotal),
			Teardown:        Duration(res.TeardownWall),
			VirtualEnd:      Duration(res.Sim.VirtualEnd.Duration()),
			Transitions:     res.Sim.Transitions,
			EvidenceExits:   res.Sim.EvidenceExits,
			TimeoutExits:    res.Sim.TimeoutExits,
			Solves:          res.Solver.Solves,
			ControlBytes:    res.ControlBytes,
			RouteInstalls:   res.RouteInstalls,
			RouteWithdraws:  res.RouteWithdraws,
			FlowModsApplied: res.FlowModsApplied,
			PacketIns:       res.PacketIns,
			Injections:      res.Injections,
			Drops:           res.Drops,
			RxBytes:         rxBytes,
			ConvergedAt:     convergedAt,
			SampledSteadyRx: float64(res.SteadyAggregateRx()),
			MinHostRxFloor:  minFloor,
		},
		CaptureFiles: res.CaptureFiles,
	}
}

// Digest is a short deterministic hash of the fingerprint — the
// compact identity campaign events carry so a live watcher can spot
// fingerprint divergence between runs of the same spec without
// shipping every flow. Identical fingerprints hash identically (JSON
// field order is fixed by the struct).
func (f Fingerprint) Digest() string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// SteadyRxRate recovers the steady aggregate rate from the bit pattern.
func (f Fingerprint) SteadyRxRate() core.Rate {
	return core.Rate(math.Float64frombits(f.SteadyRxBits))
}
