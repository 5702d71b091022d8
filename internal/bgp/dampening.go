package bgp

import (
	"math"
	"net/netip"
	"time"

	"repro/internal/core"
)

// Dampening configures route flap dampening (an RFC 2439 subset).
// Each withdrawal of a (peer, prefix) route — explicit, or implied by a
// session loss — adds Penalty to that route's figure of merit, which
// decays exponentially with HalfLife. When the penalty crosses
// Suppress, subsequent re-announcements of the route are parked instead
// of installed; once the penalty decays below Reuse, the most recent
// parked announcement is installed and propagation resumes. Penalties
// survive session resets — a flapping link keeps accruing merit across
// re-peerings, which is the point.
//
// Thresholds and half-life are interpreted on Config.Clock: in
// an experiment that is virtual time, so a 15s half-life spans 15s of
// the experiment timeline no matter how the hybrid clock paces.
type Dampening struct {
	// Penalty added per withdrawal (default 1000).
	Penalty float64
	// Suppress is the figure-of-merit threshold at or above which the
	// route is suppressed (default 2000: since the penalty decays
	// between flaps, the third flap suppresses; set Suppress <= Penalty
	// to suppress on the first).
	Suppress float64
	// Reuse is the threshold below which a suppressed route is
	// restored (default 750).
	Reuse float64
	// HalfLife of the exponential decay (default 15s; the RFC default
	// of 15 minutes is far beyond typical experiment horizons).
	HalfLife time.Duration
}

func (d Dampening) withDefaults() Dampening {
	if d.Penalty <= 0 {
		d.Penalty = 1000
	}
	if d.Suppress <= 0 {
		d.Suppress = 2000
	}
	if d.Reuse <= 0 {
		d.Reuse = 750
	}
	if d.HalfLife <= 0 {
		d.HalfLife = 15 * time.Second
	}
	return d
}

// dampKey identifies one dampened route: dampening state is per peer
// and prefix, as in RFC 2439.
type dampKey struct {
	peer   netip.Addr
	prefix netip.Prefix
}

// dampState is the figure of merit of one route.
type dampState struct {
	penalty    float64
	updated    core.Time
	suppressed bool
	// parked holds the latest announcement received while suppressed;
	// it is installed when the penalty decays below Reuse.
	parked *Path
	// reuseGen invalidates stale reuse wakeups (the Clock has no
	// cancel; a wakeup only acts if its generation is still current).
	reuseGen uint64
}

// decay brings the penalty forward to now.
func (ds *dampState) decay(now core.Time, halfLife time.Duration) {
	if dt := now - ds.updated; dt > 0 {
		ds.penalty *= math.Exp2(-float64(dt) / float64(halfLife))
	}
	ds.updated = now
}

// dampWithdrawLocked records one flap (a withdrawal of a previously
// announced route, explicit or via session loss) and starts suppression
// when the penalty crosses the threshold. Caller holds s.mu.
func (s *Speaker) dampWithdrawLocked(peer netip.Addr, prefix netip.Prefix) {
	d := s.cfg.Dampening
	if d == nil {
		return
	}
	key := dampKey{peer, prefix.Masked()}
	now := s.cfg.Clock.Now()
	ds := s.damp[key]
	if ds == nil {
		ds = &dampState{updated: now}
		s.damp[key] = ds
	}
	ds.decay(now, d.HalfLife)
	ds.penalty += d.Penalty
	if !ds.suppressed && ds.penalty >= d.Suppress {
		ds.suppressed = true
		s.logf("dampening: suppressing %v from %v (penalty %.0f)", prefix, peer, ds.penalty)
		s.scheduleReuseLocked(key, ds)
	}
}

// dampParkedWithdrawLocked handles a withdrawal of a route that was
// never installed because it sat parked under suppression: the parked
// announcement is discarded — reuse must not resurrect a route the
// peer has since withdrawn — and the flap still accrues penalty.
// Caller holds s.mu.
func (s *Speaker) dampParkedWithdrawLocked(peer netip.Addr, prefix netip.Prefix) {
	d := s.cfg.Dampening
	if d == nil {
		return
	}
	ds := s.damp[dampKey{peer, prefix.Masked()}]
	if ds == nil || ds.parked == nil {
		return
	}
	ds.parked = nil
	ds.decay(s.cfg.Clock.Now(), d.HalfLife)
	ds.penalty += d.Penalty
}

// dampDropPeerLocked discards every parked announcement from a peer
// whose session just died; a later reuse must not install state from a
// dead session. Penalties (the whole point of dampening) survive.
// Caller holds s.mu.
func (s *Speaker) dampDropPeerLocked(peer netip.Addr) {
	for key, ds := range s.damp {
		if key.peer == peer {
			ds.parked = nil
		}
	}
}

// dampSuppressLocked reports whether an incoming announcement must be
// parked because the route is suppressed. Caller holds s.mu.
func (s *Speaker) dampSuppressLocked(peer netip.Addr, prefix netip.Prefix, path *Path) bool {
	if s.cfg.Dampening == nil {
		return false
	}
	ds := s.damp[dampKey{peer, prefix.Masked()}]
	if ds == nil || !ds.suppressed {
		return false
	}
	ds.parked = path
	s.Stats.RoutesSuppressed.Add(1)
	s.logf("dampening: parking %v from %v", prefix, peer)
	return true
}

// scheduleReuseLocked arranges a wakeup when the penalty is due to
// decay below the reuse threshold. Caller holds s.mu.
func (s *Speaker) scheduleReuseLocked(key dampKey, ds *dampState) {
	d := s.cfg.Dampening
	wait := core.Time(float64(d.HalfLife) * math.Log2(ds.penalty/d.Reuse))
	if wait < core.Millisecond {
		wait = core.Millisecond
	}
	ds.reuseGen++
	gen := ds.reuseGen
	s.cfg.Clock.After(wait, func() { s.dampReuse(key, gen) })
}

// dampReuse runs on the reuse wakeup: if the penalty has decayed below
// Reuse, lift suppression and install the parked announcement (if any);
// otherwise re-arm.
func (s *Speaker) dampReuse(key dampKey, gen uint64) {
	s.mu.Lock()
	d := s.cfg.Dampening
	ds := s.damp[key]
	if ds == nil || !ds.suppressed || ds.reuseGen != gen {
		s.mu.Unlock()
		return
	}
	ds.decay(s.cfg.Clock.Now(), d.HalfLife)
	if ds.penalty > d.Reuse {
		s.scheduleReuseLocked(key, ds)
		s.mu.Unlock()
		return
	}
	ds.suppressed = false
	parked := ds.parked
	ds.parked = nil
	var affected []netip.Prefix
	var entries []*ribEntry
	if parked != nil {
		// The parked path is only valid while its session is established
		// (a session reset after parking would leave a stale transport
		// behind, and the re-peered session re-announces anyway; a
		// stopping one acts on nothing).
		if sess := s.sessions[key.peer]; sess != nil && sess.state == StateEstablished {
			if e := s.rib.updateAdjIn(key.peer, key.prefix, parked); e != nil {
				affected, entries = append(affected, key.prefix), append(entries, e)
				s.Stats.RoutesReused.Add(1)
				s.logf("dampening: reusing %v from %v", key.prefix, key.peer)
			}
		}
	}
	s.redecideLocked(affected, entries)
	s.mu.Unlock()
}
