package bgp

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fib"
)

// SessionState is the RFC 4271 FSM state of one peering session. The
// transport is handed to the speaker pre-connected (the emulation harness
// wires both ends), so a session starts in OpenSent: Idle, the zero value,
// is a state no session is in, and Connect/Active do not exist. A session
// of a speaker told it is stopping (BeginStop) is in a state of its own,
// "Stopping", until it closes. The steps between the states are fsm's.
type SessionState int

const (
	StateIdle SessionState = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
	StateClosed
	// stateStopping is a session of a stopping speaker: it takes in
	// whatever it is sent and acts on none of it, and leaving it withdraws
	// nothing.
	stateStopping
)

// String names the FSM state ("Idle", "OpenSent", ...).
func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	case StateClosed:
		return "Closed"
	case stateStopping:
		return "Stopping"
	default:
		return fmt.Sprintf("state%d", int(s))
	}
}

// event is what moves a session from one state to the next.
type event uint8

const (
	evOpen      event = iota // OPEN received
	evKeepalive              // KEEPALIVE received
	evUpdate                 // UPDATE received
	evStop                   // the speaker is stopping (BeginStop)
	evDown                   // NOTIFICATION received, transport error, hold expiry, ResetPeer or Stop
	numEvents
)

var eventNames = [numEvents]string{"OPEN", "KEEPALIVE", "UPDATE", "stop", "down"}

func (e event) String() string { return eventNames[e] }

// fsm is the session lifecycle: fsm[from][ev] is the state ev takes a
// session in from to, and StateIdle — which no step leads to — where there
// is no step: the session refuses ev. A refused message is an FSM error.
// step is the only writer of a session's state; what else a step does is
// its caller's.
var fsm = [...][numEvents]SessionState{
	StateOpenSent:    {evOpen: StateOpenConfirm, evStop: stateStopping, evDown: StateClosed},
	StateOpenConfirm: {evKeepalive: StateEstablished, evStop: stateStopping, evDown: StateClosed},
	StateEstablished: {evKeepalive: StateEstablished, evUpdate: StateEstablished, evStop: stateStopping, evDown: StateClosed},
	stateStopping:    {evOpen: stateStopping, evKeepalive: stateStopping, evUpdate: stateStopping, evStop: stateStopping, evDown: StateClosed},
	// A closed session's reader may still find messages in the transport:
	// it ignores a KEEPALIVE and refuses an OPEN or an UPDATE. A second
	// down leaves it where it is, and down does nothing more.
	StateClosed: {evKeepalive: StateClosed, evDown: StateClosed},
}

// RouteEvent is the speaker's FIB-install hook payload: the Connection
// Manager receives these and applies them to the simulated router's FIB —
// the exact seam where the original Horse intercepts Quagga's
// RIB-to-kernel installs.
type RouteEvent struct {
	Prefix   netip.Prefix
	NextHops []fib.NextHop // empty = withdraw
}

// PeerConfig describes one session to establish.
type PeerConfig struct {
	// Conn is the pre-connected transport. Its Write and Close must not
	// block (the transport contract of the emulated control plane, kept by
	// emu.Pipe and the Connection Manager's taps over it): the session
	// writes each message under the speaker's lock, on the goroutine that
	// produced it — the reader, a Clock callback, or the simulator's engine
	// goroutine in ResetPeer.
	Conn       io.ReadWriteCloser
	LocalAddr  netip.Addr // local /31 interface address (our NEXT_HOP)
	RemoteAddr netip.Addr // peer /31 interface address
	RemoteAS   uint32     // expected peer ASN (0 = accept any)
	Port       core.PortID

	// IBGP marks an internal (same-AS) session: the local AS is not
	// prepended on advertisements, LOCAL_PREF is attached, and the
	// RFC 4456 reflection rules govern what may be re-advertised. The
	// speaker always applies next-hop-self (NEXT_HOP = LocalAddr) —
	// Horse has no IGP to recursively resolve a far next hop, so each
	// hop rewrites the next hop to its own interface, exactly as an
	// RR deployment with next-hop-self configured per session.
	IBGP bool
	// RRClient marks the peer as one of our route reflection clients
	// (we are a reflector for it). Routes learned from clients are
	// reflected to every session; routes learned from non-clients are
	// reflected only to clients. Reflected routes carry ORIGINATOR_ID
	// and our cluster ID — the router ID — prepended to CLUSTER_LIST.
	RRClient bool
}

// Config configures a speaker.
type Config struct {
	Name      string
	ASN       uint32
	RouterID  netip.Addr
	HoldTime  time.Duration // default 90s, on Clock
	Multipath bool          // ECMP across equal-cost paths (multipath-relax)
	Networks  []netip.Prefix

	// Clock is the one time base of everything the speaker schedules: the
	// advertisement window, keepalive ticks, the hold deadline, dampening
	// decay and reuse. The Connection Manager passes the experiment's
	// virtual clock, so an armed timer is a deadline the engine can jump
	// to, not work in flight. nil is wall time, for a speaker that runs
	// outside an experiment.
	Clock core.Clock

	// Dampening, when non-nil, enables route flap dampening
	// (RFC 2439 subset): withdrawals accrue a per-(peer,prefix)
	// penalty that decays exponentially; while the penalty exceeds the
	// suppress threshold, re-announcements are parked instead of
	// installed, and the route returns once the penalty decays below
	// the reuse threshold.
	Dampening *Dampening

	// OnRoute receives Loc-RIB changes for FIB installation.
	OnRoute func(RouteEvent)
	// AdvertiseDelay batches outgoing UPDATEs (a light-weight MRAI);
	// default 2ms, on Clock.
	AdvertiseDelay time.Duration
	// Logf, when set, receives debug logs.
	Logf func(format string, args ...any)
}

// wallClock is the core.Clock of a speaker that was given none (the
// package's standalone speakers in tests, bench/'s session probe): wall
// time since the speaker was made.
type wallClock struct{ epoch time.Time }

func (c wallClock) Now() core.Time { return core.FromDuration(time.Since(c.epoch)) }

func (c wallClock) After(d core.Time, fn func()) { time.AfterFunc(d.Duration(), fn) }

// Stats counts messages by type; all fields are atomically updated.
type Stats struct {
	OpensSent, OpensRecv                 atomic.Uint64
	UpdatesSent, UpdatesRecv             atomic.Uint64
	KeepalivesSent, KeepalivesRecv       atomic.Uint64
	NotificationsSent, NotificationsRecv atomic.Uint64
	// RoutesSuppressed counts announcements parked by flap dampening;
	// RoutesReused counts parked routes restored after penalty decay.
	RoutesSuppressed, RoutesReused atomic.Uint64
	// ReflectionLoops counts updates dropped by ORIGINATOR_ID /
	// CLUSTER_LIST loop prevention.
	ReflectionLoops atomic.Uint64
}

// Speaker is one emulated BGP routing daemon. Like a routing daemon's
// event loop it acts on one thing at a time: a received message, a timer
// (advertisement window, keepalive, hold deadline, dampening reuse), a
// ResetPeer or a Stop each run whole under mu, writes to the wire
// included, so no two of a speaker's writes overlap and nothing follows a
// session's NOTIFICATION.
type Speaker struct {
	cfg   Config
	asn16 uint16
	hold  uint16 // configured hold time, seconds

	mu       sync.Mutex
	rib      *RIB
	sessions map[netip.Addr]*session
	damp     map[dampKey]*dampState
	// stopping is set by BeginStop: AddPeer opens no session after it.
	// The sessions themselves are in stateStopping.
	stopping bool
	// advertiseTo is redecideLocked's list of established sessions,
	// rebuilt per call and kept between calls for its backing array; so are
	// affected and entries, processUpdateLocked's list of what one UPDATE
	// changed.
	advertiseTo []*session
	affected    []netip.Prefix
	entries     []*ribEntry
	wg          sync.WaitGroup

	Stats Stats
}

// session is one peering. Every field past cfg is its speaker's: read and
// written under Speaker.mu.
type session struct {
	sp    *Speaker
	cfg   PeerConfig
	state SessionState // Closed: the transport is closed and send writes nothing

	peerRouterID netip.Addr
	negotiated   time.Duration // negotiated hold time

	// lastRecv is Config.Clock's reading when the latest message came in;
	// the hold deadline measures the silence from it (holdCheck).
	lastRecv core.Time

	// The pending advertisement batch (see advBatch), which flushAdv sends
	// and empties in place; advArmed while a flushAdv wakeup for it is due.
	pending  advBatch
	advArmed bool
}

// NewSpeaker creates a speaker; call AddPeer to open sessions.
func NewSpeaker(cfg Config) (*Speaker, error) {
	asn16, err := ASN16(cfg.ASN)
	if err != nil {
		return nil, err
	}
	if !cfg.RouterID.Is4() {
		return nil, fmt.Errorf("bgp: router ID must be IPv4, got %v", cfg.RouterID)
	}
	for _, p := range cfg.Networks {
		if !p.IsValid() || !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: network %v is not a valid IPv4 prefix", p)
		}
	}
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90 * time.Second
	}
	if cfg.AdvertiseDelay == 0 {
		cfg.AdvertiseDelay = 2 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock{time.Now()}
	}
	if cfg.Dampening != nil {
		d := cfg.Dampening.withDefaults()
		cfg.Dampening = &d
	}
	s := &Speaker{
		cfg:      cfg,
		asn16:    asn16,
		hold:     uint16(cfg.HoldTime / time.Second),
		rib:      NewRIB(cfg.Multipath),
		sessions: make(map[netip.Addr]*session),
		damp:     make(map[dampKey]*dampState),
	}
	for _, p := range cfg.Networks {
		s.rib.SetLocal(p, PathAttrs{Origin: OriginIGP})
	}
	s.mu.Lock()
	for _, p := range cfg.Networks {
		s.rib.Decide(p)
	}
	s.mu.Unlock()
	return s, nil
}

func (s *Speaker) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("[bgp %s] "+format, append([]any{s.cfg.Name}, args...)...)
	}
}

// AddPeer opens a session over a pre-connected transport and immediately
// sends OPEN: the session starts in OpenSent.
func (s *Speaker) AddPeer(pc PeerConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return fmt.Errorf("bgp: speaker closed")
	}
	if _, dup := s.sessions[pc.RemoteAddr]; dup {
		return fmt.Errorf("bgp: duplicate peer %v", pc.RemoteAddr)
	}
	sess := &session{sp: s, cfg: pc, state: StateOpenSent}
	s.sessions[pc.RemoteAddr] = sess
	sess.send(EncodeOpen(Open{
		Version: bgpVersion, ASN: s.asn16, HoldTime: s.hold, RouterID: s.cfg.RouterID,
	}))
	s.Stats.OpensSent.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.readLoop()
	}()
	return nil
}

// BeginStop tells the speaker it is stopping, ahead of Stop: every session
// steps into the stopping state. A stopping session takes in what it is
// sent and acts on none of it — no UPDATE processed, no OPEN or KEEPALIVE
// answered, no keepalive sent, no batch flushed — and when its peer goes
// away the speaker keeps what it learned from it: no withdrawal from the
// Loc-RIB, no dampening penalty, no route event. Whoever stops several
// peered speakers calls BeginStop on all of them before the first Stop;
// otherwise each Stop makes the speakers still running withdraw and
// re-advertise every route the stopped one carried, to sessions that are
// about to close too.
func (s *Speaker) BeginStop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopping = true
	for _, sess := range s.sessions {
		sess.step(evStop)
	}
}

// Stop begins the stop, closes every session (sending CEASE) and waits for
// readers. The Loc-RIB is left as it was when the speaker was told to stop
// (see BeginStop); LocRIB still reads it afterwards.
func (s *Speaker) Stop() {
	s.BeginStop()
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.down(&Notification{Code: NotifCease}, fmt.Errorf("bgp: speaker stopped"))
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ResetPeer tears down the session to peer immediately — the
// interface-down reaction of a routing daemon when the underlying link
// fails. A CEASE notification is written (it is on the wire before the
// transport closes, so an undelayed peer reads it ahead of EOF), the
// session closes, everything learned from the peer is withdrawn from the
// Loc-RIB, and withdrawals flood to the remaining sessions. After a
// ResetPeer the speaker accepts a fresh AddPeer for the same address
// (link repair re-peers over a new transport). It reports whether a
// session to peer existed.
func (s *Speaker) ResetPeer(peer netip.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[peer]
	if sess != nil {
		sess.down(&Notification{Code: NotifCease}, fmt.Errorf("bgp: peer %v reset (link down)", peer))
	}
	return sess != nil
}

// SessionState reports the FSM state of the session to peer.
func (s *Speaker) SessionState(peer netip.Addr) SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[peer]; sess != nil {
		return sess.state
	}
	return StateClosed
}

// LocRIB returns a snapshot of selected prefixes and their FIB-ready
// next-hop groups (locally originated prefixes map to nil).
func (s *Speaker) LocRIB() map[netip.Prefix][]fib.NextHop {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[netip.Prefix][]fib.NextHop, s.rib.trie.Len())
	s.rib.eachSelected(func(p netip.Prefix, best []*Path) { out[p] = fibHops(best) })
	return out
}

// fibHops converts a best-path set into FIB next hops; local paths yield
// nothing (connected routes are not re-installed).
func fibHops(paths []*Path) []fib.NextHop {
	var out []fib.NextHop
	for _, p := range paths {
		if p.Local {
			continue
		}
		out = append(out, fib.NextHop{Port: p.Port, Via: p.Attrs.NextHop})
	}
	return out
}

// ---- session internals ----

// send writes one message to the transport; caller holds s.mu, so each
// message is one whole Write and no two of the speaker's writes overlap.
// PeerConfig.Conn's Write does not block, so neither does send, and no
// message is ever dropped for want of room. A Closed session writes
// nothing; a failed write means a broken transport, which the reader
// observes.
func (x *session) send(b []byte) {
	if x.state != StateClosed {
		_, _ = x.cfg.Conn.Write(b)
	}
}

// readLoop reads every message into one buffer, which grows to the
// largest message the session has seen; Decode keeps nothing of it. A
// malformed message is answered with the NOTIFICATION it calls for.
func (x *session) readLoop() {
	var buf []byte
	for {
		raw, err := appendMessage(buf[:0], x.cfg.Conn)
		var msg *Message
		if err == nil {
			buf = raw
			msg, err = Decode(raw)
		}
		if err != nil {
			var notify *Notification
			if n, ok := err.(Notification); ok {
				notify = &n
			}
			x.sp.mu.Lock()
			x.down(notify, err)
			x.sp.mu.Unlock()
			return
		}
		if x.handle(msg) != nil {
			return
		}
	}
}

// handle acts on one received message, the answer it sends included; a
// message that ends the session has closed it by the time handle returns
// the error.
func (x *session) handle(m *Message) error {
	s := x.sp
	s.mu.Lock()
	defer s.mu.Unlock()
	x.lastRecv = s.cfg.Clock.Now()
	var ev event
	switch m.Type {
	case MsgOpen:
		s.Stats.OpensRecv.Add(1)
		ev = evOpen
	case MsgKeepalive:
		s.Stats.KeepalivesRecv.Add(1)
		ev = evKeepalive
	case MsgUpdate:
		s.Stats.UpdatesRecv.Add(1)
		ev = evUpdate
	case MsgNotification:
		s.Stats.NotificationsRecv.Add(1)
		x.down(nil, *m.Notif)
		return *m.Notif
	default:
		err := fmt.Errorf("bgp: unhandled message type %d", m.Type)
		x.down(nil, err)
		return err
	}

	from, ok := x.step(ev)
	if !ok {
		err := fmt.Errorf("bgp: %v in state %v", ev, from)
		x.down(&Notification{Code: NotifFSMError}, err)
		return err
	}
	switch {
	case x.state == stateStopping:
		// Taken in, and nothing done about it.
	case ev == evOpen:
		if x.cfg.RemoteAS != 0 && uint32(m.Open.ASN) != x.cfg.RemoteAS {
			err := fmt.Errorf("bgp: peer AS %d, expected %d", m.Open.ASN, x.cfg.RemoteAS)
			x.down(&Notification{Code: NotifOpenError, Subcode: 2}, err) // bad peer AS
			return err
		}
		x.peerRouterID = m.Open.RouterID
		// Negotiated hold time: min of both, zero disables.
		hold := time.Duration(m.Open.HoldTime) * time.Second
		if mine := s.cfg.HoldTime; mine < hold {
			hold = mine
		}
		x.negotiated = hold
		x.send(EncodeKeepalive())
		s.Stats.KeepalivesSent.Add(1)
		if hold > 0 {
			s.cfg.Clock.After(core.FromDuration(hold), x.holdCheck)
		}
	case ev == evKeepalive && from == StateOpenConfirm:
		// Established: start the keepalive tick and advertise the whole
		// Loc-RIB — what policy lets the peer hear of it. The peer holds
		// nothing from us yet, so a forbidden best queues nothing; it opens
		// the window all the same.
		x.armKeepalive()
		x.pending.expect(s.rib.trie.Len()) // the whole table is about to land in it
		s.rib.eachSelected(func(p netip.Prefix, best []*Path) {
			if x.mayAdvertise(best[0]) {
				x.queueAdvLocked(prefixKey(p), best[0])
			} else {
				x.armAdvLocked()
			}
		})
		s.logf("session %v established", x.cfg.RemoteAddr)
	case ev == evUpdate:
		s.processUpdateLocked(x, m.Upd)
	}
	return nil
}

// step moves the session along fsm on ev and returns the state it left; ok
// is false when fsm has no such step, and the session stays where it was.
// It is the only writer of x.state. Caller holds s.mu.
func (x *session) step(ev event) (from SessionState, ok bool) {
	from = x.state
	to := fsm[from][ev]
	if to == StateIdle {
		return from, false
	}
	x.state = to
	return from, true
}

// armKeepalive schedules the next KEEPALIVE a third of the hold time on.
func (x *session) armKeepalive() {
	if x.negotiated > 0 {
		x.sp.cfg.Clock.After(core.FromDuration(x.negotiated/3), x.keepalive)
	}
}

// keepalive is the keepalive tick: it sends one and re-arms itself for as
// long as the session is established.
func (x *session) keepalive() {
	x.sp.mu.Lock()
	defer x.sp.mu.Unlock()
	if x.state != StateEstablished {
		return
	}
	x.send(EncodeKeepalive())
	x.sp.Stats.KeepalivesSent.Add(1)
	x.armKeepalive()
}

// holdCheck is the session's one standing hold deadline. A received
// message does not re-arm it — handle only records when it came in — so
// when the deadline comes due it measures the silence: short of the hold
// time it waits out the remainder, past it the session goes down. A
// deadline reached is not yet a deadline passed: the peer's KEEPALIVE due
// at that very instant is in time whichever of the two callbacks the clock
// happens to run first, so at zero remaining the check comes back once the
// clock has moved on.
func (x *session) holdCheck() {
	s := x.sp
	s.mu.Lock()
	defer s.mu.Unlock()
	if x.state == StateClosed {
		return
	}
	remain := core.FromDuration(x.negotiated) - (s.cfg.Clock.Now() - x.lastRecv)
	if remain < 0 {
		x.down(&Notification{Code: NotifHoldTimerExpired}, fmt.Errorf("bgp: hold timer expired for %v", x.cfg.RemoteAddr))
		return
	}
	s.cfg.Clock.After(max(remain, core.Nanosecond), x.holdCheck)
}

// down closes the session, writing notify first unless it is nil: the
// NOTIFICATION is the last thing on the wire, since a Closed session sends
// nothing more. A session already Closed is left as it is. Only a session
// that leaves Established withdraws what it learned from its peer: one
// that never got there learned nothing, and a stopping one keeps it.
// Caller holds s.mu.
func (x *session) down(notify *Notification, cause error) {
	s := x.sp
	if x.state == StateClosed {
		return
	}
	if notify != nil {
		x.send(EncodeNotification(*notify))
		s.Stats.NotificationsSent.Add(1)
	}
	was, _ := x.step(evDown)
	_ = x.cfg.Conn.Close()
	delete(s.sessions, x.cfg.RemoteAddr)
	if was != StateEstablished {
		return
	}
	affected, entries := s.rib.dropPeer(x.cfg.RemoteAddr)
	// A session loss withdraws everything learned from the peer; each of
	// those counts as a flap toward dampening, so a flapping cable
	// suppresses its neighbor's routes after repeated resets. Parked
	// announcements die with the session — whether the re-peered session
	// still advertises them is for it to say.
	for _, p := range affected {
		s.dampWithdrawLocked(x.cfg.RemoteAddr, p)
	}
	s.dampDropPeerLocked(x.cfg.RemoteAddr)
	s.redecideLocked(affected, entries)
	s.logf("session %v down: %v", x.cfg.RemoteAddr, cause)
}

// queueAdvLocked schedules an announcement (path != nil) or withdrawal
// for the peer and opens the advertisement window. A path the session's
// advertisement policy forbids is queued as a withdrawal. Its callers keep
// the invariant that the last thing queued toward a peer for a prefix is
// what policy lets it hear of the current best, so they reach that
// withdrawal only when the peer was told the previous best. Caller holds
// s.mu.
func (x *session) queueAdvLocked(k pfxKey, path *Path) {
	if path != nil && !x.mayAdvertise(path) {
		path = nil
	}
	x.pending.add(k, path)
	x.armAdvLocked()
}

// armAdvLocked opens the advertisement window: the batch flushes after
// AdvertiseDelay. Every Loc-RIB change opens it, whether or not it queued
// anything toward this peer — the flush times of the windows later
// announcements ride are part of the experiment's outcome. Caller holds
// s.mu.
func (x *session) armAdvLocked() {
	if !x.advArmed {
		x.advArmed = true
		x.sp.cfg.Clock.After(core.FromDuration(x.sp.cfg.AdvertiseDelay), x.flushAdv)
	}
}

// mayAdvertise applies the per-session advertisement policy: split
// horizon, the eBGP sender-side AS loop check, and the RFC 4456 iBGP
// reflection rules.
func (x *session) mayAdvertise(path *Path) bool {
	if path.Local {
		return true
	}
	// Split horizon: never re-advertise toward the originating session.
	if path.PeerAddr == x.cfg.RemoteAddr {
		return false
	}
	if !x.cfg.IBGP {
		// Sender-side loop check: do not announce a path already
		// containing the eBGP peer's AS.
		return x.cfg.RemoteAS == 0 || !hasASN(path.Attrs.ASPath, uint16(x.cfg.RemoteAS))
	}
	// Toward an iBGP peer: eBGP-learned routes go to everyone;
	// iBGP-learned routes are only re-advertised by reflectors —
	// client routes to every session, non-client routes to clients.
	if !path.IBGP {
		return true
	}
	return path.FromClient || x.cfg.RRClient
}

// advKey groups a pending advertisement batch by what the outgoing
// attributes actually depend on: the interned incoming attribute handle,
// the session kind of the path, and (for reflected iBGP paths) the
// originator stamped on the way out. Comparing handles is one pointer
// compare — no per-path attribute serialization on the flush path.
type advKey struct {
	attrs *AttrVal
	orig  netip.Addr
	ibgp  bool
}

// flushScratch is the working memory of one flushAdv: the groups it
// resolves and where it lays them out, the outgoing attributes it builds
// and the wire bytes it packs. A flush takes one from flushPool and puts it
// back, so a session holds none between windows and a flush the size of the
// one before it allocates nothing.
type flushScratch struct {
	idx      map[advKey]uint32 // the group of an advKey, from 1
	groups   []UpdateGroup
	groupOf  []uint32 // the group of a run, from 1; 0 withdraws
	at       []int
	prefixes []netip.Prefix
	asns     []uint16     // the outgoing AS paths, end to end
	clusters []netip.Addr // the outgoing cluster lists, end to end
	wire     []byte       // the packed UPDATEs, end to end
}

var flushPool = sync.Pool{New: func() any { return &flushScratch{idx: make(map[advKey]uint32)} }}

// flushKeep and flushKeepGroups bound the scratch a flush puts back, in
// entries and in attribute groups (clearing the group index costs what it
// once held); one that grew past them is left to the collector. The pool holds a few scratches however many sessions there
// are, so unlike a session's own log (advKeep) it keeps one the size of an
// Internet table: each session's dump of a full table reuses the last
// one's buffers, about 40 bytes a prefix.
const (
	flushKeep       = 1 << 20
	flushKeepGroups = 256
)

// release empties the scratch and returns it to flushPool, unless it grew
// past the bounds. An emptied scratch pins nothing a flush used.
func (sc *flushScratch) release() {
	if cap(sc.prefixes) > flushKeep || cap(sc.groupOf) > flushKeep || cap(sc.groups) > flushKeepGroups ||
		cap(sc.asns) > flushKeep || cap(sc.clusters) > flushKeep || cap(sc.wire) > maxPrefixEnc*flushKeep {
		return
	}
	clear(sc.idx)
	clear(sc.groups)
	sc.groups = sc.groups[:0]
	sc.asns, sc.clusters = sc.asns[:0], sc.clusters[:0]
	flushPool.Put(sc)
}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// flushAdv sends the batched UPDATEs: the pending withdrawals plus
// announcements grouped by shared attributes, packed so that many
// NLRIs (and the withdrawals) ride in each message — an MRAI window
// emits O(attr-groups) UPDATEs, not O(prefixes), split at the 4096-byte
// message limit (see PackUpdates).
//
// The batch is a log (advBatch): one sort, which finds it nearly in
// order, leaves every prefix's last write standing in (address, length)
// order. What the flush then works out — may this path go to this peer was
// settled when it was queued; with which attributes, in which message
// group — it works out once per run a standing entry names, not once per
// prefix, and a counting pass cuts one prefix list into the withdrawn list
// and each group's NLRI, already sorted. Everything it builds, the wire
// bytes too, is in a pooled flushScratch; each UPDATE is still its own
// Write. The whole flush runs under s.mu, and empties the batch in place.
func (x *session) flushAdv() {
	s := x.sp
	s.mu.Lock()
	defer s.mu.Unlock()
	x.advArmed = false
	if x.state != StateEstablished {
		return
	}
	defer x.pending.reset()
	if len(x.pending.log) == 0 {
		// A window a Loc-RIB change opened with nothing for this peer:
		// it sends and allocates nothing.
		return
	}
	sc := flushPool.Get().(*flushScratch)
	defer sc.release()
	log, runs := settleAdv(x.pending.log), x.pending.runs
	// A group for every path a standing entry names: a run whose every
	// prefix a later write took over is not looked at.
	groupOf := resize(sc.groupOf, len(runs))
	clear(groupOf)
	groups := sc.groups
	for _, e := range log {
		r := e & advRunMask
		path := runs[r]
		if path == nil || groupOf[r] != 0 {
			continue
		}
		ak := advKey{attrs: path.Attrs, ibgp: path.IBGP}
		if path.IBGP {
			ak.orig = originatorOf(path)
		}
		group := sc.idx[ak]
		if group == 0 {
			groups = append(groups, UpdateGroup{Attrs: x.outgoing(sc, path)})
			group = uint32(len(groups))
			sc.idx[ak] = group
		}
		groupOf[r] = group
	}
	// A counting sort by group, stable, so every list comes out in log
	// order: count each list, lay the lists out end to end in one array,
	// fill them. at[g] ends up one past list g, which is where g+1 begins.
	at := resize(sc.at, len(groups)+1)
	clear(at)
	for _, e := range log {
		at[groupOf[e&advRunMask]]++
	}
	sum := 0
	for g, n := range at {
		at[g], sum = sum, sum+n
	}
	prefixes := resize(sc.prefixes, len(log))
	for _, e := range log {
		g := groupOf[e&advRunMask]
		prefixes[at[g]] = pfxKey(e >> advRunBits).prefix()
		at[g]++
	}
	withdrawn := prefixes[:at[0]:at[0]]
	for g := range groups {
		groups[g].NLRI = prefixes[at[g]:at[g+1]:at[g+1]]
	}
	sc.groupOf, sc.groups, sc.at, sc.prefixes = groupOf, groups, at, prefixes

	// Deterministic message order across groups: by attribute key, a tie
	// in log order.
	slices.SortStableFunc(groups, func(a, b UpdateGroup) int { return compareAttrs(&a.Attrs, &b.Attrs) })
	wire, err := appendUpdates(sc.wire[:0], withdrawn, groups)
	sc.wire = wire
	if err != nil {
		s.logf("flush to %v failed: %v", x.cfg.RemoteAddr, err)
		return
	}
	sent := 0
	for ; len(wire) > 0; sent++ {
		n := msgLen(wire)
		x.send(wire[:n])
		wire = wire[n:]
	}
	s.Stats.UpdatesSent.Add(uint64(sent))
}

// outgoing computes the attributes a path is advertised with on this
// session, building the AS path and cluster list onto sc's arenas. eBGP
// prepends the local AS and strips internal attributes; iBGP keeps the AS
// path, attaches LOCAL_PREF, applies next-hop-self, and — when reflecting
// an iBGP-learned path — stamps ORIGINATOR_ID and prepends the local
// cluster ID to CLUSTER_LIST.
func (x *session) outgoing(sc *flushScratch, path *Path) PathAttrs {
	s := x.sp
	out := PathAttrs{
		Origin:  path.Attrs.Origin,
		NextHop: x.cfg.LocalAddr,
	}
	n := len(sc.asns)
	if !x.cfg.IBGP {
		sc.asns = append(sc.asns, s.asn16)
	}
	sc.asns = append(sc.asns, path.Attrs.ASPath...)
	out.ASPath = sc.asns[n:len(sc.asns):len(sc.asns)]
	if !x.cfg.IBGP {
		return out
	}
	out.HasLP = true
	out.LocalPref = 100
	if path.Attrs.HasLP {
		out.LocalPref = path.Attrs.LocalPref
	}
	if path.IBGP {
		// Reflection (mayAdvertise only lets iBGP-learned paths
		// through toward iBGP peers when reflection applies).
		out.OriginatorID = path.Attrs.OriginatorID
		if !out.OriginatorID.Is4() {
			out.OriginatorID = path.PeerRouterID
		}
		n := len(sc.clusters)
		sc.clusters = append(append(sc.clusters, s.cfg.RouterID), path.Attrs.ClusterList...)
		out.ClusterList = sc.clusters[n:len(sc.clusters):len(sc.clusters)]
	}
	return out
}

// ---- speaker-side update processing (mu held) ----

func (s *Speaker) processUpdateLocked(x *session, u *Update) {
	// The prefixes whose candidates changed, each with its RIB entry.
	affected, entries := s.affected[:0], s.entries[:0]
	for _, p := range u.Withdrawn {
		if e := s.rib.updateAdjIn(x.cfg.RemoteAddr, p, nil); e != nil {
			affected, entries = append(affected, p), append(entries, e)
			s.dampWithdrawLocked(x.cfg.RemoteAddr, p)
		} else {
			// The route may be parked under suppression rather than
			// installed; the withdrawal must still discard it (and
			// count as a flap) or reuse would resurrect a route the
			// peer no longer advertises.
			s.dampParkedWithdrawLocked(x.cfg.RemoteAddr, p)
		}
	}
	if len(u.NLRI) > 0 && s.acceptLocked(x, &u.Attrs, len(u.NLRI)) {
		// Intern once and build one Path per UPDATE: everything in a Path
		// belongs to the session or to the message, and a stored Path is
		// never mutated, so every NLRI in the message shares the one. A
		// full-table announcement allocates per message, not per route.
		path := &Path{
			Attrs:        s.rib.Intern(u.Attrs),
			PeerAddr:     x.cfg.RemoteAddr,
			PeerRouterID: x.peerRouterID,
			Port:         x.cfg.Port,
			IBGP:         x.cfg.IBGP,
			FromClient:   x.cfg.RRClient,
		}
		for _, p := range u.NLRI {
			if s.dampSuppressLocked(x.cfg.RemoteAddr, p, path) {
				continue
			}
			if e := s.rib.updateAdjIn(x.cfg.RemoteAddr, p, path); e != nil {
				affected, entries = append(affected, p), append(entries, e)
			}
		}
	}
	s.redecideLocked(affected, entries)
	s.affected, s.entries = affected, entries
}

// acceptLocked runs the receive-side loop checks: the AS-path check on
// every session, and the RFC 4456 ORIGINATOR_ID / CLUSTER_LIST checks
// on iBGP sessions. Caller holds s.mu.
func (s *Speaker) acceptLocked(x *session, a *PathAttrs, nlri int) bool {
	if hasASN(a.ASPath, s.asn16) {
		s.logf("rejecting %d prefixes from %v: own AS in path", nlri, x.cfg.RemoteAddr)
		return false
	}
	if !x.cfg.IBGP {
		return true
	}
	if a.OriginatorID.Is4() && a.OriginatorID == s.cfg.RouterID {
		s.Stats.ReflectionLoops.Add(1)
		s.logf("rejecting %d prefixes from %v: own router ID as ORIGINATOR_ID", nlri, x.cfg.RemoteAddr)
		return false
	}
	for _, c := range a.ClusterList {
		if c == s.cfg.RouterID {
			s.Stats.ReflectionLoops.Add(1)
			s.logf("rejecting %d prefixes from %v: own cluster ID in CLUSTER_LIST", nlri, x.cfg.RemoteAddr)
			return false
		}
	}
	return true
}

// redecideLocked re-runs the decision process for the given prefixes,
// entries[i] being the RIB entry of prefixes[i], and, for each Loc-RIB
// change as it is found, emits the FIB event and queues the new best toward
// every established session that may hear the old best or the new one. A
// session that may hear neither holds nothing from us for the prefix and is
// sent nothing, but its advertisement window opens as if it were. A
// decision that leaves an entry without a route removes it, which is safe
// here: a prefix listed twice (withdrawn and announced by one UPDATE) still
// holds the announced path, and nothing is inserted before the list is
// done. Caller holds s.mu.
func (s *Speaker) redecideLocked(prefixes []netip.Prefix, entries []*ribEntry) {
	s.advertiseTo = s.advertiseTo[:0]
	for _, sess := range s.sessions {
		if sess.state == StateEstablished {
			s.advertiseTo = append(s.advertiseTo, sess)
		}
	}
	// A burst is mostly runs of prefixes whose selection is the same one
	// path (one UPDATE's NLRI); a run shares its next-hop slice, which the
	// receiver may keep but not write to (fib.Insert copies it).
	var shared *Path
	var hops []fib.NextHop
	for i, p := range prefixes {
		was := s.rib.best(entries[i]) // the standing best: decide rewrites the selection in place
		best, changed := s.rib.decide(entries[i], p)
		if !changed {
			continue
		}
		// FIB install/withdraw.
		if s.cfg.OnRoute != nil {
			if len(best) != 1 || best[0] != shared {
				hops, shared = fibHops(best), nil
				if len(best) == 1 {
					shared = best[0]
				}
			}
			s.cfg.OnRoute(RouteEvent{Prefix: p, NextHops: hops})
		}
		// Propagate the single best (not the ECMP set) to peers.
		var adv *Path
		if len(best) > 0 {
			adv = best[0]
		}
		k := prefixKey(p)
		for _, sess := range s.advertiseTo {
			if (adv == nil || !sess.mayAdvertise(adv)) && (was == nil || !sess.mayAdvertise(was)) {
				sess.armAdvLocked()
				continue
			}
			sess.queueAdvLocked(k, adv)
		}
	}
}
