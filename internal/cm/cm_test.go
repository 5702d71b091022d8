package cm

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/flowtable"
	"repro/internal/fluid"
	"repro/internal/netmodel"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topo"
)

func newEngine() *sim.Engine {
	return sim.New(sim.Config{
		QuietTimeout: 100 * core.Millisecond,
		Pacing:       50,
		MaxIdleWall:  2 * time.Second,
		StartInFTI:   true,
	})
}

func TestTappedPipeNotifiesEngine(t *testing.T) {
	g, _ := topo.Star(2, topo.Switch, core.Gbps, 0)
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()

	a, b := m.tappedPipe(0, 0, nil)
	done := make(chan sim.Stats, 1)
	go func() { done <- engine.Run(core.Second) }()
	if _, err := a.Write([]byte("control")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	engine.Stop()
	st := <-done
	if m.Stats.ControlBytes.Load() != 7 {
		t.Fatalf("control bytes = %d", m.Stats.ControlBytes.Load())
	}
	if m.Stats.ControlWrites.Load() != 1 {
		t.Fatalf("control writes = %d", m.Stats.ControlWrites.Load())
	}
	if st.ControlPosts == 0 {
		t.Fatal("engine saw no control activity")
	}
}

func TestWireBGPRequiresRouters(t *testing.T) {
	g, _ := topo.Star(2, topo.Switch, core.Gbps, 0)
	m := New(newEngine(), netmodel.New(g), nil)
	defer m.Stop()
	if err := m.WireBGP(BGPConfig{}); err == nil {
		t.Fatal("WireBGP on switch topology accepted")
	}
}

func TestWireSDNRequiresSwitches(t *testing.T) {
	g, _ := topo.TwoRouters(core.Gbps, 0)
	m := New(newEngine(), netmodel.New(g), nil)
	defer m.Stop()
	if err := m.WireSDN(&controller.ECMPApp{}); err == nil {
		t.Fatal("WireSDN on router topology accepted")
	}
}

func TestTranslateFlowMod(t *testing.T) {
	fm := openflow.FlowMod{
		Command:  openflow.FCAdd,
		Priority: 10,
		Actions: []openflow.Action{
			{Output: 3},
			{ToCtrl: true},
			{Group: []core.PortID{1, 2}},
		},
	}
	mod := translateFlowMod(netmodel.FlowModAdd, fm, nil)
	if mod.Kind != netmodel.FlowModAdd || mod.Entry.Priority != 10 {
		t.Fatalf("kind %v, priority %d", mod.Kind, mod.Entry.Priority)
	}
	if len(mod.Entry.Actions) != 3 ||
		mod.Entry.Actions[0].Type != flowtable.ActionOutput ||
		mod.Entry.Actions[1].Type != flowtable.ActionController ||
		mod.Entry.Actions[2].Type != flowtable.ActionSelectGroup {
		t.Fatalf("actions = %+v", mod.Entry.Actions)
	}
	if k, err := flowModKind(openflow.FCAdd); err != nil || k != netmodel.FlowModAdd {
		t.Fatalf("ADD -> %v, %v", k, err)
	}
	if k, err := flowModKind(openflow.FCDeleteStrict); err != nil || k != netmodel.FlowModDeleteStrict {
		t.Fatalf("DELETE_STRICT -> %v, %v", k, err)
	}
	for _, cmd := range []uint16{openflow.FCModify, openflow.FCModifyStrict, openflow.FCDelete, 99} {
		if _, err := flowModKind(cmd); err == nil {
			t.Fatalf("command %d accepted", cmd)
		}
	}
}

func TestWireBGPFigure1EndToEnd(t *testing.T) {
	// Direct CM-level version of the paper's Figure 1, without the
	// public API: two routers converge and FIBs fill in.
	g, err := topo.TwoRouters(core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()
	if err := m.WireBGP(BGPConfig{}); err != nil {
		t.Fatal(err)
	}
	st := engine.Run(20 * core.Second)
	if m.Stats.RouteInstalls.Load() < 2 {
		t.Fatalf("route installs = %d", m.Stats.RouteInstalls.Load())
	}
	r1, _ := g.NodeByName("r1")
	r2, _ := g.NodeByName("r2")
	// Each FIB holds: its own host /32 (connected) plus the peer's /24.
	if net.FIB(r1.ID).Len() < 2 || net.FIB(r2.ID).Len() < 2 {
		t.Fatalf("FIB sizes = %d / %d", net.FIB(r1.ID).Len(), net.FIB(r2.ID).Len())
	}
	if st.ControlPosts == 0 {
		t.Fatal("no control activity observed")
	}
	// Speakers are reachable for inspection.
	if m.Speaker(r1.ID) == nil || m.Speaker(r2.ID) == nil {
		t.Fatal("speakers not registered")
	}
	rib := m.Speaker(r1.ID).LocRIB()
	if len(rib) < 2 {
		t.Fatalf("r1 LocRIB = %v", rib)
	}
}

func TestWireSDNHandshakesAllSwitches(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()
	if err := m.WireSDN(&controller.ECMPApp{}); err != nil {
		t.Fatal(err)
	}
	// The run's end: an SDN wiring schedules nothing of its own, and an
	// empty queue would be waited on for MaxIdleWall.
	engine.Schedule(10*core.Second, func() {})
	engine.Run(10 * core.Second)
	if got := m.Controller().ReadyCount(); got != len(g.Switches()) {
		t.Fatalf("ready switches = %d, want %d", got, len(g.Switches()))
	}
	// The proactive app populated every switch's table.
	for _, sw := range g.Switches() {
		if net.Table(sw.ID).Len() == 0 {
			t.Fatalf("switch %s has empty table", sw.Name)
		}
	}
	if m.Stats.FlowModsApplied.Load() == 0 {
		t.Fatal("no flow mods crossed the CM")
	}
}

// TestReactivePacketInsReachController: in a reactive run whose flows
// punt at t = 0, while agents may still be before Ready and hold what
// they are handed, every PACKET_IN the CM hands an agent reaches the
// controller: once the ledger reads zero the two counts agree.
func TestReactivePacketInsReachController(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()
	if err := m.WireSDN(&controller.ReactiveApp{}); err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for i, src := range hosts {
		dst := hosts[(i+5)%len(hosts)]
		f := &fluid.Flow{
			ID:    fluid.FlowID(i + 1),
			Tuple: core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: core.ProtoUDP, SrcPort: uint16(10000 + i), DstPort: 20000},
			Src:   src.ID, Dst: dst.ID, Demand: core.Gbps,
		}
		engine.Schedule(0, func() { net.StartFlow(f, engine.Now()) })
	}
	engine.Schedule(core.Second, func() {})
	engine.Run(core.Second)
	waitLedgerZero(t, m)
	punts, recv := m.Stats.PacketIns.Load(), m.Controller().Stats.PacketInsRecv.Load()
	if punts == 0 {
		t.Fatal("no flow punted")
	}
	if recv != int64(punts) {
		t.Fatalf("controller received %d PACKET_INs, the CM handed agents %d", recv, punts)
	}
}

// TestStopRunsInReverseStartOrder: Stop stops what was started last
// first, once; a second Stop finds nothing left.
func TestStopRunsInReverseStartOrder(t *testing.T) {
	g, _ := topo.TwoRouters(core.Gbps, 0)
	m := New(newEngine(), netmodel.New(g), nil)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		m.stops = append(m.stops, func() { order = append(order, name) })
	}
	m.Stop()
	m.Stop()
	if got := strings.Join(order, ""); got != "cba" {
		t.Fatalf("stop order = %q, want \"cba\"", got)
	}
}

// wirings is fattree:4 wired once as BGP, once as SDN.
var wirings = []struct {
	name    string
	routers bool
	wire    func(*Manager) error
}{
	{"bgp", true, func(m *Manager) error { return m.WireBGP(BGPConfig{ECMP: true}) }},
	{"sdn", false, func(m *Manager) error { return m.WireSDN(&controller.ECMPApp{}) }},
}

// TestStopLeavesNoGoroutine: a wired, briefly run and stopped control
// plane — fattree:4 once as BGP, once as SDN — leaves no goroutine
// behind: every session reader, connection reader and controller worker
// is gone when Stop returns (timers in flight get a moment to fire).
func TestStopLeavesNoGoroutine(t *testing.T) {
	for _, tc := range wirings {
		t.Run(tc.name, func(t *testing.T) {
			g, err := topo.FatTree(topo.FatTreeOpts{K: 4, Routers: tc.routers})
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			engine := newEngine()
			m := New(engine, netmodel.New(g), nil)
			if err := tc.wire(m); err != nil {
				t.Fatal(err)
			}
			if wired := runtime.NumGoroutine(); wired <= before {
				t.Fatalf("wiring started no goroutine (%d -> %d)", before, wired)
			}
			engine.Schedule(core.Second, func() {}) // the run's end: SDN schedules nothing
			engine.Run(core.Second)
			m.Stop()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before wiring, %d after Stop:\n%s",
						before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// waitLedgerZero polls for the ledger to read zero: Stop waits for every
// reader, but a clock callback that fired just before its session closed
// may still be inside flushAdv for a moment, holding clock.After's token.
func waitLedgerZero(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.ledger.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ledger reads %d, want 0", m.ledger.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLedgerZeroAfterStop: every token taken while a control plane was
// wired, converged and torn down comes back — fattree:4 once as BGP, once
// as SDN — and the run left FTI on that evidence, not on the timeout.
func TestLedgerZeroAfterStop(t *testing.T) {
	for _, tc := range wirings {
		t.Run(tc.name, func(t *testing.T) {
			g, err := topo.FatTree(topo.FatTreeOpts{K: 4, Routers: tc.routers})
			if err != nil {
				t.Fatal(err)
			}
			engine := newEngine()
			m := New(engine, netmodel.New(g), nil)
			if err := tc.wire(m); err != nil {
				t.Fatal(err)
			}
			if m.ledger.InFlight() == 0 {
				t.Fatal("wired channels hold no token before the engine runs")
			}
			// An event at the horizon gives DES something to jump to
			// instead of idling out the wall-clock wait.
			engine.Schedule(core.Second, func() {})
			st := engine.Run(core.Second)
			if st.EvidenceExits != 1 || st.TimeoutExits != 0 {
				t.Fatalf("FTI exits: %d on evidence, %d on timeout; want 1, 0", st.EvidenceExits, st.TimeoutExits)
			}
			m.Stop()
			waitLedgerZero(t, m)
		})
	}
}

// TestLedgerClearsAfterCableFlap: a CableDown/CableUp pair resets two BGP
// sessions (CEASE, EOF, withdrawals) and re-peers them over a fresh
// channel; each episode ends with the ledger back at zero — the clock
// leaves FTI three times, boot included, never on the timeout — and
// nothing is left held after Stop.
func TestLedgerClearsAfterCableFlap(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4, Routers: true})
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine()
	m := New(engine, netmodel.New(g), nil)
	if err := m.WireBGP(BGPConfig{ECMP: true}); err != nil {
		t.Fatal(err)
	}
	agg, _ := g.NodeByName("agg-0-0")
	core0, _ := g.NodeByName("core-0-0")
	cable := g.CableBetween(agg.ID, core0.ID)
	if cable == nil {
		t.Fatal("no agg-0-0 <-> core-0-0 cable")
	}
	engine.Schedule(300*core.Millisecond, func() { m.CableDown(cable) })
	engine.Schedule(600*core.Millisecond, func() { m.CableUp(cable) })
	engine.Schedule(core.Second, func() {}) // something for DES to jump to
	st := engine.Run(core.Second)
	if m.Stats.Injections.Load() != 2 {
		t.Fatalf("injections = %d, want 2", m.Stats.Injections.Load())
	}
	if st.EvidenceExits != 3 || st.TimeoutExits != 0 {
		t.Fatalf("FTI exits: %d on evidence, %d on timeout; want 3, 0", st.EvidenceExits, st.TimeoutExits)
	}
	if got := m.ledger.InFlight(); got != 0 {
		t.Fatalf("ledger reads %d after the last episode, want 0", got)
	}
	m.Stop()
	waitLedgerZero(t, m)
}

// TestStopIsSilent: stopping a converged BGP control plane is CEASE,
// close, wait — nothing else. No speaker sends an UPDATE, emits a route
// event or touches its Loc-RIB on the way down, no FIB changes, the only
// messages written are NOTIFICATIONs, every ledger token comes back and
// every goroutine exits. Without the stopping signal each closing session
// makes its peer withdraw and re-advertise everything the session carried,
// to sessions that are about to close too.
func TestStopIsSilent(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo func() (*topo.Graph, error)
		wire func(*Manager) error
	}{
		{"fattree:4", func() (*topo.Graph, error) { return topo.FatTree(topo.FatTreeOpts{K: 4, Routers: true}) },
			wirings[0].wire},
		{"wan:multi", func() (*topo.Graph, error) {
			return topo.WANMultiAS(topo.MultiASOpts{WANOpts: topo.WANOpts{PoPs: 4, Seed: 11}, ASes: 2, FullTablePrefixes: 600})
		}, func(m *Manager) error {
			return m.WireBGP(BGPConfig{RouteReflection: true, LinkLatency: true, AdvertiseDelay: 10 * time.Millisecond})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.topo()
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			engine := newEngine()
			net := netmodel.New(g)
			m := New(engine, net, nil)
			if err := tc.wire(m); err != nil {
				t.Fatal(err)
			}
			engine.Schedule(2*core.Second, func() {}) // something for DES to jump to
			if st := engine.Run(2 * core.Second); st.EvidenceExits == 0 || st.TimeoutExits != 0 {
				t.Fatalf("FTI exits: %d on evidence, %d on timeout: the plane did not converge", st.EvidenceExits, st.TimeoutExits)
			}
			waitLedgerZero(t, m)

			sessions := 0
			for _, l := range g.Links {
				if l.ID < l.Reverse && g.Node(l.From).Kind == topo.Router && g.Node(l.To).Kind == topo.Router {
					sessions++
				}
			}
			type counts struct {
				updates, notifications, installs, withdraws, writes uint64
				fib, locRIB                                         []int // per router
			}
			snapshot := func() counts {
				c := counts{
					installs:  m.Stats.RouteInstalls.Load(),
					withdraws: m.Stats.RouteWithdraws.Load(),
					writes:    m.Stats.ControlWrites.Load(),
				}
				for _, r := range g.Routers() {
					sp := m.Speaker(r.ID)
					c.updates += sp.Stats.UpdatesSent.Load()
					c.notifications += sp.Stats.NotificationsSent.Load()
					c.fib = append(c.fib, net.FIB(r.ID).Len())
					c.locRIB = append(c.locRIB, len(sp.LocRIB()))
				}
				return c
			}
			was := snapshot()
			if was.updates == 0 || was.installs == 0 {
				t.Fatalf("nothing to be silent about: %+v", was)
			}
			m.Stop()
			waitLedgerZero(t, m)
			now := snapshot()

			sent := now.notifications - was.notifications
			if sent < uint64(sessions) || sent > 2*uint64(sessions) {
				t.Errorf("%d NOTIFICATIONs for %d sessions, want one per session to one per session end", sent, sessions)
			}
			// Every NOTIFICATION counted is written, but the transport
			// refuses one written after the other end closed it (a session
			// whose peer's reader had not yet taken in the peer's CEASE), so
			// that one is no control write.
			if wrote := now.writes - was.writes; wrote < uint64(sessions) || wrote > sent {
				t.Errorf("%d control writes during Stop for %d NOTIFICATIONs over %d sessions", wrote, sent, sessions)
			}
			now.notifications, now.writes = was.notifications, was.writes
			if !reflect.DeepEqual(was, now) {
				t.Errorf("Stop was not silent:\nbefore %+v\nafter  %+v", was, now)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before wiring, %d after Stop", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestRouteQueueKeepsArrivalOrder: route changes emitted by several
// speaker goroutines wait in one queue and reach the FIB in the order each
// goroutine emitted them — a prefix installed, withdrawn and installed
// again inside one drain ends installed, with the later next hop — for one
// engine post, however many routes it carries.
func TestRouteQueueKeepsArrivalOrder(t *testing.T) {
	const speakers, routes = 4, 2000
	g, _ := topo.TwoRouters(core.Gbps, 0)
	r1, _ := g.NodeByName("r1")
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()
	prefix := func(s, i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(s), byte(i >> 8), byte(i)}), 32)
	}
	first := []fib.NextHop{{Port: 1, Via: netip.MustParseAddr("172.16.0.1")}}
	last := []fib.NextHop{{Port: 2, Via: netip.MustParseAddr("172.16.0.3")}}
	var wg sync.WaitGroup
	for s := 0; s < speakers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < routes; i++ {
				p := prefix(s, i)
				m.applyRoute(r1.ID, bgp.RouteEvent{Prefix: p, NextHops: first})
				m.applyRoute(r1.ID, bgp.RouteEvent{Prefix: p})
				m.applyRoute(r1.ID, bgp.RouteEvent{Prefix: p, NextHops: last})
			}
		}()
	}
	wg.Wait()
	engine.Schedule(10*core.Millisecond, func() {})
	st := engine.Run(10 * core.Millisecond)
	if st.ControlPosts != 1 {
		t.Errorf("%d control posts for %d queued route changes, want 1", st.ControlPosts, 3*speakers*routes)
	}
	if in, out := m.Stats.RouteInstalls.Load(), m.Stats.RouteWithdraws.Load(); in != 2*speakers*routes || out != speakers*routes {
		t.Errorf("counted %d installs and %d withdrawals, want %d and %d", in, out, 2*speakers*routes, speakers*routes)
	}
	table := net.FIB(r1.ID)
	if table.Len() != speakers*routes {
		t.Fatalf("FIB holds %d routes, want %d", table.Len(), speakers*routes)
	}
	for s := 0; s < speakers; s++ {
		for i := 0; i < routes; i++ {
			if r, ok := table.Lookup(prefix(s, i).Addr()); !ok || len(r.NextHops) != 1 || r.NextHops[0] != last[0] {
				t.Fatalf("%v -> %v, %v; want %v", prefix(s, i), r.NextHops, ok, last)
			}
		}
	}
}

// TestRefusedRouteIsReported: a route change the network refuses — here a
// prefix the FIB does not take, and a node that has no FIB — is counted all
// the same, so it has to be reported as not applied, with the node and the
// prefix: a prefix that is not IPv4 when it is queued, the rest by the drain
// that counts them. The changes around it are applied.
func TestRefusedRouteIsReported(t *testing.T) {
	g, _ := topo.TwoRouters(core.Gbps, 0)
	r1, _ := g.NodeByName("r1")
	h1, _ := g.NodeByName("h1")
	var mu sync.Mutex
	var logged []string
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	defer m.Stop()
	hops := []fib.NextHop{{Port: 1, Via: netip.MustParseAddr("172.16.0.1")}}
	good := netip.MustParsePrefix("20.0.0.0/24")
	v6 := netip.MustParsePrefix("2001:db8::/32")
	m.applyRoute(r1.ID, bgp.RouteEvent{Prefix: v6, NextHops: hops})
	m.applyRoute(h1.ID, bgp.RouteEvent{Prefix: good})
	m.applyRoute(r1.ID, bgp.RouteEvent{Prefix: good, NextHops: hops})
	engine.Schedule(10*core.Millisecond, func() {})
	engine.Run(10 * core.Millisecond)
	if in, out := m.Stats.RouteInstalls.Load(), m.Stats.RouteWithdraws.Load(); in != 2 || out != 1 {
		t.Errorf("counted %d installs and %d withdrawals, want 2 and 1", in, out)
	}
	if table := net.FIB(r1.ID); table.Len() != 1 {
		t.Errorf("FIB holds %d routes, want the valid one", table.Len())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 2 ||
		!strings.Contains(logged[0], v6.String()) || !strings.Contains(logged[0], r1.ID.String()) ||
		!strings.Contains(logged[1], good.String()) || !strings.Contains(logged[1], h1.ID.String()) {
		t.Fatalf("refused routes were logged as %q, want one line each naming node and prefix", logged)
	}
}
