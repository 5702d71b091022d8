package cm

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/flowtable"
	"repro/internal/netmodel"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topo"
)

// handleApp hands each switch to the test as it becomes ready and sends
// nothing of its own.
type handleApp struct{ ready chan *controller.SwitchHandle }

func (a *handleApp) Name() string                                             { return "handles" }
func (a *handleApp) Init(*controller.Context)                                 {}
func (a *handleApp) SwitchReady(sw *controller.SwitchHandle)                  { a.ready <- sw }
func (a *handleApp) PacketIn(*controller.SwitchHandle, openflow.PacketIn)     {}
func (a *handleApp) PortStatus(*controller.SwitchHandle, openflow.PortStatus) {}

// wiredSDN wires fattree:4's switches to a controller that sends nothing
// of its own, and returns one switch's handle and table once every
// handshake is done and nothing is in flight: from then on, what the
// caller sends is all the control plane does. start runs the engine, or
// ends its run, between wiring and handshakes.
func wiredSDN(tb testing.TB, engine *sim.Engine, start func()) (*Manager, *controller.SwitchHandle, *flowtable.Table) {
	tb.Helper()
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		tb.Fatal(err)
	}
	net := netmodel.New(g)
	m := New(engine, net, nil)
	tb.Cleanup(m.Stop)
	app := &handleApp{ready: make(chan *controller.SwitchHandle, len(g.Switches()))}
	if err := m.WireSDN(app); err != nil {
		tb.Fatal(err)
	}
	start()
	sw := <-app.ready
	for range len(g.Switches()) - 1 {
		<-app.ready
	}
	for m.ledger.InFlight() != 0 {
		runtime.Gosched()
	}
	return m, sw, net.Table(sw.Node)
}

// ecmpRule is the FLOW_MOD ecmp5 installs for one destination host.
func ecmpRule(dst uint32, group []core.PortID) openflow.FlowMod {
	return openflow.FlowMod{
		Match:    openflow.MatchFromTable(flowtable.Match{DstBits: 32, Dst: core.IPv4FromUint32(dst)}),
		Command:  openflow.FCAdd,
		Priority: 100,
		Actions:  []openflow.Action{{Group: group}},
	}
}

// fatTreeK10Groups are two groups of the size ecmp5 installs on
// fattree:10, in two orders.
var fatTreeK10Groups = [][]core.PortID{{1, 2, 3, 4, 5}, {5, 4, 3, 2, 1}}

// sendAndWait sends one FLOW_MOD and waits until the agent has handed it
// to the CM and parked again.
func sendAndWait(m *Manager, sw *controller.SwitchHandle, fm openflow.FlowMod) {
	sw.SendFlowMod(fm)
	for m.ledger.InFlight() != 0 {
		runtime.Gosched()
	}
}

// TestFlowModPathAllocatesOnlyWhatTheTableKeeps follows one FLOW_MOD from
// the controller to the switch's table: SwitchHandle.SendFlowMod, the
// tapped pipe, the agent's decode, the CM's FLOW_MOD log and its drain,
// flowtable.Table.Add. Re-adding an installed ecmp5 rule with a group of
// the same size — the repair path — allocates nothing. A new rule
// allocates the two objects the table keeps: its entry, which holds its
// one action, and its group.
func TestFlowModPathAllocatesOnlyWhatTheTableKeeps(t *testing.T) {
	engine := newEngine()
	// An ended run drops posts; the test drains in the engine's place.
	m, sw, table := wiredSDN(t, engine, func() { engine.Run(0) })
	install := func(fm openflow.FlowMod) {
		sendAndWait(m, sw, fm)
		m.drainFlowMods()
	}
	// The FLOW_MODs are built before anything is counted.
	const dst = 0x0A000102
	groups := fatTreeK10Groups
	again := []openflow.FlowMod{ecmpRule(dst, groups[0]), ecmpRule(dst, groups[1])}
	reAdds := 0
	reAdd := func() {
		install(again[reAdds%2])
		reAdds++
	}
	reAdd()
	if allocs := testing.AllocsPerRun(100, reAdd); allocs != 0 {
		t.Errorf("re-adding an installed rule allocates %v times, want 0", allocs)
	}
	last := groups[(reAdds-1)%2]
	e, ok := table.Lookup(1, core.FiveTuple{Dst: core.IPv4FromUint32(dst)})
	if !ok || len(e.Actions) != 1 || !slices.Equal(e.Actions[0].Group, last) {
		t.Fatalf("after %d re-adds the table holds %v, want the group %v", reAdds, e, last)
	}

	// New rules beside the installed one. The table is grown to hold them
	// first, so that only the new entries' own objects count.
	const newRules = 101 // AllocsPerRun's warm-up call, then 100
	fresh := make([]openflow.FlowMod, newRules)
	for i := range fresh {
		fresh[i] = ecmpRule(dst+1+uint32(i), groups[i%2])
		install(fresh[i])
	}
	for _, fm := range fresh {
		fm.Command, fm.Actions = openflow.FCDeleteStrict, nil
		install(fm)
	}
	added := 0
	addNew := func() {
		install(fresh[added])
		added++
	}
	if allocs := testing.AllocsPerRun(100, addNew); allocs != 2 {
		t.Errorf("a new rule allocates %v times, want 2: its entry and its group", allocs)
	}
	if n := table.Len(); n != 1+newRules {
		t.Fatalf("table holds %d rules, want %d", n, 1+newRules)
	}
	if got, want := m.Stats.FlowModsApplied.Load(), uint64(reAdds+3*newRules); got != want {
		t.Fatalf("FlowModsApplied = %d, want %d", got, want)
	}
}

// BenchmarkFlowModPath is the allocation test's path with the engine
// running, unpaced: an operation is one ecmp5 FLOW_MOD from SendFlowMod
// until the engine has applied it, re-adding the installed rule or adding
// a new one.
func BenchmarkFlowModPath(b *testing.B) {
	for _, fresh := range []bool{false, true} {
		name := "re-add"
		if fresh {
			name = "new-rule"
		}
		b.Run(name, func(b *testing.B) {
			engine := sim.New(sim.Config{Pacing: 1e9, MaxIdleWall: time.Hour})
			ran := make(chan struct{})
			m, sw, table := wiredSDN(b, engine, func() {
				go func() {
					defer close(ran)
					engine.Run(core.MaxTime)
				}()
			})
			defer func() {
				engine.Stop()
				<-ran
			}()
			// The engine's inbox is FIFO: mark runs after the drain of
			// every FLOW_MOD the agent has handed over.
			var marks atomic.Int64
			mark := func() { marks.Add(1) }
			const dst = 0x0A000102
			install := func(fm openflow.FlowMod) {
				sendAndWait(m, sw, fm)
				want := marks.Load() + 1
				engine.PostData(mark)
				for marks.Load() != want {
					runtime.Gosched()
				}
			}
			rules := make([]openflow.FlowMod, 1+b.N)
			for i := range rules {
				d := uint32(dst)
				if fresh {
					d += uint32(i)
				}
				rules[i] = ecmpRule(d, fatTreeK10Groups[i%2])
			}
			install(rules[0])
			b.ReportAllocs()
			b.ResetTimer()
			for _, fm := range rules[1:] {
				install(fm)
			}
			b.StopTimer()
			if want := 1 + b.N; fresh && table.Len() != want {
				b.Fatalf("table holds %d rules, want %d", table.Len(), want)
			}
		})
	}
}
