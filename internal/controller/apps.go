package controller

import (
	"sort"

	"repro/internal/core"
	"repro/internal/flowtable"
	"repro/internal/hedera"
	"repro/internal/openflow"
	"repro/internal/topo"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// Proactive 5-tuple ECMP (the paper's TE approach iii)
// ---------------------------------------------------------------------------

// ECMPApp proactively installs destination routes on every switch: one
// rule per host /32, whose action is either a single OUTPUT or Horse's
// vendor select-group hashed over the full five-tuple when several
// shortest paths exist. All control traffic happens right after the
// handshakes — the paper notes control plane events for SDN ECMP are
// "concentrated at the beginning" of the experiment.
type ECMPApp struct {
	ctx *Context

	// repairArmed coalesces PORT_STATUS-driven recomputes: one cable
	// event raises two PORT_STATUS (one per adjacent switch) and a node
	// failure raises two per attached cable; a single debounced repair
	// pass covers the whole batch.
	repairArmed bool

	// installed caches, per switch, the next-hop port set last
	// programmed for each destination host. Repair passes diff the
	// recomputed ports against it and only emit FLOW_MODs for
	// destinations whose forwarding actually changed — a single link
	// failure costs O(affected rules), not O(switches × hosts).
	installed map[core.NodeID]map[core.NodeID][]core.PortID
}

// repairDebounce is the PORT_STATUS coalescing window (virtual time).
const repairDebounce = 2 * core.Millisecond

// Name implements App.
func (a *ECMPApp) Name() string { return "ecmp5" }

// Init implements App.
func (a *ECMPApp) Init(ctx *Context) {
	a.ctx = ctx
	a.installed = make(map[core.NodeID]map[core.NodeID][]core.PortID)
}

// PacketIn implements App; proactive mode should never see punts.
func (a *ECMPApp) PacketIn(sw *SwitchHandle, pi openflow.PacketIn) {
	a.ctx.Logf("ecmp5: unexpected packet-in on dpid %d", sw.DPID)
}

// SwitchReady implements App: install the full destination table. The
// cache entry is reset first so a reconnecting switch (whose hardware
// table starts empty again) gets every rule re-sent rather than
// delta-skipped.
func (a *ECMPApp) SwitchReady(sw *SwitchHandle) {
	a.installed[sw.Node] = make(map[core.NodeID][]core.PortID)
	a.install(sw)
}

// PortStatus implements App: the topology changed, so shortest-path
// port groups anywhere may have gained or lost members — e.g. an
// agg-core failure must also steer remote pods' aggs away from the
// stranded core. The controller has a global view, so it recomputes
// every connected switch's destination table and diffs it against the
// installed cache, emitting FLOW_MODs only where the next-hop set
// actually moved. Repairs are debounced: the burst of PORT_STATUS
// messages one failure produces pays for a single recompute.
func (a *ECMPApp) PortStatus(sw *SwitchHandle, ps openflow.PortStatus) {
	if a.repairArmed {
		return
	}
	a.repairArmed = true
	a.ctx.Clock.After(repairDebounce, a.repairPass)
}

// repairPass recomputes every ready switch's destination table from the
// live topology and delta-installs it; a PORT_STATUS after it arms the
// next pass.
func (a *ECMPApp) repairPass() {
	a.repairArmed = false
	for _, h := range a.ctx.Ctl.Switches() {
		if h.Ready() {
			a.install(h)
		}
	}
}

// install computes one rule per destination host (one BFS from the
// switch answers for all of them) and sends FLOW_MODs for the
// destinations whose next-hop port set differs from what the switch
// already holds (per the installed cache). Destinations that
// became unreachable have their rules deleted so flows blackhole at the
// table miss (and re-punt) rather than into a dead port; destinations
// whose ports are unchanged cost nothing.
func (a *ECMPApp) install(sw *SwitchHandle) {
	g := a.ctx.Topo
	cache := a.installed[sw.Node]
	if cache == nil {
		cache = make(map[core.NodeID][]core.PortID)
		a.installed[sw.Node] = cache
	}
	next := g.NextHopPorts(sw.Node)
	for _, host := range g.Hosts() {
		ports := next[host.ID]
		prev, had := cache[host.ID]
		if portSeqEqual(prev, ports) {
			continue
		}
		m := openflow.MatchFromTable(flowtable.Match{
			DstBits: 32, Dst: host.IP,
		})
		if len(ports) == 0 {
			if had {
				delete(cache, host.ID)
				sw.SendFlowMod(openflow.FlowMod{
					Match:    m,
					Command:  openflow.FCDeleteStrict,
					Priority: 100,
				})
			}
			continue
		}
		cache[host.ID] = ports
		var action openflow.Action
		if len(ports) == 1 {
			action = openflow.Action{Output: uint16(ports[0])}
		} else {
			action = openflow.Action{Group: ports}
		}
		sw.SendFlowMod(openflow.FlowMod{
			Match:    m,
			Command:  openflow.FCAdd,
			Priority: 100,
			Actions:  []openflow.Action{action},
		})
	}
}

// portSeqEqual reports whether two sorted port lists are identical.
func portSeqEqual(a, b []core.PortID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Hedera (the paper's TE approach ii)
// ---------------------------------------------------------------------------

// HederaApp reproduces the demo's Hedera implementation: reactive path
// setup (each new flow is pinned to one shortest path chosen by hash),
// plus a scheduler that polls edge switch flow statistics every
// PollInterval (the paper: "queries for network statistics every 5
// seconds"), estimates natural demands, and re-places big flows with
// Global First Fit.
type HederaApp struct {
	ctx *Context

	// PollInterval is the statistics polling period in virtual time
	// (default 5s, the paper's value).
	PollInterval core.Time

	// installed tracks the current path of every pinned flow.
	installed map[core.FiveTuple][]core.LinkID
	// lastBytes holds the last byte count per flow, to detect idleness.
	lastBytes map[core.FiveTuple]uint64
	rounds    int
}

// Name implements App.
func (a *HederaApp) Name() string { return "hedera" }

// Init implements App.
func (a *HederaApp) Init(ctx *Context) {
	a.ctx = ctx
	if a.PollInterval <= 0 {
		a.PollInterval = 5 * core.Second
	}
	a.installed = make(map[core.FiveTuple][]core.LinkID)
	a.lastBytes = make(map[core.FiveTuple]uint64)
	ctx.Clock.After(a.PollInterval, a.poll)
}

// SwitchReady implements App; Hedera is reactive, nothing to preinstall.
func (a *HederaApp) SwitchReady(sw *SwitchHandle) {}

// PortStatus implements App: forget placements that crossed the dead
// link. The data plane has already invalidated the pinned entries, so
// the affected flows re-punt and are re-pinned over live paths; dropping
// the stale placement here keeps the Global First Fit scheduler from
// treating a dead path as current.
func (a *HederaApp) PortStatus(sw *SwitchHandle, ps openflow.PortStatus) {
	if !ps.Desc.Down() {
		return
	}
	p := a.ctx.Topo.Port(sw.Node, core.PortID(ps.Desc.PortNo))
	if p == nil {
		return
	}
	dead := p.Link
	deadRev := a.ctx.Topo.Link(dead).Reverse
	for ft, path := range a.installed {
		for _, lid := range path {
			if lid == dead || lid == deadRev {
				delete(a.installed, ft)
				break
			}
		}
	}
}

// PacketIn implements App: pin the new flow (pinPuntedFlow) and record
// the placement for the scheduler.
func (a *HederaApp) PacketIn(sw *SwitchHandle, pi openflow.PacketIn) {
	ft, path, ok := pinPuntedFlow(a.ctx, pi)
	if ok {
		a.installed[ft] = path
	}
}

// pinPuntedFlow is reactive path setup, shared by HederaApp and
// ReactiveApp: parse the punted frame, choose one of the shortest paths
// between its hosts by 5-tuple hash, and pin the flow to it. ok is false
// when the frame does not parse or its hosts have no path.
func pinPuntedFlow(ctx *Context, pi openflow.PacketIn) (ft core.FiveTuple, path []core.LinkID, ok bool) {
	ft, err := wire.ParseFlowFrame(pi.Data)
	if err != nil {
		ctx.Logf("controller: undecodable packet-in: %v", err)
		return ft, nil, false
	}
	g := ctx.Topo
	src, ok := g.HostByIP(ft.Src)
	if !ok {
		return ft, nil, false
	}
	dst, ok := g.HostByIP(ft.Dst)
	if !ok {
		return ft, nil, false
	}
	paths := g.AllShortestPaths(src.ID, dst.ID)
	if len(paths) == 0 {
		return ft, nil, false
	}
	path = paths[int(ft.Hash()%uint32(len(paths)))]
	installPath(ctx, ft, path)
	return ft, path, true
}

// installPath installs exact-match rules for ft on every switch hop.
func installPath(ctx *Context, ft core.FiveTuple, path []core.LinkID) {
	g := ctx.Topo
	for _, lid := range path {
		l := g.Link(lid)
		if l == nil {
			continue
		}
		from := g.Node(l.From)
		if from == nil || from.Kind != topo.Switch {
			continue
		}
		sw, ok := ctx.Ctl.Switch(DPIDOf(l.From))
		if !ok {
			continue
		}
		sw.SendFlowMod(openflow.FlowMod{
			Match:    openflow.TupleToExactMatch(ft),
			Command:  openflow.FCAdd,
			Priority: 200,
			Actions:  []openflow.Action{{Output: uint16(l.FromPort)}},
		})
	}
}

// poll is one scheduler round: query flow stats from all edge switches,
// folding each flow's largest byte count into one map, then (when the
// last reply is in) estimate and re-place.
func (a *HederaApp) poll() {
	g := a.ctx.Topo
	var edges []*SwitchHandle
	for _, n := range g.Switches() {
		if n.Layer == topo.LayerEdge {
			if sw, ok := a.ctx.Ctl.Switch(DPIDOf(n.ID)); ok && sw.Ready() {
				edges = append(edges, sw)
			}
		}
	}
	if len(edges) == 0 {
		a.ctx.Clock.After(a.PollInterval, a.poll)
		return
	}
	flows := make(map[core.FiveTuple]uint64)
	wait := len(edges)
	for _, sw := range edges {
		sw.RequestFlowStats(func(entries []openflow.FlowStatsEntry) {
			for _, e := range entries {
				if ft, err := openflow.MatchToTuple(e.Match); err == nil {
					flows[ft] = max(flows[ft], e.ByteCount)
				}
			}
			if wait--; wait == 0 {
				a.rounds++
				a.schedule(flows)
				a.ctx.Clock.After(a.PollInterval, a.poll)
			}
		})
	}
}

// schedule estimates demands and re-places big flows.
func (a *HederaApp) schedule(byteCounts map[core.FiveTuple]uint64) {
	g := a.ctx.Topo
	hosts := g.Hosts()
	hostIdx := make(map[core.NodeID]int, len(hosts))
	for i, h := range hosts {
		hostIdx[h.ID] = i
	}

	// Collect live flows (those whose byte counters moved since the
	// last round, or newly seen).
	var flows []*hedera.Flow
	tuples := make(map[int]core.FiveTuple)
	id := 0
	// Deterministic iteration: sort the tuples.
	ordered := make([]core.FiveTuple, 0, len(byteCounts))
	for ft := range byteCounts {
		ordered = append(ordered, ft)
	}
	sortTuples(ordered)
	for _, ft := range ordered {
		bytes := byteCounts[ft]
		last, seen := a.lastBytes[ft]
		a.lastBytes[ft] = bytes
		if seen && bytes == last {
			continue // idle flow
		}
		srcHost, ok1 := g.HostByIP(ft.Src)
		dstHost, ok2 := g.HostByIP(ft.Dst)
		if !ok1 || !ok2 {
			continue
		}
		f := &hedera.Flow{ID: id, Src: hostIdx[srcHost.ID], Dst: hostIdx[dstHost.ID]}
		tuples[id] = ft
		id++
		flows = append(flows, f)
	}
	if len(flows) == 0 {
		return
	}

	hedera.EstimateDemands(flows)

	// NIC rate: every host port runs at the same rate in the demo.
	nic := core.Rate(core.Gbps)
	if h := hosts[0]; len(h.Ports) > 0 {
		if l := g.Link(h.Ports[0].Link); l != nil {
			nic = l.Rate()
		}
	}

	var big []*hedera.Flow
	for _, f := range flows {
		if f.Demand >= hedera.BigFlowThreshold {
			big = append(big, f)
		}
	}
	if len(big) == 0 {
		return
	}
	reserved := map[core.LinkID]core.Rate{}
	placements := hedera.GlobalFirstFit(
		big,
		func(f *hedera.Flow) core.Rate { return core.Rate(f.Demand) * nic },
		func(f *hedera.Flow) [][]core.LinkID {
			ft := tuples[f.ID]
			src, _ := g.HostByIP(ft.Src)
			dst, _ := g.HostByIP(ft.Dst)
			return g.AllShortestPaths(src.ID, dst.ID)
		},
		func(l core.LinkID) core.Rate {
			if link := g.Link(l); link != nil {
				return link.Rate()
			}
			return 0
		},
		reserved,
	)
	moved := 0
	for _, pl := range placements {
		ft := tuples[pl.FlowID]
		if !linkSeqEqual(a.installed[ft], pl.Path) {
			a.installed[ft] = pl.Path
			installPath(a.ctx, ft, pl.Path)
			moved++
		}
	}
	if moved > 0 {
		a.ctx.Logf("hedera: moved %d flows", moved)
	}
}

// Rounds reports the poll rounds whose last reply has arrived, each of
// which ran the scheduler. It takes the controller's lock, so call it
// from outside the app's callbacks.
func (a *HederaApp) Rounds() int {
	a.ctx.Ctl.mu.Lock()
	defer a.ctx.Ctl.mu.Unlock()
	return a.rounds
}

func linkSeqEqual(a, b []core.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortTuples(ts []core.FiveTuple) {
	sort.Slice(ts, func(i, j int) bool {
		if c := ts[i].Src.Compare(ts[j].Src); c != 0 {
			return c < 0
		}
		if c := ts[i].Dst.Compare(ts[j].Dst); c != 0 {
			return c < 0
		}
		if ts[i].SrcPort != ts[j].SrcPort {
			return ts[i].SrcPort < ts[j].SrcPort
		}
		return ts[i].DstPort < ts[j].DstPort
	})
}

// DPIDOf maps a topology node to its datapath id; the Connection Manager
// uses it when wiring agents, and the apps to address switches.
func DPIDOf(n core.NodeID) uint64 { return uint64(n) + 1 }

// ---------------------------------------------------------------------------
// Reactive shortest-path app (the reactive scenario, and a Hedera
// baseline without the scheduler)
// ---------------------------------------------------------------------------

// ReactiveApp pins each new flow to a hash-chosen shortest path, with no
// periodic scheduling. It is Hedera's "baseline ECMP" behaviour.
type ReactiveApp struct {
	ctx *Context
}

// Name implements App.
func (a *ReactiveApp) Name() string { return "reactive" }

// Init implements App.
func (a *ReactiveApp) Init(ctx *Context) { a.ctx = ctx }

// SwitchReady implements App.
func (a *ReactiveApp) SwitchReady(sw *SwitchHandle) {}

// PortStatus implements App: nothing to do — the data plane invalidates
// pinned entries over the dead link, the affected flows re-punt, and
// PacketIn re-pins them over the surviving shortest paths.
func (a *ReactiveApp) PortStatus(sw *SwitchHandle, ps openflow.PortStatus) {}

// PacketIn implements App.
func (a *ReactiveApp) PacketIn(sw *SwitchHandle, pi openflow.PacketIn) {
	pinPuntedFlow(a.ctx, pi)
}
