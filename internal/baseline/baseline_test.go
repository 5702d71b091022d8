package baseline

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
)

func fastCfg() Config {
	return Config{
		TokenBytes:   125_000, // 1000 tokens/s at 1 Gbps
		PerNodeSetup: 100 * time.Microsecond,
		PerLinkSetup: 50 * time.Microsecond,
	}
}

func TestEmulatorDeliversTraffic(t *testing.T) {
	g, err := topo.Star(4, topo.Switch, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	h0, _ := g.NodeByName("h0")
	h1, _ := g.NodeByName("h1")
	flows := []FlowSpec{{
		Tuple: core.FiveTuple{Src: h0.IP, Dst: h1.IP, Proto: core.ProtoUDP, SrcPort: 1, DstPort: 2},
		Src:   h0.ID, Dst: h1.ID, Rate: 100 * core.Mbps,
	}}
	st := e.Run(flows, 300*time.Millisecond)
	if st.DeliveredBytes == 0 {
		t.Fatalf("nothing delivered: %v", st)
	}
	// 100 Mbps for 0.3s ~ 3.75 MB; allow generous slack for pacing.
	if st.DeliveredBytes > 6_000_000 {
		t.Fatalf("delivered too much: %v", st)
	}
	if st.AggregateRx() <= 0 {
		t.Fatal("zero aggregate rx")
	}
}

func TestEmulatorRunsInRealTime(t *testing.T) {
	// The defining property of emulation: a 300ms experiment takes at
	// least 300ms of wall clock.
	g, err := topo.Star(2, topo.Switch, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	start := time.Now()
	e.Run(nil, 300*time.Millisecond)
	if el := time.Since(start); el < 300*time.Millisecond {
		t.Fatalf("emulation finished early: %v", el)
	}
}

func TestSetupCostGrowsWithTopology(t *testing.T) {
	cfg := fastCfg()
	small, err := topo.FatTree(topo.FatTreeOpts{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	es, err := New(small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	es.Close()
	big, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := New(big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb.Close()
	if eb.SetupTime <= es.SetupTime {
		t.Fatalf("setup: k=4 %v <= k=2 %v", eb.SetupTime, es.SetupTime)
	}
}

func TestECMPSpreadsAcrossCore(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Inter-pod flows with distinct ports hash over 4 core paths.
	src, _ := g.NodeByName("host-0-0-0")
	dst, _ := g.NodeByName("host-2-1-1")
	var flows []FlowSpec
	for i := 0; i < 8; i++ {
		flows = append(flows, FlowSpec{
			Tuple: core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: core.ProtoUDP,
				SrcPort: uint16(100 + i), DstPort: 2},
			Src: src.ID, Dst: dst.ID, Rate: 50 * core.Mbps,
		})
	}
	st := e.Run(flows, 300*time.Millisecond)
	if st.DeliveredBytes == 0 {
		t.Fatalf("no delivery across fat-tree: %v", st)
	}
}

func TestMisroutedTokenDropped(t *testing.T) {
	g := topo.New()
	s := g.AddSwitch("s0")
	h := g.AddHost("h0")
	h.IP = netip.MustParseAddr("10.0.0.1")
	g.Connect(s, h, core.Gbps, 0)
	e, err := New(g, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Destination unknown to the routing table.
	flows := []FlowSpec{{
		Tuple: core.FiveTuple{Src: h.IP, Dst: netip.MustParseAddr("10.9.9.9"), Proto: core.ProtoUDP, SrcPort: 1, DstPort: 2},
		Src:   h.ID, Dst: core.NodeID(9999), Rate: 100 * core.Mbps,
	}}
	st := e.Run(flows, 200*time.Millisecond)
	if st.DeliveredBytes != 0 {
		t.Fatalf("misrouted tokens delivered: %v", st)
	}
	if st.DroppedBytes == 0 {
		t.Fatal("drops not counted")
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestFailureDipAndRepair(t *testing.T) {
	// A diamond with two disjoint switch paths: failing one of them drops
	// the tokens hashed onto it until the emulated control plane repairs
	// the tables over the surviving path (RepairDelay later), after which
	// delivery recovers — the baseline mirror of netmodel.SetCableState.
	g := topo.New()
	h0 := g.AddHost("h0")
	h0.IP = netip.MustParseAddr("10.0.0.1")
	h1 := g.AddHost("h1")
	h1.IP = netip.MustParseAddr("10.0.0.2")
	in := g.AddSwitch("in")
	up := g.AddSwitch("up")
	down := g.AddSwitch("down")
	out := g.AddSwitch("out")
	g.Connect(h0, in, core.Gbps, 0)
	g.Connect(in, up, core.Gbps, 0)
	g.Connect(in, down, core.Gbps, 0)
	g.Connect(up, out, core.Gbps, 0)
	g.Connect(down, out, core.Gbps, 0)
	g.Connect(out, h1, core.Gbps, 0)

	cfg := fastCfg()
	cfg.TokenBytes = 12_500                  // 1000 tokens/s per 100 Mbps flow
	cfg.RepairDelay = 150 * time.Millisecond // six sampling intervals
	e, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Many flows with distinct ports so both diamond arms carry traffic.
	var flows []FlowSpec
	for i := 0; i < 16; i++ {
		flows = append(flows, FlowSpec{
			Tuple: core.FiveTuple{Src: h0.IP, Dst: h1.IP, Proto: core.ProtoUDP,
				SrcPort: uint16(100 + i), DstPort: 2},
			Src: h0.ID, Dst: h1.ID, Rate: 100 * core.Mbps,
		})
	}
	cable := g.CableBetween(in.ID, up.ID)
	failAt, healAt := 250*time.Millisecond, 600*time.Millisecond
	st := e.Run(flows, 800*time.Millisecond,
		Injection{At: failAt, Link: cable.ID, Down: true},
		Injection{At: healAt, Link: cable.ID, Down: false})
	if st.DeliveredBytes == 0 {
		t.Fatalf("nothing delivered: %v", st)
	}
	if st.DroppedBytes == 0 {
		t.Fatal("the failure dropped nothing — dead-cable check not applied")
	}
	if len(st.Samples) < 10 {
		t.Fatalf("timeline too sparse: %d samples", len(st.Samples))
	}
	lat, ok := st.RepairLatency(failAt, healAt, 0.8)
	if !ok {
		t.Fatalf("no repair detected; samples=%d delivered=%d", len(st.Samples), st.DeliveredBytes)
	}
	// Repair cannot precede the emulated reconvergence delay by more than
	// one sampling interval, and must happen well before the heal.
	if lat < cfg.RepairDelay-2*sampleInterval {
		t.Fatalf("repair latency %v earlier than the %v reconvergence delay", lat, cfg.RepairDelay)
	}
	if lat > healAt-failAt {
		t.Fatalf("repair latency %v after the heal", lat)
	}
}

func TestSetCableStateNoChange(t *testing.T) {
	g, err := topo.Star(2, topo.Switch, core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	l := g.Links[0]
	if e.SetCableState(l.ID, false) {
		t.Fatal("restoring an up cable reported a change")
	}
	if !e.SetCableState(l.ID, true) || e.SetCableState(l.ID, true) {
		t.Fatal("down transition misreported")
	}
}
