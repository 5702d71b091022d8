package openflow

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/flowtable"
)

func sampleTuple() core.FiveTuple {
	return core.FiveTuple{
		Src:   netip.MustParseAddr("10.0.0.1"),
		Dst:   netip.MustParseAddr("10.1.2.3"),
		Proto: core.ProtoUDP, SrcPort: 4242, DstPort: 5001,
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	b := EncodeHello(77)
	h, err := DecodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeHello || h.XID != 77 || int(h.Length) != len(b) {
		t.Fatalf("header = %+v", h)
	}
}

func TestDecodeHeaderRejects(t *testing.T) {
	if _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
	b := EncodeHello(1)
	b[0] = 0x04 // OF 1.3
	if _, err := DecodeHeader(b); err == nil {
		t.Fatal("wrong version accepted")
	}
	b = EncodeHello(1)
	b[3] = 2 // length 2 < 8
	if _, err := DecodeHeader(b); err == nil {
		t.Fatal("bad length accepted")
	}
}

func TestEchoAndBarrier(t *testing.T) {
	e := EncodeEcho(5, false, []byte("ping"))
	h, _ := DecodeHeader(e)
	if h.Type != TypeEchoRequest || string(e[8:]) != "ping" {
		t.Fatal("echo request wrong")
	}
	e = EncodeEcho(5, true, nil)
	h, _ = DecodeHeader(e)
	if h.Type != TypeEchoReply {
		t.Fatal("echo reply wrong")
	}
	b := EncodeBarrier(9, false)
	h, _ = DecodeHeader(b)
	if h.Type != TypeBarrierRequest {
		t.Fatal("barrier request wrong")
	}
	b = EncodeBarrier(9, true)
	h, _ = DecodeHeader(b)
	if h.Type != TypeBarrierReply {
		t.Fatal("barrier reply wrong")
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	fr := FeaturesReply{
		DatapathID: 0xABCD, NBuffers: 256, NTables: 1, Actions: 1,
		Ports: []PhyPort{
			{PortNo: 1, HWAddr: core.MACFromUint64(1), Name: "eth1", Curr: 1 << 6},
			{PortNo: 2, HWAddr: core.MACFromUint64(2), Name: "eth2", Curr: 1 << 6},
		},
	}
	got, err := DecodeFeaturesReply(EncodeFeaturesReply(3, fr))
	if err != nil {
		t.Fatal(err)
	}
	if got.DatapathID != fr.DatapathID || len(got.Ports) != 2 {
		t.Fatalf("round trip %+v", got)
	}
	if got.Ports[1].Name != "eth2" || got.Ports[1].PortNo != 2 || got.Ports[1].HWAddr != fr.Ports[1].HWAddr {
		t.Fatalf("port round trip %+v", got.Ports[1])
	}
	if _, err := DecodeFeaturesReply(make([]byte, 10)); err == nil {
		t.Fatal("truncated features reply accepted")
	}
}

func TestMatchConversionExact(t *testing.T) {
	ft := sampleTuple()
	m := TupleToExactMatch(ft)
	// In-port must stay wildcarded, everything else exact.
	if m.Wildcards&wcInPort == 0 {
		t.Fatal("in_port unexpectedly exact")
	}
	back, err := MatchToTuple(m)
	if err != nil {
		t.Fatal(err)
	}
	if back != ft {
		t.Fatalf("round trip %v != %v", back, ft)
	}
}

func TestMatchConversionWildcards(t *testing.T) {
	// A /24 destination-only rule.
	tm := flowtable.DstPrefixMatch(netip.MustParsePrefix("10.1.2.0/24"))
	m := MatchFromTable(tm)
	got := m.ToTable()
	if got.DstBits != 24 || got.Dst != netip.MustParseAddr("10.1.2.0") {
		t.Fatalf("dst conversion: %+v", got)
	}
	if got.SrcBits != 0 || got.HasProto || got.HasTpSrc || got.HasTpDst || got.HasInPort {
		t.Fatalf("unexpected fields set: %+v", got)
	}
	if _, err := MatchToTuple(m); err == nil {
		t.Fatal("wildcard match converted to tuple")
	}
}

func TestMatchWireRoundTripProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, sport, dport uint16, inPort uint16, srcBits, dstBits uint8, hasProto bool) bool {
		tm := flowtable.Match{
			SrcBits: int(srcBits % 33), Src: core.IPv4FromUint32(srcIP),
			DstBits: int(dstBits % 33), Dst: core.IPv4FromUint32(dstIP),
		}
		if tm.SrcBits > 0 {
			// Mask the address so the comparison below is canonical.
			p, _ := tm.Src.Prefix(tm.SrcBits)
			tm.Src = p.Addr()
		} else {
			tm.Src = netip.Addr{}
		}
		if tm.DstBits > 0 {
			p, _ := tm.Dst.Prefix(tm.DstBits)
			tm.Dst = p.Addr()
		} else {
			tm.Dst = netip.Addr{}
		}
		if hasProto {
			tm.HasProto = true
			tm.Proto = core.ProtoUDP
			tm.HasTpSrc = true
			tm.TpSrc = sport
			tm.HasTpDst = true
			tm.TpDst = dport
		}
		if inPort%2 == 0 && inPort > 0 {
			tm.HasInPort = true
			tm.InPort = core.PortID(inPort)
		}
		// Through the wire format and back.
		buf := make([]byte, matchLen)
		putMatch(buf, MatchFromTable(tm))
		got := parseMatch(buf).ToTable()
		if tm.SrcBits == 0 {
			got.Src = netip.Addr{}
		}
		if tm.DstBits == 0 {
			got.Dst = netip.Addr{}
		}
		return got == tm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	fm := FlowMod{
		Match:       TupleToExactMatch(sampleTuple()),
		Cookie:      0xFEED,
		Command:     FCAdd,
		IdleTimeout: 10,
		HardTimeout: 60,
		Priority:    1000,
		Actions:     []Action{{Output: 3}},
	}
	got, err := DecodeFlowMod(EncodeFlowMod(7, fm))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cookie != fm.Cookie || got.Command != fm.Command || got.Priority != fm.Priority ||
		got.IdleTimeout != 10 || got.HardTimeout != 60 {
		t.Fatalf("round trip %+v", got)
	}
	if len(got.Actions) != 1 || got.Actions[0].Output != 3 {
		t.Fatalf("actions = %+v", got.Actions)
	}
	if _, err := DecodeFlowMod(make([]byte, 20)); err == nil {
		t.Fatal("truncated flow mod accepted")
	}
}

func TestFlowModSelectGroupVendorAction(t *testing.T) {
	fm := FlowMod{
		Match:    Match{Wildcards: wcAll &^ wcDLType, DLType: etherIPv4},
		Command:  FCAdd,
		Priority: 5,
		Actions:  []Action{{Group: []core.PortID{2, 3, 4}}},
	}
	got, err := DecodeFlowMod(EncodeFlowMod(8, fm))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Actions) != 1 || len(got.Actions[0].Group) != 3 || got.Actions[0].Group[2] != 4 {
		t.Fatalf("group action = %+v", got.Actions)
	}
}

func TestFlowModControllerAction(t *testing.T) {
	fm := FlowMod{Command: FCAdd, Actions: []Action{{ToCtrl: true}}}
	got, err := DecodeFlowMod(EncodeFlowMod(9, fm))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Actions[0].ToCtrl {
		t.Fatal("controller action lost")
	}
}

func TestDecodeActionsMalformed(t *testing.T) {
	if _, err := decodeActions(nil, []byte{0, 0, 0}); err == nil {
		t.Fatal("truncated action accepted")
	}
	// Bad length (not multiple of 8).
	if _, err := decodeActions(nil, []byte{0, 0, 0, 9, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad action length accepted")
	}
	// Unknown type.
	if _, err := decodeActions(nil, []byte{0, 7, 0, 8, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown action type accepted")
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	pi := PacketIn{BufferID: 0xFFFFFFFF, InPort: 9, Reason: 0, Data: []byte("frame-bytes")}
	got, err := DecodePacketIn(EncodePacketIn(4, pi))
	if err != nil {
		t.Fatal(err)
	}
	if got.InPort != 9 || string(got.Data) != "frame-bytes" {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := DecodePacketIn(make([]byte, 5)); err == nil {
		t.Fatal("truncated packet in accepted")
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	po := PacketOut{InPort: 2, Actions: []Action{{Output: 5}}, Data: []byte("xyz")}
	got, err := DecodePacketOut(EncodePacketOut(4, po))
	if err != nil {
		t.Fatal(err)
	}
	if got.InPort != 2 || len(got.Actions) != 1 || got.Actions[0].Output != 5 || string(got.Data) != "xyz" {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := DecodePacketOut(make([]byte, 10)); err == nil {
		t.Fatal("truncated packet out accepted")
	}
}

func TestFlowStatsRoundTrip(t *testing.T) {
	entries := []FlowStatsEntry{
		{Match: TupleToExactMatch(sampleTuple()), Priority: 100, ByteCount: 999_000, DurationS: 5},
	}
	got, err := DecodeFlowStatsReply(EncodeFlowStatsReply(3, entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Priority != 100 || got[0].ByteCount != 999_000 || got[0].DurationS != 5 {
		t.Fatalf("round trip %+v", got)
	}
	ft, err := MatchToTuple(got[0].Match)
	if err != nil || ft != sampleTuple() {
		t.Fatalf("tuple through stats = %v, %v", ft, err)
	}
	port := EncodeFlowStatsReply(3, nil)
	binary.BigEndian.PutUint16(port[8:10], StatsPort)
	if _, err := DecodeFlowStatsReply(port); err == nil {
		t.Fatal("port reply decoded as flow reply")
	}
}

func TestStatsRequestTypes(t *testing.T) {
	for _, st := range []uint16{StatsPort, StatsFlow} {
		b := EncodeStatsRequest(1, st)
		got, err := DecodeStatsRequestType(b)
		if err != nil || got != st {
			t.Fatalf("stats type = %d, %v", got, err)
		}
	}
	if _, err := DecodeStatsRequestType(make([]byte, 4)); err == nil {
		t.Fatal("truncated stats request accepted")
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	ps := PortStatus{
		Reason: PortReasonModify,
		Desc: PhyPort{
			PortNo: 3,
			HWAddr: core.MAC{0, 1, 2, 3, 4, 5},
			Name:   "edge-0-0-p3",
			State:  PortStateLinkDown,
			Curr:   1 << 6,
		},
	}
	b := EncodePortStatus(77, ps)
	h, err := DecodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypePortStatus || h.XID != 77 || int(h.Length) != len(b) {
		t.Fatalf("header = %+v", h)
	}
	got, err := DecodePortStatus(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != ps {
		t.Fatalf("round trip: got %+v, want %+v", got, ps)
	}
	if !got.Desc.Down() {
		t.Fatal("Down() false for link-down state")
	}
	if _, err := DecodePortStatus(b[:20]); err == nil {
		t.Fatal("truncated port status accepted")
	}
}

func TestPhyPortStateSurvivesFeaturesReply(t *testing.T) {
	fr := FeaturesReply{
		DatapathID: 9,
		Ports: []PhyPort{
			{PortNo: 1, Name: "p1", Curr: 1 << 6},
			{PortNo: 2, Name: "p2", State: PortStateLinkDown, Config: 1},
		},
	}
	got, err := DecodeFeaturesReply(EncodeFeaturesReply(5, fr))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ports) != 2 || got.Ports[1] != fr.Ports[1] || got.Ports[0] != fr.Ports[0] {
		t.Fatalf("ports = %+v", got.Ports)
	}
}

// TestDecodersKeepNothingOfTheirInput: no decoder's result shares memory
// with the bytes it decoded. Conn.Recv returns its own buffer, which the
// next message overwrites, so a result kept past the next Recv must not
// change under it: each result here must survive its input being
// overwritten.
func TestDecodersKeepNothingOfTheirInput(t *testing.T) {
	// A FlowMod whose actions and groups have room for the sample's.
	used := func() FlowMod {
		fm, err := DecodeFlowMod(EncodeFlowMod(1, FlowMod{Actions: []Action{{Group: make([]core.PortID, 8)}, {Group: make([]core.PortID, 8)}}}))
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	for _, tc := range []struct {
		typ    uint8
		decode func([]byte) (any, error)
	}{
		{TypeHello, result(DecodeHeader)},
		{TypeFeaturesReply, result(DecodeFeaturesReply)},
		{TypePortStatus, result(DecodePortStatus)},
		{TypeFlowMod, result(DecodeFlowMod)},
		{TypeFlowMod, func(b []byte) (any, error) { fm := used(); err := DecodeFlowModInto(&fm, b); return fm, err }},
		{TypePacketIn, result(DecodePacketIn)},
		{TypePacketOut, result(DecodePacketOut)},
		{TypeStatsRequest, result(DecodeStatsRequestType)},
		{TypeStatsReply, result(DecodeFlowStatsReply)},
	} {
		raw := sample(tc.typ, 7)
		want, err := tc.decode(bytes.Clone(raw))
		if err != nil {
			t.Fatalf("type %d: %v", tc.typ, err)
		}
		got, _ := tc.decode(raw)
		for i := range raw {
			raw[i] = ^raw[i]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("type %d: overwriting the input changed the result:\n got %+v\nwant %+v", tc.typ, got, want)
		}
	}
}

// result adapts a decoder to the table above.
func result[T any](decode func([]byte) (T, error)) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		v, err := decode(b)
		return v, err
	}
}
