package capture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/openflow"
	"repro/internal/wire"
)

func bgpEndpoints() (Endpoint, Endpoint) {
	a := Endpoint{
		Name: "r1",
		MAC:  core.MACFromUint64(0x11),
		IP:   netip.MustParseAddr("10.0.0.1"),
	}
	b := Endpoint{
		Name: "r2",
		MAC:  core.MACFromUint64(0x22),
		IP:   netip.MustParseAddr("10.0.0.2"),
		Port: PortBGP,
	}
	return a, b
}

func mustUpdate(t *testing.T, announce, withdraw []netip.Prefix) []byte {
	t.Helper()
	u := bgp.Update{Withdrawn: withdraw, NLRI: announce}
	if len(announce) > 0 {
		u.Attrs = bgp.PathAttrs{
			ASPath:  []uint16{65001},
			NextHop: netip.MustParseAddr("10.0.0.1"),
		}
	}
	msg, err := bgp.EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestSessionRoundTrip drives one synthesized BGP conversation through
// the writer and back through the reader: fabricated handshake, both
// directions, a message split across two fragmented writes, and a write
// carrying two messages back to back.
func TestSessionRoundTrip(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	sess, err := c.Session("bgp-r1-r2", a, b)
	if err != nil {
		t.Fatal(err)
	}

	pfx := netip.MustParsePrefix("192.168.1.0/24")
	upd := mustUpdate(t, []netip.Prefix{pfx}, nil)
	wd := mustUpdate(t, nil, []netip.Prefix{pfx})
	keep := bgp.EncodeKeepalive()

	// A->B: an UPDATE split mid-message across two writes (the second
	// write completes it, so its delivery time stamps the message).
	sess.Data(AtoB, upd[:7], 10*core.Millisecond)
	sess.Data(AtoB, upd[7:], 12*core.Millisecond)
	// B->A: two messages in one write.
	sess.Data(BtoA, append(append([]byte(nil), keep...), wd...), 15*core.Millisecond)

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Interfaces) != 1 {
		t.Fatalf("interfaces = %q, want one per session", tr.Interfaces)
	}
	// 3 handshake + 2 fragments + 1 data segment.
	if len(tr.Packets) != 6 {
		t.Fatalf("got %d packets, want 6", len(tr.Packets))
	}
	// The fabricated handshake is stamped at the first delivery.
	for i, wantFlags := range []uint8{wire.TCPSyn, wire.TCPSyn | wire.TCPAck, wire.TCPAck} {
		_, rest, err := wire.DecodeEthernet(tr.Packets[i].Data)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, err = wire.DecodeIPv4(rest)
		if err != nil {
			t.Fatal(err)
		}
		tcp, payload, err := wire.DecodeTCP(rest)
		if err != nil {
			t.Fatal(err)
		}
		if tcp.Flags != wantFlags {
			t.Errorf("handshake packet %d flags = %#02x, want %#02x", i, tcp.Flags, wantFlags)
		}
		if len(payload) != 0 {
			t.Errorf("handshake packet %d carries %d payload bytes", i, len(payload))
		}
		if tr.Packets[i].Time != 10*core.Millisecond {
			t.Errorf("handshake packet %d at %v, want first delivery time", i, tr.Packets[i].Time)
		}
	}

	msgs, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 {
		t.Fatalf("decoded %d messages, want 3: %+v", len(msgs), msgs)
	}
	// The fragmented UPDATE is stamped with the completing segment.
	if msgs[0].Type != "UPDATE" || msgs[0].Announced != 1 || msgs[0].Time != 12*core.Millisecond {
		t.Errorf("msg 0 = %+v, want UPDATE announcing 1 at 12ms", msgs[0])
	}
	if msgs[1].Type != "KEEPALIVE" || msgs[1].Time != 15*core.Millisecond {
		t.Errorf("msg 1 = %+v, want KEEPALIVE at 15ms", msgs[1])
	}
	if msgs[2].Type != "UPDATE" || msgs[2].Withdrawn != 1 {
		t.Errorf("msg 2 = %+v, want withdraw", msgs[2])
	}
	// Directionality survives the round trip.
	if msgs[0].Src != a.IP || msgs[0].Dst != b.IP || msgs[0].DstPort != PortBGP {
		t.Errorf("msg 0 addressing = %+v", msgs[0])
	}
	if msgs[1].Src != b.IP || msgs[1].SrcPort != PortBGP {
		t.Errorf("msg 1 addressing = %+v", msgs[1])
	}
}

// TestSeqAckContinuity checks the synthesized sequence numbers byte for
// byte: seq advances by exactly the payload carried, ack mirrors the
// peer's progress, and a large write is split at the MSS with contiguous
// seqs.
func TestSeqAckContinuity(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	sess, err := c.Session("pair", a, b)
	if err != nil {
		t.Fatal(err)
	}

	keep := bgp.EncodeKeepalive() // 19 bytes
	var big []byte
	for i := 0; i < 100; i++ { // 1900 bytes: must split at mss=1460
		big = append(big, keep...)
	}
	sess.Data(AtoB, big, core.Millisecond)
	sess.Data(BtoA, keep, 2*core.Millisecond)
	sess.Data(AtoB, keep, 3*core.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	// 3 handshake + 2 MSS-split segments + 1 + 1.
	if len(tr.Packets) != 7 {
		t.Fatalf("got %d packets, want 7", len(tr.Packets))
	}
	type seg struct {
		seq, ack uint32
		flags    uint8
		payload  int
	}
	var segs []seg
	for _, p := range tr.Packets {
		_, rest, _ := wire.DecodeEthernet(p.Data)
		_, rest, _ = wire.DecodeIPv4(rest)
		tcp, payload, err := wire.DecodeTCP(rest)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg{tcp.Seq, tcp.Ack, tcp.Flags, len(payload)})
	}
	want := []seg{
		{0, 0, wire.TCPSyn, 0},                              // SYN
		{0, 1, wire.TCPSyn | wire.TCPAck, 0},                // SYN-ACK
		{1, 1, wire.TCPAck, 0},                              // ACK
		{1, 1, wire.TCPPsh | wire.TCPAck, mss},              // big, first MSS
		{1 + mss, 1, wire.TCPPsh | wire.TCPAck, 1900 - mss}, // big, rest
		{1, 1901, wire.TCPPsh | wire.TCPAck, 19},            // B->A acks all 1900
		{1901, 20, wire.TCPPsh | wire.TCPAck, 19},           // A->B continues
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
	// And the decoder agrees the streams are continuous: 102 keepalives.
	msgs, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 102 {
		t.Errorf("decoded %d messages, want 102", len(msgs))
	}
}

// TestRepeeredSessionSharesFile mirrors a link repair: a second session
// for the same speaker pair lands in the same file as a new interface
// and a distinct ephemeral port, so the two TCP streams stay separate.
func TestRepeeredSessionSharesFile(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	s1, err := c.Session("bgp-r1-r2", a, b)
	if err != nil {
		t.Fatal(err)
	}
	keep := bgp.EncodeKeepalive()
	s1.Data(AtoB, keep, core.Millisecond)
	s2, err := c.Session("bgp-r1-r2", a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2.Data(AtoB, keep, 5*core.Millisecond)
	if files := c.Files(); len(files) != 1 {
		t.Fatalf("files = %v, want one per capture", files)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Interfaces) != 2 {
		t.Fatalf("interfaces = %q, want one per session incarnation", tr.Interfaces)
	}
	if tr.Interfaces[0] == tr.Interfaces[1] {
		t.Errorf("re-peered session reused interface name %q (ephemeral port must differ)", tr.Interfaces[0])
	}
	msgs, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Errorf("decoded %d messages, want 2", len(msgs))
	}
}

// TestOpenFlowDecode runs the OpenFlow side: HELLO and FLOW_MOD on
// TCP/6633 decode with their wire names, and the Summary counts the
// FLOW_MOD.
func TestOpenFlowDecode(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := Endpoint{Name: "s1", MAC: core.MACFromUint64(1), IP: netip.MustParseAddr("172.16.0.1")}
	ctl := Endpoint{Name: "ctl", MAC: core.MACFromUint64(2), IP: netip.MustParseAddr("172.16.0.2"), Port: PortOpenFlow}
	sess, err := c.Session("openflow-s1", sw, ctl)
	if err != nil {
		t.Fatal(err)
	}
	sess.Data(AtoB, openflow.EncodeHello(1), core.Millisecond)
	fm := openflow.EncodeFlowMod(2, openflow.FlowMod{
		Priority: 10,
		Actions:  []openflow.Action{{Output: 1}},
	})
	sess.Data(BtoA, fm, 2*core.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Messages != 2 || sum.FlowMods != 1 {
		t.Errorf("summary = %+v, want 2 messages incl. 1 flow-mod", sum)
	}
	msgs, err := Decode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if msgs[0].Type != "HELLO" || msgs[1].Type != "FLOW_MOD" {
		t.Errorf("types = %s, %s; want HELLO, FLOW_MOD", msgs[0].Type, msgs[1].Type)
	}
}

// TestRefusedOpenFlowCounted: each direction of an OpenFlow session is
// replayed through its receiving end's channel table, and a message that
// table has no step for is marked and counted — a PACKET_IN the
// controller gets before FEATURES_REPLY, a PACKET_OUT the switch never
// takes — while the handshake and what follows it are not. The switch's
// ERROR answering the PACKET_OUT is counted as an error, not refused.
func TestRefusedOpenFlowCounted(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := Endpoint{Name: "s1", MAC: core.MACFromUint64(1), IP: netip.MustParseAddr("172.16.0.1")}
	ctl := Endpoint{Name: "ctl", MAC: core.MACFromUint64(2), IP: netip.MustParseAddr("172.16.0.2"), Port: PortOpenFlow}
	sess, err := c.Session("openflow-s1", sw, ctl)
	if err != nil {
		t.Fatal(err)
	}
	packetIn := openflow.EncodePacketIn(9, openflow.PacketIn{InPort: 1, Data: []byte("frame")})
	steps := []struct {
		dir     Dir
		msg     []byte
		refused bool
	}{
		{AtoB, openflow.EncodeHello(1), false},
		{AtoB, packetIn, true}, // the controller has no FEATURES_REPLY yet
		{BtoA, openflow.EncodeHello(2), false},
		{BtoA, openflow.EncodeFeaturesRequest(3), false},
		{AtoB, openflow.EncodeFeaturesReply(3, openflow.FeaturesReply{DatapathID: 1}), false},
		{AtoB, packetIn, false},
		{BtoA, openflow.EncodeFlowMod(4, openflow.FlowMod{Actions: []openflow.Action{{Output: 1}}}), false},
		{BtoA, openflow.EncodePacketOut(5, openflow.PacketOut{InPort: 1}), true},
		{AtoB, ofError(5), false},
	}
	for i, st := range steps {
		sess.Data(st.dir, st.msg, core.Time(i+1)*core.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		if msgs[i].Refused != st.refused {
			t.Errorf("message %d (%s) refused = %v, want %v", i, msgs[i].Type, msgs[i].Refused, st.refused)
		}
	}
	sum, err := Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Refused != 2 || sum.Sessions[0].Refused != 2 {
		t.Fatalf("summary refused %d (session: %d), want 2", sum.Refused, sum.Sessions[0].Refused)
	}
	if sum.Errors != 1 || sum.Sessions[0].Errors != 1 {
		t.Fatalf("summary errors %d (session: %d), want 1", sum.Errors, sum.Sessions[0].Errors)
	}
	if !strings.Contains(sum.String(), "1 flow-mods, 2 refused, 1 errors\n") {
		t.Errorf("summary does not print the refused and error counts:\n%s", sum)
	}
}

// TestMessageAfterNotificationRefused: NOTIFICATION is terminal, so a BGP
// message that follows one in its direction is marked refused and counted;
// the other direction, whose sender sent none, is not.
func TestMessageAfterNotificationRefused(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	sess, err := c.Session("bgp-r1-r2", a, b)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		dir     Dir
		msg     []byte
		refused bool
	}{
		{AtoB, bgp.EncodeNotification(bgp.Notification{Code: bgp.NotifCease}), false},
		{BtoA, bgp.EncodeKeepalive(), false},
		{AtoB, mustUpdate(t, []netip.Prefix{netip.MustParsePrefix("10.1.0.0/24")}, nil), true},
	}
	for i, st := range steps {
		sess.Data(st.dir, st.msg, core.Time(i+1)*core.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		if msgs[i].Refused != st.refused {
			t.Errorf("message %d (%s) refused = %v, want %v", i, msgs[i].Type, msgs[i].Refused, st.refused)
		}
	}
	sum, err := Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Refused != 1 || sum.Sessions[0].Refused != 1 {
		t.Fatalf("summary refused %d (session: %d), want 1", sum.Refused, sum.Sessions[0].Refused)
	}
	if !strings.Contains(sum.String(), " 0 flow-mods, 1 refused, 0 errors\n") {
		t.Errorf("summary does not print the refused count:\n%s", sum)
	}
}

// ofError is an OFPT_ERROR (BAD_REQUEST/BAD_TYPE) answering xid.
func ofError(xid uint32) []byte {
	b := make([]byte, 12)
	b[0], b[1] = openflow.Version10, openflow.TypeError
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	binary.BigEndian.PutUint32(b[4:8], xid)
	binary.BigEndian.PutUint16(b[8:10], 1)
	binary.BigEndian.PutUint16(b[10:12], 1)
	return b
}

// TestTimestampClampMonotone: a delivery handed over out of order can
// never write a backwards timestamp (Validate would reject the file).
func TestTimestampClampMonotone(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	sess, err := c.Session("pair", a, b)
	if err != nil {
		t.Fatal(err)
	}
	keep := bgp.EncodeKeepalive()
	sess.Data(AtoB, keep, 5*core.Millisecond)
	sess.Data(BtoA, keep, 3*core.Millisecond) // "earlier" delivery: clamped
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(tr); err != nil {
		t.Fatalf("clamped trace failed validation: %v", err)
	}
	last := tr.Packets[len(tr.Packets)-1]
	if last.Time != 5*core.Millisecond {
		t.Errorf("clamped timestamp = %v, want 5ms", last.Time)
	}
}

// TestSummaryEmptyWindowGuard: a capture whose messages share one
// instant has a zero window; the shared stats guard must keep the
// per-second rates at 0 instead of +Inf/NaN.
func TestSummaryEmptyWindowGuard(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	sess, err := c.Session("pair", a, b)
	if err != nil {
		t.Fatal(err)
	}
	pfx := netip.MustParsePrefix("192.168.1.0/24")
	sess.Data(AtoB, mustUpdate(t, []netip.Prefix{pfx}, nil), core.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Updates != 1 || sum.Window() != 0 {
		t.Fatalf("summary = %+v, want 1 update over a zero window", sum)
	}
	if r := sum.UpdatesPerSec(); r != 0 {
		t.Errorf("UpdatesPerSec over empty window = %v, want 0", r)
	}
}

// TestPackedUpdateSummary replays a packed flush through the capture
// pipeline: PackUpdates-encoded messages carrying hundreds of NLRIs are
// recorded, read back, and the summary must report the storm volume
// (announced prefixes) separately from the message count, with the
// packing factor and the per-window burst bounded by the attr-group
// count — not by the prefix count.
func TestPackedUpdateSummary(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	sess, err := c.Session("pair", a, b)
	if err != nil {
		t.Fatal(err)
	}

	// Two attribute groups of 300 prefixes each — a packed flush encodes
	// them as one UPDATE per group (600 /24s fit well under the 4096-byte
	// message limit).
	const perGroup = 300
	var groups []bgp.UpdateGroup
	for gi := 0; gi < 2; gi++ {
		g := bgp.UpdateGroup{Attrs: bgp.PathAttrs{
			ASPath:  []uint16{65001, uint16(65100 + gi)},
			NextHop: netip.MustParseAddr("10.0.0.1"),
		}}
		for i := 0; i < perGroup; i++ {
			addr := netip.AddrFrom4([4]byte{20, byte(2*gi + i/256), byte(i % 256), 0})
			g.NLRI = append(g.NLRI, netip.PrefixFrom(addr, 24))
		}
		groups = append(groups, g)
	}
	withdrawn := []netip.Prefix{netip.MustParsePrefix("192.168.9.0/24")}
	msgs, err := bgp.PackUpdates(withdrawn, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("PackUpdates produced %d messages, want 2 (one per attr group)", len(msgs))
	}
	// One flush: every message delivered inside the same MRAI window.
	for i, m := range msgs {
		sess.Data(AtoB, m, core.Time(10+i)*core.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Updates != 2 || sum.AnnouncedPrefixes != 2*perGroup {
		t.Fatalf("summary = %+v, want 2 updates announcing %d prefixes", sum, 2*perGroup)
	}
	if sum.WithdrawnPrefixes != len(withdrawn) {
		t.Errorf("withdrawn prefixes = %d, want %d", sum.WithdrawnPrefixes, len(withdrawn))
	}
	if pf := sum.PackingFactor(); pf != perGroup {
		t.Errorf("packing factor = %.1f, want %d prefixes/msg", pf, perGroup)
	}
	// The whole flush lands in one 10ms window: burst == attr groups.
	if burst := MaxUpdateBurst(decoded, 10*core.Millisecond); burst != 2 {
		t.Errorf("MaxUpdateBurst(10ms) = %d, want 2 (one per attr group)", burst)
	}
	// A sub-millisecond window separates the two deliveries.
	if burst := MaxUpdateBurst(decoded, core.Microsecond); burst != 1 {
		t.Errorf("MaxUpdateBurst(1us) = %d, want 1", burst)
	}
}

// TestStrayWithdrawalsCounted: a withdrawal counts as stray when its
// sender has not announced the prefix on that stream since its last OPEN —
// never announced, announced by the other side only, or announced before
// an OPEN restarted the session.
func TestStrayWithdrawalsCounted(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	sess, err := c.Session("pair", a, b)
	if err != nil {
		t.Fatal(err)
	}
	x := netip.MustParsePrefix("10.1.0.0/24")
	y := netip.MustParsePrefix("10.2.0.0/24")
	z := netip.MustParsePrefix("10.3.0.0/24")
	open := bgp.EncodeOpen(bgp.Open{Version: 4, ASN: 65001, HoldTime: 90, RouterID: a.IP})
	steps := []struct {
		dir   Dir
		msg   []byte
		stray int
	}{
		{AtoB, open, 0},
		{AtoB, mustUpdate(t, []netip.Prefix{x, z}, nil), 0},
		{AtoB, mustUpdate(t, nil, []netip.Prefix{y, x}), 1}, // y was never announced
		{BtoA, mustUpdate(t, nil, []netip.Prefix{x}), 1},    // a announced x, b did not
		{AtoB, open, 0},
		{AtoB, mustUpdate(t, nil, []netip.Prefix{z}), 1}, // announced before the OPEN
	}
	for i, st := range steps {
		sess.Data(st.dir, st.msg, core.Time(i+1)*core.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := Validate(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != len(steps) {
		t.Fatalf("decoded %d messages, want %d", len(msgs), len(steps))
	}
	for i, st := range steps {
		if msgs[i].StrayWithdrawn != st.stray {
			t.Errorf("message %d (%s, %d withdrawn) has %d stray, want %d", i, msgs[i].Type, msgs[i].Withdrawn, msgs[i].StrayWithdrawn, st.stray)
		}
	}
	sum, err := Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.WithdrawnPrefixes != 4 || sum.StrayWithdrawn != 3 || sum.Sessions[0].StrayWithdrawn != 3 {
		t.Fatalf("summary withdraws %d prefixes, %d stray (session: %d), want 4 and 3", sum.WithdrawnPrefixes, sum.StrayWithdrawn, sum.Sessions[0].StrayWithdrawn)
	}
	if !strings.Contains(sum.String(), "4 prefixes, 3 stray)") {
		t.Errorf("summary does not print the stray count:\n%s", sum)
	}
}

// TestDecodeRejectsStreamEndingInsideMessage: every emulated write is
// whole, so bytes left over after the last complete message mean the
// trace lost or invented data. Decode names the stream and the count.
func TestDecodeRejectsStreamEndingInsideMessage(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := bgpEndpoints()
	sess, err := c.Session("pair", a, b)
	if err != nil {
		t.Fatal(err)
	}
	sess.Data(AtoB, bgp.EncodeKeepalive(), core.Millisecond)
	sess.Data(AtoB, make([]byte, 10), 2*core.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = Validate(tr)
	if err == nil {
		t.Fatal("a stream ending 10 bytes into a message validated")
	}
	for _, want := range []string{"interface 0", "10.0.0.1:49152", "10.0.0.2:179", "10 bytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestFrameParity drives a seeded random mix of sessions, re-peers,
// both directions and writes above and below the MSS through one
// capture, and rebuilds every frame independently with wire.Serialize:
// each interface must hold exactly those frames, stamped in write order.
func TestFrameParity(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		at    core.Time
		frame []byte
	}
	// model is what the test expects of one session, kept apart from
	// the writer's own state.
	type model struct {
		sess   *Session
		a, b   Endpoint
		seq    [2]uint32
		ipID   [2]uint16
		opened bool
		frames []want
	}
	serialize := func(m *model, d Dir, flags uint8, payload []byte, at core.Time) {
		src, dst := m.a, m.b
		if d == BtoA {
			src, dst = dst, src
		}
		var ack uint32
		if flags&wire.TCPAck != 0 {
			ack = m.seq[1-d]
		}
		frame, err := wire.Serialize(
			&wire.Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: wire.EtherTypeIPv4},
			&wire.IPv4{Src: src.IP, Dst: dst.IP, Protocol: core.ProtoTCP, TTL: 64, ID: m.ipID[d]},
			&wire.TCP{SrcPort: src.Port, DstPort: dst.Port, Seq: m.seq[d], Ack: ack, Flags: flags, Window: 65535},
			wire.Payload(payload),
		)
		if err != nil {
			t.Fatal(err)
		}
		m.ipID[d]++
		m.frames = append(m.frames, want{at, frame})
	}

	rng := rand.New(rand.NewSource(1))
	pairs := make([]string, 12)
	for i := range pairs {
		pairs[i] = fmt.Sprintf("bgp-r%d-r%d", i, i+1)
	}
	var (
		models    []*model
		wantNames []string
		ephemeral = firstEphemeral
		at        core.Time
	)
	open := func() {
		i := rng.Intn(len(pairs)) // a pair opened before is a re-peer
		a := Endpoint{Name: fmt.Sprintf("r%d", i), MAC: core.MACFromUint64(uint64(2 * i)), IP: core.IPv4FromUint32(0x0A000000 + uint32(2*i))}
		b := Endpoint{Name: fmt.Sprintf("r%d", i+1), MAC: core.MACFromUint64(uint64(2*i + 1)), IP: core.IPv4FromUint32(0x0A000001 + uint32(2*i)), Port: PortBGP}
		sess, err := c.Session(pairs[i], a, b)
		if err != nil {
			t.Fatal(err)
		}
		a.Port = ephemeral
		ephemeral++
		models = append(models, &model{sess: sess, a: a, b: b})
		wantNames = append(wantNames, fmt.Sprintf("%s %s:%d <-> %s:%d", pairs[i], a.Name, a.Port, b.Name, b.Port))
	}
	for step := 0; step < 2000; step++ {
		if len(models) == 0 || rng.Intn(20) == 0 {
			open()
			continue
		}
		m := models[rng.Intn(len(models))]
		d := Dir(rng.Intn(2))
		p := make([]byte, 1+rng.Intn(3*mss))
		rng.Read(p)
		at += core.Time(rng.Intn(3)) * core.Millisecond
		m.sess.Data(d, p, at)

		if !m.opened {
			m.opened = true
			serialize(m, AtoB, wire.TCPSyn, nil, at)
			m.seq[AtoB] = 1
			serialize(m, BtoA, wire.TCPSyn|wire.TCPAck, nil, at)
			m.seq[BtoA] = 1
			serialize(m, AtoB, wire.TCPAck, nil, at)
		}
		for len(p) > 0 {
			n := min(len(p), mss)
			serialize(m, d, wire.TCPPsh|wire.TCPAck, p[:n], at)
			m.seq[d] += uint32(n)
			p = p[n:]
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadFile(c.Files()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Interfaces, wantNames) {
		t.Fatalf("interfaces = %q, want %q", tr.Interfaces, wantNames)
	}
	got := make([][]Packet, len(tr.Interfaces))
	for _, p := range tr.Packets {
		got[p.Interface] = append(got[p.Interface], p)
	}
	for i, m := range models {
		if len(got[i]) != len(m.frames) {
			t.Fatalf("interface %d holds %d packets, want %d", i, len(got[i]), len(m.frames))
		}
		for j, w := range m.frames {
			if p := got[i][j]; p.Time != w.at || !bytes.Equal(p.Data, w.frame) {
				t.Fatalf("interface %d packet %d at %v = % x\nwant at %v % x", i, j, p.Time, p.Data, w.at, w.frame)
			}
		}
	}
}

// TestDataAllocatesNothing: once the handshake is written and the frame
// buffer has grown, recording a 1 KB write allocates nothing.
func TestDataAllocatesNothing(t *testing.T) {
	c, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, b := bgpEndpoints()
	sess, err := c.Session("pair", a, b)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 1024)
	var at core.Time
	if n := testing.AllocsPerRun(1000, func() {
		at += core.Microsecond
		sess.Data(AtoB, msg, at)
	}); n != 0 {
		t.Errorf("Session.Data: %.2f allocs per 1 KB write, want 0", n)
	}
}
