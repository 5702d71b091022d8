package wire

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func sampleTuple(proto core.Proto) core.FiveTuple {
	return core.FiveTuple{
		Src:   netip.MustParseAddr("10.0.0.1"),
		Dst:   netip.MustParseAddr("10.0.1.2"),
		Proto: proto, SrcPort: 4242, DstPort: 5001,
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := &Ethernet{Dst: core.MACFromUint64(1), Src: core.MACFromUint64(2), EtherType: EtherTypeIPv4}
	pkt, err := Serialize(e, Payload("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := DecodeEthernet(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != e.Dst || got.Src != e.Src || got.EtherType != e.EtherType {
		t.Fatalf("round trip %+v != %+v", got, e)
	}
	if string(rest) != "hello" {
		t.Fatalf("payload = %q", rest)
	}
}

func TestEthernetTruncated(t *testing.T) {
	if _, _, err := DecodeEthernet(make([]byte, 13)); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := &IPv4{
		Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("198.51.100.2"),
		Protocol: core.ProtoUDP, TTL: 17, TOS: 0x10, ID: 99,
	}
	pkt, err := Serialize(ip, Payload("data!"))
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := DecodeIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst || got.Protocol != ip.Protocol || got.TTL != 17 || got.TOS != 0x10 || got.ID != 99 {
		t.Fatalf("round trip %+v != %+v", got, ip)
	}
	if string(rest) != "data!" {
		t.Fatalf("payload = %q", rest)
	}
	// Header checksum must verify: re-summing the header yields 0.
	if Checksum(pkt[:20]) != 0 {
		t.Fatalf("IPv4 header checksum does not verify")
	}
	// Total length covers header + payload.
	if l := binary.BigEndian.Uint16(pkt[2:4]); l != 25 {
		t.Fatalf("total length = %d, want 25", l)
	}
}

func TestIPv4Malformed(t *testing.T) {
	if _, _, err := DecodeIPv4(make([]byte, 19)); err == nil {
		t.Fatal("truncated accepted")
	}
	bad := make([]byte, 20)
	bad[0] = 0x65 // version 6
	if _, _, err := DecodeIPv4(bad); err == nil {
		t.Fatal("version 6 accepted")
	}
	bad[0] = 0x41 // IHL 4 words = 16 bytes < 20
	if _, _, err := DecodeIPv4(bad); err == nil {
		t.Fatal("bad IHL accepted")
	}
}

func TestIPv4RejectsV6Addrs(t *testing.T) {
	ip := &IPv4{Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("10.0.0.1"), Protocol: core.ProtoUDP}
	if _, err := Serialize(ip); err == nil {
		t.Fatal("IPv6 address accepted in IPv4 layer")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := &UDP{SrcPort: 53, DstPort: 4444}
	pkt, err := Serialize(u, Payload("q"))
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := DecodeUDP(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 53 || got.DstPort != 4444 || string(rest) != "q" {
		t.Fatalf("round trip %+v payload %q", got, rest)
	}
	if l := binary.BigEndian.Uint16(pkt[4:6]); l != 9 {
		t.Fatalf("UDP length = %d, want 9", l)
	}
	if _, _, err := DecodeUDP(pkt[:7]); err == nil {
		t.Fatal("truncated UDP accepted")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := &TCP{SrcPort: 80, DstPort: 1024, Seq: 7, Ack: 9, Flags: 0x12, Window: 512}
	pkt, err := Serialize(tc, Payload("x"))
	if err != nil {
		t.Fatal(err)
	}
	got, rest, err := DecodeTCP(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *tc || string(rest) != "x" {
		t.Fatalf("round trip %+v", got)
	}
	if _, _, err := DecodeTCP(pkt[:19]); err == nil {
		t.Fatal("truncated TCP accepted")
	}
	bad := append([]byte(nil), pkt...)
	bad[12] = 4 << 4 // offset below minimum
	if _, _, err := DecodeTCP(bad); err == nil {
		t.Fatal("bad offset accepted")
	}
}

func TestFullStackSerialize(t *testing.T) {
	// Ethernet(IPv4(UDP(payload))) — layers serialize back-to-front.
	pkt, err := Serialize(
		&Ethernet{Dst: core.MACFromUint64(1), Src: core.MACFromUint64(2), EtherType: EtherTypeIPv4},
		&IPv4{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"), Protocol: core.ProtoUDP},
		&UDP{SrcPort: 1, DstPort: 2},
		Payload("payload"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != 14+20+8+7 {
		t.Fatalf("stack length = %d", len(pkt))
	}
	_, rest, _ := DecodeEthernet(pkt)
	_, rest, err = DecodeIPv4(rest)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err = DecodeUDP(rest)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "payload" {
		t.Fatalf("innermost payload = %q", rest)
	}
}

func TestFlowFrameRoundTripUDPandTCP(t *testing.T) {
	for _, proto := range []core.Proto{core.ProtoUDP, core.ProtoTCP, core.ProtoICMP} {
		ft := sampleTuple(proto)
		frame, err := BuildFlowFrame(core.MACFromUint64(1), core.MACFromUint64(2), ft, nil)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		got, err := ParseFlowFrame(frame)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		want := ft
		if proto == core.ProtoICMP {
			want.SrcPort, want.DstPort = 0, 0 // no L4 ports
		}
		if got != want {
			t.Fatalf("%v: round trip %v != %v", proto, got, want)
		}
	}
}

func TestParseFlowFrameErrors(t *testing.T) {
	if _, err := ParseFlowFrame(nil); err == nil {
		t.Fatal("nil frame parsed")
	}
	arp, _ := Serialize(&Ethernet{EtherType: EtherTypeARP}, Payload("junk"))
	if _, err := ParseFlowFrame(arp); err == nil {
		t.Fatal("ARP frame parsed as flow")
	}
	// IPv4 header truncated after valid Ethernet.
	short, _ := Serialize(&Ethernet{EtherType: EtherTypeIPv4}, Payload("123"))
	if _, err := ParseFlowFrame(short); err == nil {
		t.Fatal("truncated IP parsed")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of this sequence is 0xddf2.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
	// Odd-length input must not panic and must be stable.
	if Checksum([]byte{0xFF}) != Checksum([]byte{0xFF}) {
		t.Fatal("odd checksum unstable")
	}
}

func TestBufferGrowth(t *testing.T) {
	b := NewBuffer()
	// Prepend beyond the initial headroom.
	big := b.PrependBytes(1000)
	for i := range big {
		big[i] = byte(i)
	}
	if len(b.Bytes()) != 1000 {
		t.Fatalf("len = %d", len(b.Bytes()))
	}
	small := b.PrependBytes(4)
	copy(small, []byte{1, 2, 3, 4})
	out := b.Bytes()
	if len(out) != 1004 || out[0] != 1 || out[4] != 0 || out[5] != 1 {
		t.Fatalf("growth corrupted buffer: % x", out[:8])
	}
}

func TestFlowFramePropertyRoundTrip(t *testing.T) {
	f := func(srcIP, dstIP uint32, sport, dport uint16, udp bool) bool {
		proto := core.ProtoTCP
		if udp {
			proto = core.ProtoUDP
		}
		ft := core.FiveTuple{
			Src: core.IPv4FromUint32(srcIP), Dst: core.IPv4FromUint32(dstIP),
			Proto: proto, SrcPort: sport, DstPort: dport,
		}
		frame, err := BuildFlowFrame(core.MACFromUint64(1), core.MACFromUint64(2), ft, []byte("x"))
		if err != nil {
			return false
		}
		got, err := ParseFlowFrame(frame)
		return err == nil && got == ft
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
