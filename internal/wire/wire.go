// Package wire provides compact binary encoding and decoding of the
// packet headers Horse's control plane carries: Ethernet, IPv4, UDP and
// TCP. Its design follows gopacket's serialization model: layers are
// serialized back-to-front into a prepend buffer, so a packet is built by
// serializing payload first, then transport, network and link layers.
//
// The simulated data plane itself is fluid (no per-packet processing);
// wire is used where real bytes must cross the emulation boundary, which
// is one place: the body of an OpenFlow PACKET_IN, a flow's first packet
// as a real Ethernet frame built here, exactly as a hardware switch would
// punt one to the controller. Nothing goes the other way: the switch
// refuses PACKET_OUT.
package wire

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/core"
)

// EtherType values understood by the decoder.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// Buffer is a prepend-oriented serialization buffer, in the style of
// gopacket.SerializeBuffer: PrependBytes grows the front so that layers
// serialize from innermost (payload) to outermost (Ethernet).
type Buffer struct {
	data  []byte
	start int
}

// NewBuffer returns a buffer with room for a typical header stack.
func NewBuffer() *Buffer {
	const headroom = 128
	return &Buffer{data: make([]byte, headroom), start: headroom}
}

// PrependBytes returns n writable bytes at the front of the packet.
func (b *Buffer) PrependBytes(n int) []byte {
	if n > b.start {
		// Grow the headroom: move existing bytes to the tail of a
		// bigger backing array.
		const extra = 128
		payload := b.data[b.start:]
		grown := make([]byte, n+extra+len(payload))
		copy(grown[n+extra:], payload)
		b.data = grown
		b.start = n + extra
	}
	b.start -= n
	return b.data[b.start : b.start+n]
}

// Bytes returns the serialized packet.
func (b *Buffer) Bytes() []byte { return b.data[b.start:] }

// Reset empties the buffer for the next packet, keeping the whole
// backing array as headroom: a caller that reuses one Buffer allocates
// only until the array fits its largest packet.
func (b *Buffer) Reset() { b.start = len(b.data) }

// Layer is anything that can serialize itself onto the front of a Buffer.
type Layer interface {
	SerializeTo(b *Buffer) error
}

// Serialize builds a packet from outermost to innermost layer arguments
// (Ethernet first), mirroring gopacket.SerializeLayers.
func Serialize(layers ...Layer) ([]byte, error) {
	b := NewBuffer()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// Payload is raw application bytes.
type Payload []byte

// SerializeTo implements Layer.
func (p Payload) SerializeTo(b *Buffer) error {
	copy(b.PrependBytes(len(p)), p)
	return nil
}

// Ethernet is the 14-byte Ethernet II header.
type Ethernet struct {
	Dst       core.MAC
	Src       core.MAC
	EtherType uint16
}

// SerializeTo implements Layer.
func (e *Ethernet) SerializeTo(b *Buffer) error {
	buf := b.PrependBytes(14)
	copy(buf[0:6], e.Dst[:])
	copy(buf[6:12], e.Src[:])
	binary.BigEndian.PutUint16(buf[12:14], e.EtherType)
	return nil
}

// DecodeEthernet parses an Ethernet header, returning it and the payload.
func DecodeEthernet(data []byte) (*Ethernet, []byte, error) {
	if len(data) < 14 {
		return nil, nil, fmt.Errorf("wire: ethernet header truncated (%d bytes)", len(data))
	}
	var e Ethernet
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return &e, data[14:], nil
}

// IPv4 is a (option-less) IPv4 header.
type IPv4 struct {
	TOS      uint8
	TTL      uint8
	Protocol core.Proto
	Src      netip.Addr
	Dst      netip.Addr
	length   uint16 // filled in during serialization/decoding
	ID       uint16
}

// SerializeTo implements Layer. Total length is computed from the bytes
// already in the buffer; the checksum is computed over the header.
func (ip *IPv4) SerializeTo(b *Buffer) error {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return fmt.Errorf("wire: IPv4 layer requires v4 addresses (%v -> %v)", ip.Src, ip.Dst)
	}
	payloadLen := len(b.Bytes())
	buf := b.PrependBytes(20)
	buf[0] = 0x45 // version 4, IHL 5
	buf[1] = ip.TOS
	ip.length = uint16(20 + payloadLen)
	binary.BigEndian.PutUint16(buf[2:4], ip.length)
	binary.BigEndian.PutUint16(buf[4:6], ip.ID)
	binary.BigEndian.PutUint16(buf[6:8], 0x4000) // DF
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	buf[8] = ttl
	buf[9] = byte(ip.Protocol)
	s4 := ip.Src.As4()
	d4 := ip.Dst.As4()
	copy(buf[12:16], s4[:])
	copy(buf[16:20], d4[:])
	binary.BigEndian.PutUint16(buf[10:12], 0)
	binary.BigEndian.PutUint16(buf[10:12], Checksum(buf[:20]))
	return nil
}

// DecodeIPv4 parses an IPv4 header, returning it and the payload.
func DecodeIPv4(data []byte) (*IPv4, []byte, error) {
	if len(data) < 20 {
		return nil, nil, fmt.Errorf("wire: IPv4 header truncated (%d bytes)", len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return nil, nil, fmt.Errorf("wire: IP version %d, want 4", v)
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl < 20 || len(data) < ihl {
		return nil, nil, fmt.Errorf("wire: bad IHL %d", ihl)
	}
	var ip IPv4
	ip.TOS = data[1]
	ip.length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.TTL = data[8]
	ip.Protocol = core.Proto(data[9])
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	end := int(ip.length)
	if end > len(data) || end < ihl {
		end = len(data)
	}
	return &ip, data[ihl:end], nil
}

// UDP is the 8-byte UDP header.
type UDP struct {
	SrcPort uint16
	DstPort uint16
}

// SerializeTo implements Layer (checksum left zero, which is legal for
// UDP over IPv4).
func (u *UDP) SerializeTo(b *Buffer) error {
	payloadLen := len(b.Bytes())
	buf := b.PrependBytes(8)
	binary.BigEndian.PutUint16(buf[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], u.DstPort)
	binary.BigEndian.PutUint16(buf[4:6], uint16(8+payloadLen))
	binary.BigEndian.PutUint16(buf[6:8], 0)
	return nil
}

// DecodeUDP parses a UDP header, returning it and the payload.
func DecodeUDP(data []byte) (*UDP, []byte, error) {
	if len(data) < 8 {
		return nil, nil, fmt.Errorf("wire: UDP header truncated (%d bytes)", len(data))
	}
	u := &UDP{
		SrcPort: binary.BigEndian.Uint16(data[0:2]),
		DstPort: binary.BigEndian.Uint16(data[2:4]),
	}
	return u, data[8:], nil
}

// TCP flag bits.
const (
	TCPFin uint8 = 0x01
	TCPSyn uint8 = 0x02
	TCPRst uint8 = 0x04
	TCPPsh uint8 = 0x08
	TCPAck uint8 = 0x10
)

// TCP is a minimal (option-less) TCP header; Horse's BGP sessions ride on
// emulated streams, but PACKET_IN bodies of TCP flows need a header, and
// the capture subsystem synthesizes whole segments (handshakes included)
// so Wireshark can reassemble the emulated control plane conversations.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8 // see the TCPFin..TCPAck bits
	Window  uint16
}

// SerializeTo implements Layer.
func (t *TCP) SerializeTo(b *Buffer) error {
	buf := b.PrependBytes(20)
	binary.BigEndian.PutUint16(buf[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], t.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], t.Seq)
	binary.BigEndian.PutUint32(buf[8:12], t.Ack)
	buf[12] = 5 << 4 // data offset
	buf[13] = t.Flags
	binary.BigEndian.PutUint16(buf[14:16], t.Window)
	// Checksum and urgent pointer stay zero; a reset Buffer is not.
	binary.BigEndian.PutUint32(buf[16:20], 0)
	return nil
}

// DecodeTCP parses a TCP header, returning it and the payload.
func DecodeTCP(data []byte) (*TCP, []byte, error) {
	if len(data) < 20 {
		return nil, nil, fmt.Errorf("wire: TCP header truncated (%d bytes)", len(data))
	}
	off := int(data[12]>>4) * 4
	if off < 20 || len(data) < off {
		return nil, nil, fmt.Errorf("wire: bad TCP data offset %d", off)
	}
	t := &TCP{
		SrcPort: binary.BigEndian.Uint16(data[0:2]),
		DstPort: binary.BigEndian.Uint16(data[2:4]),
		Seq:     binary.BigEndian.Uint32(data[4:8]),
		Ack:     binary.BigEndian.Uint32(data[8:12]),
		Flags:   data[13],
		Window:  binary.BigEndian.Uint16(data[14:16]),
	}
	return t, data[off:], nil
}

// Checksum is the Internet checksum (RFC 1071).
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// BuildFlowFrame builds the Ethernet/IPv4/L4 frame representing the first
// packet of a five-tuple; PACKET_IN messages carry this as their body.
func BuildFlowFrame(srcMAC, dstMAC core.MAC, ft core.FiveTuple, payload []byte) ([]byte, error) {
	eth := &Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	ip := &IPv4{Src: ft.Src, Dst: ft.Dst, Protocol: ft.Proto, TTL: 64}
	switch ft.Proto {
	case core.ProtoUDP:
		return Serialize(eth, ip, &UDP{SrcPort: ft.SrcPort, DstPort: ft.DstPort}, Payload(payload))
	case core.ProtoTCP:
		return Serialize(eth, ip, &TCP{SrcPort: ft.SrcPort, DstPort: ft.DstPort, Flags: TCPSyn, Window: 65535}, Payload(payload))
	default:
		return Serialize(eth, ip, Payload(payload))
	}
}

// ParseFlowFrame extracts the five-tuple from an Ethernet frame, the
// inverse of BuildFlowFrame; the controller uses it to understand
// PACKET_IN bodies.
func ParseFlowFrame(frame []byte) (core.FiveTuple, error) {
	var ft core.FiveTuple
	eth, rest, err := DecodeEthernet(frame)
	if err != nil {
		return ft, err
	}
	if eth.EtherType != EtherTypeIPv4 {
		return ft, fmt.Errorf("wire: ethertype %#04x not IPv4", eth.EtherType)
	}
	ip, rest, err := DecodeIPv4(rest)
	if err != nil {
		return ft, err
	}
	ft.Src, ft.Dst, ft.Proto = ip.Src, ip.Dst, ip.Protocol
	switch ip.Protocol {
	case core.ProtoUDP:
		u, _, err := DecodeUDP(rest)
		if err != nil {
			return ft, err
		}
		ft.SrcPort, ft.DstPort = u.SrcPort, u.DstPort
	case core.ProtoTCP:
		t, _, err := DecodeTCP(rest)
		if err != nil {
			return ft, err
		}
		ft.SrcPort, ft.DstPort = t.SrcPort, t.DstPort
	}
	return ft, nil
}
