package capture

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/openflow"
	"repro/internal/wire"
)

// Packet is one Enhanced Packet Block read back from a trace.
type Packet struct {
	Interface int
	Time      core.Time
	Data      []byte
}

// Trace is one parsed pcapng file: the declared interfaces (one per
// emulated session) and every packet in file order.
type Trace struct {
	Path       string
	Interfaces []string
	Packets    []Packet
}

// ReadFile parses one pcapng file.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	tr, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("capture: %s: %w", path, err)
	}
	tr.Path = path
	return tr, nil
}

// Parse walks the pcapng block structure of data: a Section Header
// Block, then Interface Description and Enhanced Packet blocks in any
// order (unknown block types are skipped by length, as the format
// intends). Malformed framing — truncated blocks, mismatched trailing
// lengths, packets on undeclared interfaces — is an error.
func Parse(data []byte) (*Trace, error) {
	tr := &Trace{}
	var bo binary.ByteOrder
	for off := 0; off < len(data); {
		if len(data)-off < 12 {
			return nil, fmt.Errorf("truncated block header at offset %d", off)
		}
		// The SHB's type code is endianness-palindromic; everything else
		// needs the section byte order established by a preceding SHB.
		rawType := binary.LittleEndian.Uint32(data[off : off+4])
		if rawType == blockSHB {
			magic := data[off+8 : off+12]
			switch {
			case binary.LittleEndian.Uint32(magic) == byteOrderMagic:
				bo = binary.LittleEndian
			case binary.BigEndian.Uint32(magic) == byteOrderMagic:
				bo = binary.BigEndian
			default:
				return nil, fmt.Errorf("bad byte-order magic %x at offset %d", magic, off)
			}
		} else if bo == nil {
			return nil, fmt.Errorf("block %#08x before any section header", rawType)
		}
		typ := bo.Uint32(data[off : off+4])
		length := int(bo.Uint32(data[off+4 : off+8]))
		if length < 12 || length%4 != 0 || off+length > len(data) {
			return nil, fmt.Errorf("bad block length %d at offset %d", length, off)
		}
		if trail := int(bo.Uint32(data[off+length-4 : off+length])); trail != length {
			return nil, fmt.Errorf("trailing length %d != leading %d at offset %d", trail, length, off)
		}
		body := data[off+8 : off+length-4]
		switch typ {
		case blockSHB:
			// Section properties were handled above; options ignored.
		case blockIDB:
			if len(body) < 8 {
				return nil, fmt.Errorf("short interface block at offset %d", off)
			}
			name, err := idbName(bo, body[8:])
			if err != nil {
				return nil, fmt.Errorf("interface block at offset %d: %w", off, err)
			}
			tr.Interfaces = append(tr.Interfaces, name)
		case blockEPB:
			if len(body) < 20 {
				return nil, fmt.Errorf("short packet block at offset %d", off)
			}
			iface := int(bo.Uint32(body[0:4]))
			if iface >= len(tr.Interfaces) {
				return nil, fmt.Errorf("packet on undeclared interface %d at offset %d", iface, off)
			}
			ts := core.Time(uint64(bo.Uint32(body[4:8]))<<32 | uint64(bo.Uint32(body[8:12])))
			capLen := int(bo.Uint32(body[12:16]))
			if capLen < 0 || 20+capLen > len(body) {
				return nil, fmt.Errorf("bad captured length %d at offset %d", capLen, off)
			}
			tr.Packets = append(tr.Packets, Packet{
				Interface: iface,
				Time:      ts,
				Data:      append([]byte(nil), body[20:20+capLen]...),
			})
		}
		off += length
	}
	if len(tr.Interfaces) == 0 && len(tr.Packets) == 0 && bo == nil {
		return nil, fmt.Errorf("no pcapng section header")
	}
	return tr, nil
}

// idbName extracts the if_name option from an IDB's option list.
func idbName(bo binary.ByteOrder, opts []byte) (string, error) {
	for len(opts) >= 4 {
		code := bo.Uint16(opts[0:2])
		olen := int(bo.Uint16(opts[2:4]))
		if code == optEnd {
			return "", nil
		}
		if 4+olen > len(opts) {
			return "", fmt.Errorf("truncated option %d", code)
		}
		if code == optIfName {
			return string(opts[4 : 4+olen]), nil
		}
		opts = opts[4+pad4(olen):]
	}
	return "", nil
}

// Control plane protocol labels the decoder reports.
const (
	ProtoBGP      = "bgp"
	ProtoOpenFlow = "openflow"
)

// Message is one control plane message re-parsed from a trace's TCP
// payload bytes, stamped with the delivery time of the segment that
// completed it.
type Message struct {
	Interface int
	Time      core.Time
	Src, Dst  netip.Addr
	SrcPort   uint16
	DstPort   uint16
	Proto     string // ProtoBGP or ProtoOpenFlow
	Type      string // "UPDATE", "KEEPALIVE", "FLOW_MOD", ...
	// Announced and Withdrawn count NLRI in a BGP UPDATE (one UPDATE
	// can both announce and withdraw). StrayWithdrawn counts the
	// withdrawn prefixes the sender had not announced on this stream
	// since its last OPEN: withdrawals of routes the receiver does not
	// hold from it.
	Announced      int
	Withdrawn      int
	StrayWithdrawn int
	// Refused marks an OpenFlow message its receiving end's channel
	// table has no step for, in the state the stream had put it in, and a
	// BGP message that follows a NOTIFICATION on its stream: NOTIFICATION
	// is terminal, and its receiver reads nothing after it.
	Refused bool
	Len     int
}

// stream reassembles one TCP direction of one session.
type stream struct {
	expect  uint32 // next expected sequence number
	started bool
	buf     []byte
	proto   string
	msg     *Message // template carrying addressing for extracted messages
	// held is what a BGP sender has announced on the stream and not
	// withdrawn since its last OPEN; notified is set by its NOTIFICATION.
	held     map[netip.Prefix]struct{}
	notified bool
	// end is an OpenFlow stream's receiving end, stepped by every message.
	end openflow.End
}

// streamKey identifies one direction of one synthesized conversation.
type streamKey struct {
	iface            int
	src, dst         netip.Addr
	srcPort, dstPort uint16
}

// Decode re-parses every control plane message in the trace: it walks
// the synthesized Ethernet/IPv4/TCP framing, verifies per-direction
// sequence continuity (a discontinuity means the writer corrupted the
// stream and is an error), reassembles the byte streams, and decodes
// them as BGP (a port is 179) or OpenFlow (a port is 6633). Every
// emulated write is whole, so a stream that ends inside a message is an
// error too. A BGP stream keeps the prefixes its sender holds announced,
// which is how a withdrawal is known to be stray, and whether its sender
// has sent a NOTIFICATION, after which every message is refused; an
// OpenFlow stream steps its receiving end's channel table, which is how a
// message is known to be refused.
func Decode(tr *Trace) ([]Message, error) {
	streams := make(map[streamKey]*stream)
	var order []*stream // streams in first-seen order, for the tail check
	var out []Message
	for i, pkt := range tr.Packets {
		_, rest, err := wire.DecodeEthernet(pkt.Data)
		if err != nil {
			return nil, fmt.Errorf("packet %d: %w", i, err)
		}
		ip, rest, err := wire.DecodeIPv4(rest)
		if err != nil {
			return nil, fmt.Errorf("packet %d: %w", i, err)
		}
		if ip.Protocol != core.ProtoTCP {
			return nil, fmt.Errorf("packet %d: protocol %d, want TCP", i, ip.Protocol)
		}
		tcp, payload, err := wire.DecodeTCP(rest)
		if err != nil {
			return nil, fmt.Errorf("packet %d: %w", i, err)
		}
		key := streamKey{iface: pkt.Interface, src: ip.Src, dst: ip.Dst, srcPort: tcp.SrcPort, dstPort: tcp.DstPort}
		st := streams[key]
		if st == nil {
			proto := ""
			var end openflow.End // the receiver's, for an OpenFlow stream
			switch {
			case tcp.SrcPort == PortBGP || tcp.DstPort == PortBGP:
				proto = ProtoBGP
			case tcp.DstPort == PortOpenFlow:
				proto, end = ProtoOpenFlow, openflow.ControllerEnd()
			case tcp.SrcPort == PortOpenFlow:
				proto, end = ProtoOpenFlow, openflow.SwitchEnd()
			default:
				return nil, fmt.Errorf("packet %d: no control plane port in %d->%d", i, tcp.SrcPort, tcp.DstPort)
			}
			st = &stream{proto: proto, msg: &Message{
				Interface: pkt.Interface,
				Src:       ip.Src, Dst: ip.Dst,
				SrcPort: tcp.SrcPort, DstPort: tcp.DstPort,
				Proto: proto,
			}, held: make(map[netip.Prefix]struct{}), end: end}
			streams[key] = st
			order = append(order, st)
		}
		if tcp.Flags&wire.TCPSyn != 0 {
			st.expect = tcp.Seq + 1
			st.started = true
			continue
		}
		if len(payload) == 0 {
			continue
		}
		if !st.started {
			st.expect = tcp.Seq
			st.started = true
		}
		if tcp.Seq != st.expect {
			return nil, fmt.Errorf("packet %d: TCP seq %d, want %d (%v:%d -> %v:%d)",
				i, tcp.Seq, st.expect, ip.Src, tcp.SrcPort, ip.Dst, tcp.DstPort)
		}
		st.expect += uint32(len(payload))
		st.buf = append(st.buf, payload...)
		msgs, err := st.extract(pkt.Time)
		if err != nil {
			return nil, fmt.Errorf("packet %d: %w", i, err)
		}
		out = append(out, msgs...)
	}
	for _, st := range order {
		if len(st.buf) > 0 {
			m := st.msg
			return nil, fmt.Errorf("interface %d %v:%d -> %v:%d: stream ends inside a message (%d bytes left over)",
				m.Interface, m.Src, m.SrcPort, m.Dst, m.DstPort, len(st.buf))
		}
	}
	return out, nil
}

// extract pulls every complete control plane message off the stream
// buffer, stamping each with the completing segment's delivery time.
func (st *stream) extract(at core.Time) ([]Message, error) {
	var out []Message
	for {
		m, n, err := st.peel()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		m.Time = at
		m.Len = n
		out = append(out, m)
		st.buf = st.buf[n:]
	}
}

// peel decodes one message from the front of the buffer, returning its
// length (0 when the buffer holds no complete message yet).
func (st *stream) peel() (Message, int, error) {
	m := *st.msg
	switch st.proto {
	case ProtoBGP:
		const hdr = 19
		if len(st.buf) < hdr {
			return m, 0, nil
		}
		n := int(binary.BigEndian.Uint16(st.buf[16:18]))
		if n < hdr {
			return m, 0, fmt.Errorf("bgp length %d below header size", n)
		}
		if len(st.buf) < n {
			return m, 0, nil
		}
		msg, err := bgp.Decode(st.buf[:n])
		if err != nil {
			return m, 0, fmt.Errorf("bgp decode: %w", err)
		}
		m.Refused = st.notified
		switch msg.Type {
		case bgp.MsgOpen:
			m.Type = "OPEN"
			clear(st.held)
		case bgp.MsgKeepalive:
			m.Type = "KEEPALIVE"
		case bgp.MsgNotification:
			m.Type = "NOTIFICATION"
			st.notified = true
		case bgp.MsgUpdate:
			m.Type = "UPDATE"
			m.Announced = len(msg.Upd.NLRI)
			m.Withdrawn = len(msg.Upd.Withdrawn)
			for _, p := range msg.Upd.Withdrawn {
				if _, ok := st.held[p]; !ok {
					m.StrayWithdrawn++
				}
				delete(st.held, p)
			}
			for _, p := range msg.Upd.NLRI {
				st.held[p] = struct{}{}
			}
		}
		return m, n, nil
	case ProtoOpenFlow:
		h, err := openflow.DecodeHeader(st.buf)
		if err != nil {
			if len(st.buf) < 8 {
				return m, 0, nil
			}
			return m, 0, fmt.Errorf("openflow decode: %w", err)
		}
		if len(st.buf) < int(h.Length) {
			return m, 0, nil
		}
		m.Type = ofTypeName(h.Type)
		_, ok := st.end.Step(h.Type)
		m.Refused = !ok
		return m, int(h.Length), nil
	}
	return m, 0, fmt.Errorf("unknown stream protocol %q", st.proto)
}

// ofTypeName maps OpenFlow 1.0 message types to Wireshark-style names.
func ofTypeName(t uint8) string {
	switch t {
	case openflow.TypeHello:
		return "HELLO"
	case openflow.TypeError:
		return "ERROR"
	case openflow.TypeEchoRequest:
		return "ECHO_REQUEST"
	case openflow.TypeEchoReply:
		return "ECHO_REPLY"
	case openflow.TypeVendor:
		return "VENDOR"
	case openflow.TypeFeaturesRequest:
		return "FEATURES_REQUEST"
	case openflow.TypeFeaturesReply:
		return "FEATURES_REPLY"
	case openflow.TypePacketIn:
		return "PACKET_IN"
	case openflow.TypeFlowRemoved:
		return "FLOW_REMOVED"
	case openflow.TypePortStatus:
		return "PORT_STATUS"
	case openflow.TypePacketOut:
		return "PACKET_OUT"
	case openflow.TypeFlowMod:
		return "FLOW_MOD"
	case openflow.TypeStatsRequest:
		return "STATS_REQUEST"
	case openflow.TypeStatsReply:
		return "STATS_REPLY"
	case openflow.TypeBarrierRequest:
		return "BARRIER_REQUEST"
	case openflow.TypeBarrierReply:
		return "BARRIER_REPLY"
	default:
		return fmt.Sprintf("TYPE_%d", t)
	}
}

// Validate fully checks one trace: block structure (already enforced by
// Parse), strictly non-decreasing delivery timestamps in file order, TCP
// sequence continuity, and decodability of every completed payload
// message. It returns the decoded messages so callers can assert on
// content too.
func Validate(tr *Trace) ([]Message, error) {
	for i := 1; i < len(tr.Packets); i++ {
		if tr.Packets[i].Time < tr.Packets[i-1].Time {
			return nil, fmt.Errorf("%s: packet %d at %v is earlier than packet %d at %v",
				tr.Path, i, tr.Packets[i].Time, i-1, tr.Packets[i-1].Time)
		}
	}
	msgs, err := Decode(tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tr.Path, err)
	}
	return msgs, nil
}
