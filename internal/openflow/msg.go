// Package openflow implements the OpenFlow 1.0 wire protocol subset Horse
// needs: HELLO / FEATURES / FLOW_MOD / PACKET_IN / PACKET_OUT / STATS
// (flow) / ECHO / BARRIER / ERROR, the channel table each end acts by
// (channel.go), and the switch-side agent that bridges an emulated
// controller connection to the simulated data plane.
//
// Encodings follow the OpenFlow 1.0.0 specification (wire version 0x01):
// the 8-byte header, the 40-byte ofp_match with wildcard bits, and the
// fixed-layout bodies. A vendor action (Horse's "HRSE" extension) encodes
// ECMP select groups, which OpenFlow 1.0 lacks natively — pre-1.1
// deployments used vendor extensions for exactly this.
package openflow

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/flowtable"
)

// Version10 is the OpenFlow 1.0 wire version.
const Version10 = 0x01

// Message types (ofp_type).
const (
	TypeHello           = 0
	TypeError           = 1
	TypeEchoRequest     = 2
	TypeEchoReply       = 3
	TypeVendor          = 4
	TypeFeaturesRequest = 5
	TypeFeaturesReply   = 6
	TypePacketIn        = 10
	TypeFlowRemoved     = 11
	TypePortStatus      = 12
	TypePacketOut       = 13
	TypeFlowMod         = 14
	TypeStatsRequest    = 16
	TypeStatsReply      = 17
	TypeBarrierRequest  = 18
	TypeBarrierReply    = 19
)

// Flow mod commands (ofp_flow_mod_command).
const (
	FCAdd          = 0
	FCModify       = 1
	FCModifyStrict = 2
	FCDelete       = 3
	FCDeleteStrict = 4
)

// Stats types (ofp_stats_types).
const (
	StatsPort = 4
	StatsFlow = 1
)

// Special port numbers.
const (
	PortController uint16 = 0xFFFD
	PortNone       uint16 = 0xFFFF
)

// Wildcard bits (ofp_flow_wildcards).
const (
	wcInPort  = 1 << 0
	wcDLVLAN  = 1 << 1
	wcDLSrc   = 1 << 2
	wcDLDst   = 1 << 3
	wcDLType  = 1 << 4
	wcNWProto = 1 << 5
	wcTPSrc   = 1 << 6
	wcTPDst   = 1 << 7
	// NW_SRC/NW_DST are 6-bit mask-length fields: value N wildcards the
	// low N bits; >=32 wildcards everything.
	wcNWSrcShift = 8
	wcNWDstShift = 14
	wcNWSrcMask  = 0x3F << wcNWSrcShift
	wcNWDstMask  = 0x3F << wcNWDstShift
	wcAll        = 0x3FFFFF
)

const (
	headerLen   = 8
	matchLen    = 40
	flowModLen  = headerLen + matchLen + 24
	packetInLen = headerLen + 10
	maxMsgLen   = 65535
	etherIPv4   = 0x0800
	// vendorHorse identifies Horse's select-group vendor action.
	vendorHorse uint32 = 0x48525345 // "HRSE"
)

// Header is the ofp_header.
type Header struct {
	Version uint8
	Type    uint8
	Length  uint16
	XID     uint32
}

func putHeader(b []byte, typ uint8, length int, xid uint32) {
	b[0] = Version10
	b[1] = typ
	binary.BigEndian.PutUint16(b[2:4], uint16(length))
	binary.BigEndian.PutUint32(b[4:8], xid)
}

// DecodeHeader parses an ofp_header.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < headerLen {
		return Header{}, fmt.Errorf("openflow: short header (%d bytes)", len(b))
	}
	h := Header{Version: b[0], Type: b[1], Length: binary.BigEndian.Uint16(b[2:4]), XID: binary.BigEndian.Uint32(b[4:8])}
	if h.Version != Version10 {
		return Header{}, fmt.Errorf("openflow: unsupported version %#02x", h.Version)
	}
	if int(h.Length) < headerLen {
		return Header{}, fmt.Errorf("openflow: bad length %d", h.Length)
	}
	return h, nil
}

// EncodeHello builds a HELLO message.
func EncodeHello(xid uint32) []byte {
	b := make([]byte, headerLen)
	putHeader(b, TypeHello, headerLen, xid)
	return b
}

// EncodeEcho builds ECHO_REQUEST (reply=false) or ECHO_REPLY messages.
func EncodeEcho(xid uint32, reply bool, payload []byte) []byte {
	b := make([]byte, headerLen+len(payload))
	typ := uint8(TypeEchoRequest)
	if reply {
		typ = TypeEchoReply
	}
	putHeader(b, typ, len(b), xid)
	copy(b[headerLen:], payload)
	return b
}

// EncodeBarrier builds BARRIER_REQUEST/REPLY messages.
func EncodeBarrier(xid uint32, reply bool) []byte {
	b := make([]byte, headerLen)
	typ := uint8(TypeBarrierRequest)
	if reply {
		typ = TypeBarrierReply
	}
	putHeader(b, typ, headerLen, xid)
	return b
}

// EncodeFeaturesRequest builds a FEATURES_REQUEST.
func EncodeFeaturesRequest(xid uint32) []byte {
	b := make([]byte, headerLen)
	putHeader(b, TypeFeaturesRequest, headerLen, xid)
	return b
}

// Port state/config bits (ofp_port_state / ofp_port_config subsets).
const (
	// PortStateLinkDown is OFPPS_LINK_DOWN: no physical link present.
	PortStateLinkDown = 1 << 0
)

// PhyPort is an ofp_phy_port (48 bytes on the wire).
type PhyPort struct {
	PortNo uint16
	HWAddr core.MAC
	Name   string
	Config uint32 // administrative settings bitmap (ofp_port_config)
	State  uint32 // link state bitmap; PortStateLinkDown = carrier lost
	Curr   uint32 // current features bitmap; 1<<6 = 1GbE full duplex
}

// Down reports whether the port has lost its physical link.
func (p PhyPort) Down() bool { return p.State&PortStateLinkDown != 0 }

const phyPortLen = 48

func putPhyPort(b []byte, p PhyPort) {
	binary.BigEndian.PutUint16(b[0:2], p.PortNo)
	copy(b[2:8], p.HWAddr[:])
	copy(b[8:24], p.Name)
	binary.BigEndian.PutUint32(b[24:28], p.Config)
	binary.BigEndian.PutUint32(b[28:32], p.State)
	binary.BigEndian.PutUint32(b[32:36], p.Curr)
}

func parsePhyPort(b []byte) PhyPort {
	p := PhyPort{
		PortNo: binary.BigEndian.Uint16(b[0:2]),
		Config: binary.BigEndian.Uint32(b[24:28]),
		State:  binary.BigEndian.Uint32(b[28:32]),
		Curr:   binary.BigEndian.Uint32(b[32:36]),
	}
	copy(p.HWAddr[:], b[2:8])
	name := b[8:24]
	for i, c := range name {
		if c == 0 {
			name = name[:i]
			break
		}
	}
	p.Name = string(name)
	return p
}

// FeaturesReply is the switch handshake answer.
type FeaturesReply struct {
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	Capabilities uint32
	Actions      uint32
	Ports        []PhyPort
}

// EncodeFeaturesReply serializes a FEATURES_REPLY.
func EncodeFeaturesReply(xid uint32, fr FeaturesReply) []byte {
	b := make([]byte, headerLen+24+48*len(fr.Ports))
	putHeader(b, TypeFeaturesReply, len(b), xid)
	binary.BigEndian.PutUint64(b[8:16], fr.DatapathID)
	binary.BigEndian.PutUint32(b[16:20], fr.NBuffers)
	b[20] = fr.NTables
	binary.BigEndian.PutUint32(b[24:28], fr.Capabilities)
	binary.BigEndian.PutUint32(b[28:32], fr.Actions)
	off := 32
	for _, p := range fr.Ports {
		putPhyPort(b[off:off+phyPortLen], p)
		off += phyPortLen
	}
	return b
}

// DecodeFeaturesReply parses a FEATURES_REPLY body (header included).
func DecodeFeaturesReply(b []byte) (FeaturesReply, error) {
	if len(b) < headerLen+24 {
		return FeaturesReply{}, fmt.Errorf("openflow: features reply truncated")
	}
	fr := FeaturesReply{
		DatapathID:   binary.BigEndian.Uint64(b[8:16]),
		NBuffers:     binary.BigEndian.Uint32(b[16:20]),
		NTables:      b[20],
		Capabilities: binary.BigEndian.Uint32(b[24:28]),
		Actions:      binary.BigEndian.Uint32(b[28:32]),
	}
	rest := b[32:]
	for len(rest) >= phyPortLen {
		fr.Ports = append(fr.Ports, parsePhyPort(rest))
		rest = rest[phyPortLen:]
	}
	return fr, nil
}

// Port status reasons (ofp_port_reason).
const (
	PortReasonAdd    = 0 // OFPPR_ADD
	PortReasonDelete = 1 // OFPPR_DELETE
	PortReasonModify = 2 // OFPPR_MODIFY
)

// PortStatus is an ofp_port_status: the switch's asynchronous
// notification that a port changed — Horse's failure injections surface
// to SDN controllers as these messages, exactly like a real switch
// reporting carrier loss.
type PortStatus struct {
	Reason uint8 // PortReason*
	Desc   PhyPort
}

// EncodePortStatus serializes a PORT_STATUS (64 bytes: header, reason,
// 7 pad, ofp_phy_port).
func EncodePortStatus(xid uint32, ps PortStatus) []byte {
	b := make([]byte, headerLen+8+phyPortLen)
	putHeader(b, TypePortStatus, len(b), xid)
	b[8] = ps.Reason
	putPhyPort(b[16:16+phyPortLen], ps.Desc)
	return b
}

// DecodePortStatus parses a PORT_STATUS (header included).
func DecodePortStatus(b []byte) (PortStatus, error) {
	if len(b) < headerLen+8+phyPortLen {
		return PortStatus{}, fmt.Errorf("openflow: port status truncated (%d bytes)", len(b))
	}
	return PortStatus{Reason: b[8], Desc: parsePhyPort(b[16 : 16+phyPortLen])}, nil
}

// Match mirrors ofp_match; only the IPv4 five-tuple fields Horse uses are
// surfaced, everything else stays wildcarded.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DLType    uint16
	NWProto   uint8
	NWSrc     uint32
	NWDst     uint32
	TPSrc     uint16
	TPDst     uint16
}

func putMatch(b []byte, m Match) {
	binary.BigEndian.PutUint32(b[0:4], m.Wildcards)
	binary.BigEndian.PutUint16(b[4:6], m.InPort)
	// dl_src, dl_dst, dl_vlan, pcp left zero (wildcarded).
	binary.BigEndian.PutUint16(b[22:24], m.DLType)
	b[25] = m.NWProto
	binary.BigEndian.PutUint32(b[28:32], m.NWSrc)
	binary.BigEndian.PutUint32(b[32:36], m.NWDst)
	binary.BigEndian.PutUint16(b[36:38], m.TPSrc)
	binary.BigEndian.PutUint16(b[38:40], m.TPDst)
}

func parseMatch(b []byte) Match {
	return Match{
		Wildcards: binary.BigEndian.Uint32(b[0:4]),
		InPort:    binary.BigEndian.Uint16(b[4:6]),
		DLType:    binary.BigEndian.Uint16(b[22:24]),
		NWProto:   b[25],
		NWSrc:     binary.BigEndian.Uint32(b[28:32]),
		NWDst:     binary.BigEndian.Uint32(b[32:36]),
		TPSrc:     binary.BigEndian.Uint16(b[36:38]),
		TPDst:     binary.BigEndian.Uint16(b[38:40]),
	}
}

// MatchFromTable converts the data plane's match to the OF 1.0 wire form.
func MatchFromTable(m flowtable.Match) Match {
	w := uint32(wcAll) &^ uint32(wcDLType) // Horse matches are IPv4
	out := Match{DLType: etherIPv4}
	if m.HasInPort {
		w &^= wcInPort
		out.InPort = uint16(m.InPort)
	}
	if m.HasProto {
		w &^= wcNWProto
		out.NWProto = uint8(m.Proto)
	}
	if m.SrcBits > 0 {
		w &^= wcNWSrcMask
		w |= uint32(32-m.SrcBits) << wcNWSrcShift
		out.NWSrc = core.IPv4ToUint32(m.Src)
	}
	if m.DstBits > 0 {
		w &^= wcNWDstMask
		w |= uint32(32-m.DstBits) << wcNWDstShift
		out.NWDst = core.IPv4ToUint32(m.Dst)
	}
	if m.HasTpSrc {
		w &^= wcTPSrc
		out.TPSrc = m.TpSrc
	}
	if m.HasTpDst {
		w &^= wcTPDst
		out.TPDst = m.TpDst
	}
	out.Wildcards = w
	return out
}

// ToTable converts a wire match back to the data plane form.
func (m Match) ToTable() flowtable.Match {
	var out flowtable.Match
	if m.Wildcards&wcInPort == 0 {
		out.HasInPort = true
		out.InPort = core.PortID(m.InPort)
	}
	if m.Wildcards&wcNWProto == 0 {
		out.HasProto = true
		out.Proto = core.Proto(m.NWProto)
	}
	srcWC := int(m.Wildcards >> wcNWSrcShift & 0x3F)
	if srcWC < 32 {
		out.SrcBits = 32 - srcWC
		out.Src = core.IPv4FromUint32(m.NWSrc)
	}
	dstWC := int(m.Wildcards >> wcNWDstShift & 0x3F)
	if dstWC < 32 {
		out.DstBits = 32 - dstWC
		out.Dst = core.IPv4FromUint32(m.NWDst)
	}
	if m.Wildcards&wcTPSrc == 0 {
		out.HasTpSrc = true
		out.TpSrc = m.TPSrc
	}
	if m.Wildcards&wcTPDst == 0 {
		out.HasTpDst = true
		out.TpDst = m.TPDst
	}
	return out
}

// Action is an OF 1.0 action: either OUTPUT or Horse's vendor
// select-group extension.
type Action struct {
	Output uint16        // egress port for OUTPUT actions
	Group  []core.PortID // non-empty for the vendor select-group action
	ToCtrl bool          // OUTPUT to the controller port
}

// actionLen is the wire length of one action.
func actionLen(a Action) int {
	if len(a.Group) > 0 {
		// Vendor action: type=0xFFFF, len, vendor id, port count, ports
		// (2 bytes each), padded to 8.
		body := 12 + 2*len(a.Group)
		return body + (8-body%8)%8
	}
	return 8
}

// extend appends n zero bytes to b. Unlike append(b, make([]byte, n)...),
// it does not allocate when b has room under the race detector either.
func extend(b []byte, n int) []byte {
	b = slices.Grow(b, n)[:len(b)+n]
	clear(b[len(b)-n:])
	return b
}

// appendActions appends the wire form of actions to b.
func appendActions(b []byte, actions []Action) []byte {
	for _, a := range actions {
		at, n := len(b), actionLen(a)
		b = extend(b, n)
		ab := b[at:]
		if len(a.Group) > 0 {
			binary.BigEndian.PutUint16(ab[0:2], 0xFFFF)
			binary.BigEndian.PutUint16(ab[2:4], uint16(n))
			binary.BigEndian.PutUint32(ab[4:8], vendorHorse)
			binary.BigEndian.PutUint16(ab[8:10], uint16(len(a.Group)))
			for i, p := range a.Group {
				binary.BigEndian.PutUint16(ab[10+2*i:12+2*i], uint16(p))
			}
			continue
		}
		binary.BigEndian.PutUint16(ab[0:2], 0) // OFPAT_OUTPUT
		binary.BigEndian.PutUint16(ab[2:4], 8)
		port := a.Output
		if a.ToCtrl {
			port = PortController
		}
		binary.BigEndian.PutUint16(ab[4:6], port)
		binary.BigEndian.PutUint16(ab[6:8], 0xFFFF) // max_len
	}
	return b
}

// decodeActions appends the actions b holds to out. An action that lands
// in out's spare capacity reuses the group storage already there.
func decodeActions(out []Action, b []byte) ([]Action, error) {
	for len(b) > 0 {
		if len(b) < 4 {
			return out, fmt.Errorf("openflow: truncated action")
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		alen := int(binary.BigEndian.Uint16(b[2:4]))
		if alen < 8 || alen%8 != 0 || len(b) < alen {
			return out, fmt.Errorf("openflow: bad action length %d", alen)
		}
		switch typ {
		case 0: // OUTPUT
			port := binary.BigEndian.Uint16(b[4:6])
			out = append(out, Action{Output: port, ToCtrl: port == PortController})
		case 0xFFFF: // vendor
			if alen < 12 || binary.BigEndian.Uint32(b[4:8]) != vendorHorse {
				return out, fmt.Errorf("openflow: unknown vendor action")
			}
			// The encoder's layout: a non-empty group, its ports and at
			// least two bytes of padding.
			n := int(binary.BigEndian.Uint16(b[8:10]))
			if n == 0 {
				return out, fmt.Errorf("openflow: empty select group")
			}
			if 12+2*n > alen {
				return out, fmt.Errorf("openflow: select group overflows action")
			}
			out = slices.Grow(out, 1)[:len(out)+1]
			a := &out[len(out)-1]
			group := slices.Grow(a.Group[:0], n)[:n]
			for i := range group {
				group[i] = core.PortID(binary.BigEndian.Uint16(b[10+2*i : 12+2*i]))
			}
			*a = Action{Group: group}
		default:
			return out, fmt.Errorf("openflow: unsupported action type %d", typ)
		}
		b = b[alen:]
	}
	return out, nil
}

// FlowMod is an ofp_flow_mod.
type FlowMod struct {
	Match       Match
	Cookie      uint64
	Command     uint16
	IdleTimeout uint16 // seconds
	HardTimeout uint16 // seconds
	Priority    uint16
	Actions     []Action
}

// EncodeFlowMod serializes a FLOW_MOD into a new buffer.
func EncodeFlowMod(xid uint32, fm FlowMod) []byte {
	return AppendFlowMod(nil, xid, fm)
}

// AppendFlowMod appends the wire form of a FLOW_MOD to dst. A sender that
// hands it the same buffer for every message encodes without allocating.
func AppendFlowMod(dst []byte, xid uint32, fm FlowMod) []byte {
	at := len(dst)
	dst = extend(dst, flowModLen)
	b := dst[at:]
	putMatch(b[8:48], fm.Match)
	binary.BigEndian.PutUint64(b[48:56], fm.Cookie)
	binary.BigEndian.PutUint16(b[56:58], fm.Command)
	binary.BigEndian.PutUint16(b[58:60], fm.IdleTimeout)
	binary.BigEndian.PutUint16(b[60:62], fm.HardTimeout)
	binary.BigEndian.PutUint16(b[62:64], fm.Priority)
	binary.BigEndian.PutUint32(b[64:68], 0xFFFFFFFF) // buffer_id: none
	binary.BigEndian.PutUint16(b[68:70], PortNone)   // out_port
	dst = appendActions(dst, fm.Actions)
	putHeader(dst[at:], TypeFlowMod, len(dst)-at, xid)
	return dst
}

// DecodeFlowMod parses a FLOW_MOD (header included) into a new FlowMod.
func DecodeFlowMod(b []byte) (FlowMod, error) {
	var fm FlowMod
	if err := DecodeFlowModInto(&fm, b); err != nil {
		return FlowMod{}, err
	}
	return fm, nil
}

// DecodeFlowModInto parses a FLOW_MOD (header included) into fm, reusing
// the storage of its actions and their groups: a reader that decodes every
// FLOW_MOD into the same FlowMod allocates only when a message has more
// actions, or larger groups, than any before it. Nothing of b is kept. On
// error fm holds no meaningful value.
func DecodeFlowModInto(fm *FlowMod, b []byte) error {
	if len(b) < flowModLen {
		return fmt.Errorf("openflow: flow mod truncated (%d bytes)", len(b))
	}
	fm.Match = parseMatch(b[8:48])
	fm.Cookie = binary.BigEndian.Uint64(b[48:56])
	fm.Command = binary.BigEndian.Uint16(b[56:58])
	fm.IdleTimeout = binary.BigEndian.Uint16(b[58:60])
	fm.HardTimeout = binary.BigEndian.Uint16(b[60:62])
	fm.Priority = binary.BigEndian.Uint16(b[62:64])
	var err error
	fm.Actions, err = decodeActions(fm.Actions[:0], b[flowModLen:])
	return err
}

// PacketIn is an ofp_packet_in.
type PacketIn struct {
	BufferID uint32
	InPort   uint16
	Reason   uint8 // 0 = no match
	Data     []byte
}

// EncodePacketIn serializes a PACKET_IN.
func EncodePacketIn(xid uint32, pi PacketIn) []byte {
	b := make([]byte, packetInLen+len(pi.Data))
	putHeader(b, TypePacketIn, len(b), xid)
	binary.BigEndian.PutUint32(b[8:12], pi.BufferID)
	binary.BigEndian.PutUint16(b[12:14], uint16(len(pi.Data)))
	binary.BigEndian.PutUint16(b[14:16], pi.InPort)
	b[16] = pi.Reason
	copy(b[packetInLen:], pi.Data)
	return b
}

// DecodePacketIn parses a PACKET_IN (header included).
func DecodePacketIn(b []byte) (PacketIn, error) {
	if len(b) < packetInLen {
		return PacketIn{}, fmt.Errorf("openflow: packet in truncated")
	}
	return PacketIn{
		BufferID: binary.BigEndian.Uint32(b[8:12]),
		InPort:   binary.BigEndian.Uint16(b[14:16]),
		Reason:   b[16],
		Data:     append([]byte(nil), b[packetInLen:]...),
	}, nil
}

// PacketOut is an ofp_packet_out. The switch refuses one (the fluid data
// plane has no packet to send); the type stays for the benchmark's data
// plane stub, which still names it.
type PacketOut struct {
	InPort  uint16
	Actions []Action
	Data    []byte
}

// EncodePacketOut serializes a PACKET_OUT.
func EncodePacketOut(xid uint32, po PacketOut) []byte {
	actions := appendActions(nil, po.Actions)
	b := make([]byte, headerLen+8+len(actions)+len(po.Data))
	putHeader(b, TypePacketOut, len(b), xid)
	binary.BigEndian.PutUint32(b[8:12], 0xFFFFFFFF) // buffer_id: none
	binary.BigEndian.PutUint16(b[12:14], po.InPort)
	binary.BigEndian.PutUint16(b[14:16], uint16(len(actions)))
	copy(b[16:], actions)
	copy(b[16+len(actions):], po.Data)
	return b
}

// DecodePacketOut parses a PACKET_OUT (header included).
func DecodePacketOut(b []byte) (PacketOut, error) {
	if len(b) < headerLen+8 {
		return PacketOut{}, fmt.Errorf("openflow: packet out truncated")
	}
	alen := int(binary.BigEndian.Uint16(b[14:16]))
	if len(b) < 16+alen {
		return PacketOut{}, fmt.Errorf("openflow: packet out actions truncated")
	}
	actions, err := decodeActions(nil, b[16:16+alen])
	if err != nil {
		return PacketOut{}, err
	}
	return PacketOut{
		InPort:  binary.BigEndian.Uint16(b[12:14]),
		Actions: actions,
		Data:    append([]byte(nil), b[16+alen:]...),
	}, nil
}

// PortStatsEntry is one ofp_port_stats record. The switch answers a PORT
// stats request with BAD_STAT; the type stays for the benchmark's data
// plane stub, which still names it.
type PortStatsEntry struct {
	PortNo  uint16
	RxBytes uint64
	TxBytes uint64
}

// FlowStatsEntry is one (abbreviated) ofp_flow_stats record.
type FlowStatsEntry struct {
	Match     Match
	Priority  uint16
	ByteCount uint64
	DurationS uint32
}

// EncodeStatsRequest serializes a PORT or FLOW stats request.
func EncodeStatsRequest(xid uint32, statsType uint16) []byte {
	bodyLen := 8 // port stats request: port_no + pad
	if statsType == StatsFlow {
		bodyLen = matchLen + 4
	}
	b := make([]byte, headerLen+4+bodyLen)
	putHeader(b, TypeStatsRequest, len(b), xid)
	binary.BigEndian.PutUint16(b[8:10], statsType)
	if statsType == StatsPort {
		binary.BigEndian.PutUint16(b[12:14], PortNone) // all ports
	} else {
		putMatch(b[12:52], Match{Wildcards: wcAll}) // all flows
		binary.BigEndian.PutUint16(b[54:56], PortNone)
	}
	return b
}

// DecodeStatsRequestType extracts the stats type of a request.
func DecodeStatsRequestType(b []byte) (uint16, error) {
	if len(b) < headerLen+4 {
		return 0, fmt.Errorf("openflow: stats request truncated")
	}
	return binary.BigEndian.Uint16(b[8:10]), nil
}

// EncodeFlowStatsReply serializes a FLOW stats reply.
func EncodeFlowStatsReply(xid uint32, entries []FlowStatsEntry) []byte {
	const entryLen = 88 // length(2) table(1) pad(1) match(40) dur(8) prio(2) idle(2) hard(2) pad(6) cookie(8) pkts(8) bytes(8) ; no actions
	b := make([]byte, headerLen+4+entryLen*len(entries))
	putHeader(b, TypeStatsReply, len(b), xid)
	binary.BigEndian.PutUint16(b[8:10], StatsFlow)
	off := headerLen + 4
	for _, e := range entries {
		binary.BigEndian.PutUint16(b[off:], entryLen)
		putMatch(b[off+4:off+44], e.Match)
		binary.BigEndian.PutUint32(b[off+44:], e.DurationS)
		binary.BigEndian.PutUint16(b[off+52:], e.Priority)
		binary.BigEndian.PutUint64(b[off+72:], e.ByteCount/1500)
		binary.BigEndian.PutUint64(b[off+80:], e.ByteCount)
		off += entryLen
	}
	return b
}

// DecodeFlowStatsReply parses a FLOW stats reply.
func DecodeFlowStatsReply(b []byte) ([]FlowStatsEntry, error) {
	if len(b) < headerLen+4 {
		return nil, fmt.Errorf("openflow: stats reply truncated")
	}
	if t := binary.BigEndian.Uint16(b[8:10]); t != StatsFlow {
		return nil, fmt.Errorf("openflow: stats reply type %d, want flow", t)
	}
	rest := b[headerLen+4:]
	var out []FlowStatsEntry
	for len(rest) >= 4 {
		elen := int(binary.BigEndian.Uint16(rest[0:2]))
		if elen < 88 || len(rest) < elen {
			return nil, fmt.Errorf("openflow: flow stats entry truncated")
		}
		out = append(out, FlowStatsEntry{
			Match:     parseMatch(rest[4:44]),
			DurationS: binary.BigEndian.Uint32(rest[44:48]),
			Priority:  binary.BigEndian.Uint16(rest[52:54]),
			ByteCount: binary.BigEndian.Uint64(rest[80:88]),
		})
		rest = rest[elen:]
	}
	return out, nil
}

// TupleToExactMatch builds the wire match for a five-tuple (all fields
// set, in_port wildcarded).
func TupleToExactMatch(ft core.FiveTuple) Match {
	return MatchFromTable(flowtable.ExactFlowMatch(ft))
}

// MatchToTuple extracts a five-tuple from an exact wire match.
func MatchToTuple(m Match) (core.FiveTuple, error) {
	tm := m.ToTable()
	if tm.SrcBits != 32 || tm.DstBits != 32 || !tm.HasProto {
		return core.FiveTuple{}, fmt.Errorf("openflow: match %v is not an exact five-tuple", tm)
	}
	return core.FiveTuple{
		Src: tm.Src, Dst: tm.Dst, Proto: tm.Proto,
		SrcPort: tm.TpSrc, DstPort: tm.TpDst,
	}, nil
}
