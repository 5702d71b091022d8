// Package core holds primitives shared by every Horse subsystem: virtual
// time, rates, node and port identifiers, and address helpers.
//
// Horse (SIGCOMM'19 demo) decouples an emulated control plane from a
// simulated data plane. Both planes agree on these primitives: the data
// plane schedules in virtual time; the control plane runs in wall time and
// is mapped onto virtual time by the hybrid clock in internal/sim.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"time"
)

// Time is virtual time measured in nanoseconds since experiment start.
// It is kept distinct from time.Time so that wall clock values cannot be
// accidentally mixed into the simulation timeline.
type Time int64

// Common virtual durations, expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time; used as "run forever".
const MaxTime Time = 1<<63 - 1

// FromDuration converts a wall duration into a virtual time delta at 1:1.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts a virtual time delta into a wall duration at 1:1.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	if t == MaxTime {
		return "∞"
	}
	return time.Duration(t).String()
}

// Clock is the experiment's virtual clock as emulated control plane code
// sees it. That code runs in wall time, but whatever it schedules —
// Hedera's 5-second poll, the ECMP repair debounce, a BGP speaker's
// advertisement window, keepalive, hold deadline and dampening decay —
// must sit on the virtual axis, where an armed timer is a deadline DES
// fast-forward jumps to instead of a wall-clock timer it starves. The
// Connection Manager implements it over the engine. The one wall-time
// source is unexported in internal/bgp, for a speaker that was given no
// Clock because it runs outside any experiment (unit tests, bench/'s
// session probe).
type Clock interface {
	// Now is the current virtual time.
	Now() Time
	// After schedules fn after d. Implementations must treat the wake
	// as control plane activity: the woken code is about to send
	// messages or change routes.
	After(d Time, fn func())
}

// Rate is a traffic rate in bits per second. Fluid-model computations use
// float64 so that fair-share divisions do not truncate.
type Rate float64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1e3 * BitPerSecond
	Mbps              = 1e6 * BitPerSecond
	Gbps              = 1e9 * BitPerSecond
)

// Finite reports whether r is neither NaN nor infinite. A rate that
// reaches the max–min solver must be: its fill never terminates on a NaN.
func (r Rate) Finite() bool {
	return !math.IsNaN(float64(r)) && !math.IsInf(float64(r), 0)
}

func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.3gGbps", float64(r/Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.3gMbps", float64(r/Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.3gKbps", float64(r/Kbps))
	default:
		return fmt.Sprintf("%.3gbps", float64(r))
	}
}

// BytesIn reports how many bytes flow at rate r during virtual interval d.
func (r Rate) BytesIn(d Time) uint64 {
	if r <= 0 || d <= 0 {
		return 0
	}
	return uint64(float64(r) / 8 * d.Seconds())
}

// NodeID identifies a simulated node (host, switch or router) within one
// experiment. IDs are dense and assigned by the topology builder.
type NodeID uint32

// NodeNone is the zero NodeID used to mean "no node".
const NodeNone NodeID = 0xFFFFFFFF

func (n NodeID) String() string { return fmt.Sprintf("n%d", uint32(n)) }

// PortID identifies a port local to a node. Port numbering starts at 1 to
// match OpenFlow conventions; 0 is reserved.
type PortID uint16

// PortNone is the reserved invalid port.
const PortNone PortID = 0

func (p PortID) String() string { return fmt.Sprintf("p%d", uint16(p)) }

// LinkID identifies a unidirectional link (a directed edge). The topology
// package assigns them densely.
type LinkID uint32

func (l LinkID) String() string { return fmt.Sprintf("l%d", uint32(l)) }

// MAC is a 48-bit hardware address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 derives a locally-administered unicast MAC from v.
func MACFromUint64(v uint64) MAC {
	var m MAC
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	copy(m[:], b[2:])
	m[0] = (m[0] | 0x02) &^ 0x01 // locally administered, unicast
	return m
}

// IPv4FromUint32 builds a netip.Addr from a host-order uint32.
func IPv4FromUint32(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

// IPv4ToUint32 converts an IPv4 netip.Addr into a host-order uint32.
// It panics on non-IPv4 addresses: Horse's simulated data plane is
// IPv4-only, matching the original implementation.
func IPv4ToUint32(a netip.Addr) uint32 {
	if !a.Is4() {
		panic("core: IPv4ToUint32 on non-IPv4 address " + a.String())
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// Proto is an IP protocol number as used in flow five-tuples.
type Proto uint8

// Protocol numbers used by the demo workloads.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto%d", uint8(p))
	}
}

// FiveTuple identifies a transport flow in the simulated data plane.
type FiveTuple struct {
	Src     netip.Addr
	Dst     netip.Addr
	Proto   Proto
	SrcPort uint16
	DstPort uint16
}

func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%s", ft.Src, ft.SrcPort, ft.Dst, ft.DstPort, ft.Proto)
}

// Hash returns a deterministic non-cryptographic hash of the full
// five-tuple (FNV-1a over the canonical byte encoding). SDN 5-tuple ECMP
// uses this value; BGP-style ECMP uses HashSrcDst.
func (ft FiveTuple) Hash() uint32 {
	var buf [13]byte
	s4 := ft.Src.As4()
	d4 := ft.Dst.As4()
	copy(buf[0:4], s4[:])
	copy(buf[4:8], d4[:])
	buf[8] = byte(ft.Proto)
	binary.BigEndian.PutUint16(buf[9:11], ft.SrcPort)
	binary.BigEndian.PutUint16(buf[11:13], ft.DstPort)
	return fnv1a(buf[:])
}

// HashSrcDst hashes only source and destination addresses, matching the
// paper's "BGP plus ECMP path selection by hashing of IP source and
// destination".
func (ft FiveTuple) HashSrcDst() uint32 {
	var buf [8]byte
	s4 := ft.Src.As4()
	d4 := ft.Dst.As4()
	copy(buf[0:4], s4[:])
	copy(buf[4:8], d4[:])
	return fnv1a(buf[:])
}

func fnv1a(b []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	return h
}

// Reverse returns the five-tuple of the reverse direction.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		Src: ft.Dst, Dst: ft.Src, Proto: ft.Proto,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
	}
}
