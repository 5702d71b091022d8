// Package capture records and replays the emulated control plane as
// pcapng traces. The Connection Manager's channel taps see every control
// byte with virtual-time delivery stamps (internal/cm, tap);
// this package turns those observations into one capture file per run,
// control.pcapng, that stock Wireshark dissects. Each emulated BGP or
// OpenFlow session is one capture interface in it, named after its
// speaker pair and ports, and becomes a synthesized TCP conversation
// (fabricated SYN handshake, monotonically consistent seq/ack numbers,
// BGP on TCP/179, OpenFlow on TCP/6633), so "who withdrew what, when"
// is a display filter away; frame.interface_name contains "bgp-sea-den"
// selects one speaker pair.
//
// The package is self-contained on purpose: the writer emits the three
// pcapng block types the format requires (Section Header, Interface
// Description, Enhanced Packet), and the reader walks them back out and
// re-parses the BGP/OpenFlow payloads, so tests and CI can assert on
// traces without Wireshark or libpcap.
//
// Timestamps are virtual nanoseconds since experiment start, written at
// nanosecond resolution (if_tsresol=9) with no epoch offset: a packet
// Wireshark shows at 1970-01-01 00:00:02 was delivered at virtual time
// 2s. Delivery time — after the WAN latency model's propagation delay —
// is the semantically meaningful stamp, and is what internal/cm records.
package capture

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// pcapng block type codes (pcapng spec §4).
const (
	blockSHB uint32 = 0x0A0D0D0A
	blockIDB uint32 = 0x00000001
	blockEPB uint32 = 0x00000006
)

// byteOrderMagic distinguishes the section's endianness; we write
// little-endian, the reader accepts either.
const byteOrderMagic uint32 = 0x1A2B3C4D

// linkTypeEthernet is LINKTYPE_ETHERNET: every captured packet carries a
// synthesized Ethernet/IPv4/TCP stack.
const linkTypeEthernet uint16 = 1

// IDB option codes.
const (
	optEnd       uint16 = 0
	optIfName    uint16 = 2
	optIfTsresol uint16 = 9
)

// tsresolNanos declares nanosecond timestamp resolution, matching
// core.Time's unit exactly.
const tsresolNanos byte = 9

// pad4 rounds n up to a 32-bit boundary, as every pcapng body requires.
func pad4(n int) int { return (n + 3) &^ 3 }

// encodeSHB renders a minimal little-endian Section Header Block with an
// unspecified section length.
func encodeSHB() []byte {
	const length = 28 // type + len + magic + version + section len + len
	b := make([]byte, length)
	le := binary.LittleEndian
	le.PutUint32(b[0:4], blockSHB)
	le.PutUint32(b[4:8], length)
	le.PutUint32(b[8:12], byteOrderMagic)
	le.PutUint16(b[12:14], 1)          // major version
	le.PutUint16(b[14:16], 0)          // minor version
	le.PutUint64(b[16:24], ^uint64(0)) // section length -1: not specified
	le.PutUint32(b[24:28], length)
	return b
}

// encodeIDB renders an Interface Description Block carrying the session
// name (if_name) and nanosecond timestamp resolution (if_tsresol).
func encodeIDB(name string) []byte {
	nameOpt := 4 + pad4(len(name))
	resolOpt := 4 + 4                // 1 value byte padded to 4
	optLen := nameOpt + resolOpt + 4 // + opt_endofopt
	length := 16 + optLen + 4
	b := make([]byte, length)
	le := binary.LittleEndian
	le.PutUint32(b[0:4], blockIDB)
	le.PutUint32(b[4:8], uint32(length))
	le.PutUint16(b[8:10], linkTypeEthernet)
	// b[10:12] reserved
	le.PutUint32(b[12:16], 0) // snaplen 0: no limit
	o := 16
	le.PutUint16(b[o:o+2], optIfName)
	le.PutUint16(b[o+2:o+4], uint16(len(name)))
	copy(b[o+4:], name)
	o += nameOpt
	le.PutUint16(b[o:o+2], optIfTsresol)
	le.PutUint16(b[o+2:o+4], 1)
	b[o+4] = tsresolNanos
	o += resolOpt
	// opt_endofopt: code 0, length 0.
	o += 4
	le.PutUint32(b[o:o+4], uint32(length))
	return b
}

// Writer emits pcapng blocks to an underlying stream. It is not
// concurrency-safe; callers serialize (Capture holds its mutex).
type Writer struct {
	w      io.Writer
	ifaces int
	// epb holds an Enhanced Packet Block's 28-byte header, then up to 3
	// padding bytes and the 4-byte trailing length, so WritePacket
	// writes the frame between them without copying it into a block.
	epb [28 + 3 + 4]byte
}

// NewWriter writes the Section Header Block and returns a block writer.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write(encodeSHB()); err != nil {
		return nil, fmt.Errorf("capture: writing section header: %w", err)
	}
	return &Writer{w: w}, nil
}

// AddInterface appends an Interface Description Block named after one
// emulated session and returns its interface ID.
func (w *Writer) AddInterface(name string) (int, error) {
	if _, err := w.w.Write(encodeIDB(name)); err != nil {
		return 0, fmt.Errorf("capture: writing interface block: %w", err)
	}
	id := w.ifaces
	w.ifaces++
	return id, nil
}

// WritePacket appends an Enhanced Packet Block holding one synthesized
// frame delivered at virtual time at.
func (w *Writer) WritePacket(iface int, at core.Time, data []byte) error {
	if iface < 0 || iface >= w.ifaces {
		return fmt.Errorf("capture: packet on undeclared interface %d", iface)
	}
	padded := pad4(len(data))
	length := uint32(32 + padded)
	le := binary.LittleEndian
	hdr, tail := w.epb[:28], w.epb[28:28+padded-len(data)+4]
	le.PutUint32(hdr[0:4], blockEPB)
	le.PutUint32(hdr[4:8], length)
	le.PutUint32(hdr[8:12], uint32(iface))
	ts := uint64(at)
	le.PutUint32(hdr[12:16], uint32(ts>>32)) // timestamp high
	le.PutUint32(hdr[16:20], uint32(ts))     // timestamp low
	le.PutUint32(hdr[20:24], uint32(len(data)))
	le.PutUint32(hdr[24:28], uint32(len(data)))
	clear(tail[:len(tail)-4])
	le.PutUint32(tail[len(tail)-4:], length)
	for _, b := range [...][]byte{hdr, data, tail} {
		if _, err := w.w.Write(b); err != nil {
			return fmt.Errorf("capture: writing packet block: %w", err)
		}
	}
	return nil
}
