package capture

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// Well-known control plane ports: the synthesized TCP conversations use
// them so Wireshark's stock dissectors pick the right protocol.
const (
	// PortBGP is TCP/179, the IANA BGP port.
	PortBGP uint16 = 179
	// PortOpenFlow is TCP/6633, the classic OpenFlow 1.0 controller port.
	PortOpenFlow uint16 = 6633
)

// firstEphemeral is where fabricated active-opener source ports start
// (the IANA dynamic range), one per session so re-peered sessions stay
// distinct TCP streams.
const firstEphemeral uint16 = 49152

// mss bounds a synthesized segment's payload: control plane writes
// larger than an Ethernet-ish MSS are split into consecutive segments
// with contiguous sequence numbers, as a real stack would send them.
const mss = 1460

// Endpoint identifies one side of an emulated control plane session in
// the synthesized framing.
type Endpoint struct {
	Name string
	MAC  core.MAC
	IP   netip.Addr
	// Port is the TCP port; the passive (well-known) side carries
	// PortBGP or PortOpenFlow, 0 means "assign an ephemeral port".
	Port uint16
}

// Dir names a transfer direction inside a session.
type Dir int

// Session directions: AtoB is a transfer from the session's first
// endpoint to its second.
const (
	AtoB Dir = iota
	BtoA
)

// fileName is the one pcapng file a Capture writes into its directory.
const fileName = "control.pcapng"

// Capture writes one pcapng file, control.pcapng, into a directory: every
// session of the run (each BGP speaker pair's incarnations, each
// switch-controller connection) is one capture interface in it. It is
// safe for concurrent use: one mutex serializes every session's writes,
// which come from the emulated processes' goroutines as they write and
// from the engine goroutine as delayed messages land.
type Capture struct {
	mu        sync.Mutex
	path      string
	f         *os.File // nil once closed
	buf       *bufio.Writer
	w         *Writer
	ephemeral uint16
	// lastTS is the latest stamp written: stamps never run backwards in
	// file order, which is what Validate checks.
	lastTS core.Time
	// frame is where segment builds each Ethernet/IPv4/TCP frame; its
	// array is reused, so recording a segment allocates nothing.
	frame wire.Buffer
	err   error // first deferred I/O error, surfaced by Close
}

// New creates (or reuses) dir and creates the capture file in it.
func New(dir string) (*Capture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	path := filepath.Join(dir, fileName)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	buf := bufio.NewWriter(f)
	w, err := NewWriter(buf)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Capture{path: path, f: f, buf: buf, w: w, ephemeral: firstEphemeral}, nil
}

// nextEphemeral hands out the next fabricated source port, staying in
// the dynamic range: past 65535 it wraps back to firstEphemeral (never
// to 0 or a well-known port). A single pair re-peering >16384 times
// could then reuse a port; real stacks have the same reuse horizon.
// c.mu held.
func (c *Capture) nextEphemeral() uint16 {
	p := c.ephemeral
	c.ephemeral++
	if c.ephemeral == 0 {
		c.ephemeral = firstEphemeral
	}
	return p
}

// Session opens a capture session between a and b, declaring one
// capture interface for it named "<pair> <a>:<port> <-> <b>:<port>". A
// zero Port on either endpoint gets a fresh ephemeral port, so a
// re-peered session (same pair, new transport) becomes a distinct
// interface and TCP stream rather than a seq-number collision. Endpoint
// a is the active opener of the fabricated handshake.
func (c *Capture) Session(pair string, a, b Endpoint) (*Session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil, fmt.Errorf("capture: session %s after Close", pair)
	}
	if a.Port == 0 {
		a.Port = c.nextEphemeral()
	}
	if b.Port == 0 {
		b.Port = c.nextEphemeral()
	}
	iface, err := c.w.AddInterface(fmt.Sprintf("%s %s:%d <-> %s:%d", pair, a.Name, a.Port, b.Name, b.Port))
	if err != nil {
		c.fail(err)
		return nil, err
	}
	return &Session{cap: c, iface: iface, a: a, b: b}, nil
}

// fail records the first deferred write error for Close to surface.
// c.mu held.
func (c *Capture) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Files lists the capture file: one path, control.pcapng in the
// directory, written from New on.
func (c *Capture) Files() []string { return []string{c.path} }

// Dir reports the capture directory.
func (c *Capture) Dir() string { return filepath.Dir(c.path) }

// Close flushes and closes the capture file, returning the first error
// any write encountered. Closing twice is safe (the second call is a
// no-op that re-reports the same error); sessions record nothing after
// Close.
func (c *Capture) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		if err := c.buf.Flush(); err != nil {
			c.fail(err)
		}
		if err := c.f.Close(); err != nil {
			c.fail(err)
		}
		c.f = nil
	}
	return c.err
}

// Session synthesizes one TCP conversation: a fabricated three-way
// handshake stamped at the first delivery, then one PSH/ACK data segment
// per captured control plane write (split at MSS), with sequence and
// acknowledgment numbers accumulated exactly as a real stack would — so
// Wireshark's TCP reassembly (and this package's reader) can stitch the
// multi-message BGP/OpenFlow byte streams back together. Its state is
// guarded by the Capture's mutex.
type Session struct {
	cap   *Capture
	iface int
	a, b  Endpoint

	opened bool
	seq    [2]uint32 // next sequence number per direction (post-handshake: 1)
	ipID   [2]uint16
}

// Data records len(p) control plane bytes delivered in direction d at
// virtual time at. Errors are deferred to Capture.Close — the taps that
// call this have nowhere to report them.
func (s *Session) Data(d Dir, p []byte, at core.Time) {
	if s == nil || len(p) == 0 {
		return
	}
	c := s.cap
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return
	}
	// Stamps never run backwards in file order, the invariant the
	// validator enforces. The engine clock is monotone, but a writer
	// that read it just before another goroutine recorded a later
	// instant takes the mutex second: it is stamped with that instant.
	if at < c.lastTS {
		at = c.lastTS
	}
	c.lastTS = at

	if !s.opened {
		s.opened = true
		s.handshake(at)
	}
	for len(p) > 0 {
		n := min(len(p), mss)
		s.segment(d, wire.TCPPsh|wire.TCPAck, p[:n], at)
		s.seq[d] += uint32(n)
		p = p[n:]
	}
}

// handshake fabricates SYN / SYN-ACK / ACK at the first delivery time;
// endpoint a actively opens. c.mu held.
func (s *Session) handshake(at core.Time) {
	s.segment(AtoB, wire.TCPSyn, nil, at)
	s.seq[AtoB] = 1
	s.segment(BtoA, wire.TCPSyn|wire.TCPAck, nil, at)
	s.seq[BtoA] = 1
	s.segment(AtoB, wire.TCPAck, nil, at)
}

// segment writes one synthesized Ethernet/IPv4/TCP frame, built in the
// capture's reused buffer from stack-held layers. c.mu held.
func (s *Session) segment(d Dir, flags uint8, payload []byte, at core.Time) {
	src, dst := &s.a, &s.b
	if d == BtoA {
		src, dst = dst, src
	}
	c := s.cap
	// The ACK number is the peer's next expected sequence number; before
	// the peer's SYN is counted it is 0 and the ACK flag is clear.
	tcp := wire.TCP{
		SrcPort: src.Port, DstPort: dst.Port,
		Seq: s.seq[d], Ack: s.ack(d, flags),
		Flags: flags, Window: 65535,
	}
	ip := wire.IPv4{Src: src.IP, Dst: dst.IP, Protocol: core.ProtoTCP, TTL: 64, ID: s.ipID[d]}
	eth := wire.Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: wire.EtherTypeIPv4}
	c.frame.Reset()
	_ = wire.Payload(payload).SerializeTo(&c.frame) // cannot fail
	_ = tcp.SerializeTo(&c.frame)                   // cannot fail
	if err := ip.SerializeTo(&c.frame); err != nil {
		c.fail(err)
		return
	}
	_ = eth.SerializeTo(&c.frame) // cannot fail
	s.ipID[d]++
	if err := c.w.WritePacket(s.iface, at, c.frame.Bytes()); err != nil {
		c.fail(err)
	}
}

// ack computes the acknowledgment number for a segment in direction d:
// everything received from the peer so far (0 on the opening SYN, which
// carries no ACK flag).
func (s *Session) ack(d Dir, flags uint8) uint32 {
	if flags&wire.TCPAck == 0 {
		return 0
	}
	return s.seq[1-d]
}
