// Package bgp implements a BGP-4 speaker (RFC 4271 subset) sufficient to
// emulate datacenter and WAN routing control planes: OPEN / UPDATE /
// KEEPALIVE / NOTIFICATION wire codecs, the session finite state machine,
// Adj-RIB-In / Loc-RIB with the standard decision process, ECMP multipath
// selection, and route propagation with AS-path loop prevention. WAN
// scenarios add iBGP with route reflection (RFC 4456: client sessions,
// ORIGINATOR_ID / CLUSTER_LIST loop prevention — see speaker.go) and
// route flap dampening (RFC 2439 subset — see dampening.go).
//
// In the original Horse the routers run Quagga; here the speaker is
// native Go but still exchanges real RFC 4271 bytes over a real duplex
// stream in real time, so the Connection Manager observes the same
// control plane activity pattern (Figure 1 of the paper: OPEN packets
// trigger DES->FTI, convergence keeps FTI, quiescence returns to DES).
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
)

// Message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Header and message size constraints.
const (
	headerLen  = 19
	markerLen  = 16
	maxMsgLen  = 4096
	bgpVersion = 4
)

// Path attribute type codes (RFC 4271 §4.3 / §5, plus the RFC 4456
// route-reflection attributes).
const (
	attrOrigin       = 1
	attrASPath       = 2
	attrNextHop      = 3
	attrMED          = 4
	attrLocalPref    = 5
	attrOriginatorID = 9
	attrClusterList  = 10
)

// Origin values.
const (
	OriginIGP        uint8 = 0
	OriginEGP        uint8 = 1
	OriginIncomplete uint8 = 2
)

// AS path segment types.
const (
	asSet      = 1
	asSequence = 2
)

// Notification error codes (RFC 4271 §4.5), subset.
const (
	NotifMsgHeaderError   = 1
	NotifOpenError        = 2
	NotifUpdateError      = 3
	NotifHoldTimerExpired = 4
	NotifFSMError         = 5
	NotifCease            = 6
)

// Open is the OPEN message body.
type Open struct {
	Version  uint8
	ASN      uint16
	HoldTime uint16 // seconds
	RouterID netip.Addr
}

// Update is the UPDATE message body: withdrawn routes, path attributes,
// and announced NLRI sharing those attributes.
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     PathAttrs
	NLRI      []netip.Prefix
}

// PathAttrs are the path attributes Horse's decision process consumes.
type PathAttrs struct {
	Origin    uint8
	ASPath    []uint16 // AS_SEQUENCE, left-most = most recent
	NextHop   netip.Addr
	MED       uint32
	LocalPref uint32
	HasMED    bool
	HasLP     bool

	// OriginatorID (RFC 4456) is the router ID of the speaker that
	// first injected the route into the iBGP mesh; set by a route
	// reflector on reflection, invalid when absent. A speaker that sees
	// its own router ID here drops the route (reflection loop).
	OriginatorID netip.Addr
	// ClusterList (RFC 4456) records the reflection clusters the route
	// has traversed, most recent first. A reflector that finds its own
	// cluster ID in the list drops the route.
	ClusterList []netip.Addr
}

// Notification is the NOTIFICATION message body.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Error makes Notification usable as the error a session dies with.
func (n Notification) Error() string {
	return fmt.Sprintf("bgp: notification code=%d subcode=%d", n.Code, n.Subcode)
}

// Message is a decoded BGP message: exactly one of the fields is non-nil
// (Keepalive has no body and is represented by Type alone).
type Message struct {
	Type  uint8
	Open  *Open
	Upd   *Update
	Notif *Notification
}

// appendHeader writes the 19-byte header for a message of the given total
// length and type.
func appendHeader(b []byte, length int, typ uint8) []byte {
	for i := 0; i < markerLen; i++ {
		b = append(b, 0xFF)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(length))
	return append(b, typ)
}

// EncodeOpen serializes an OPEN message.
func EncodeOpen(o Open) []byte {
	body := make([]byte, 0, 10)
	body = append(body, o.Version)
	body = binary.BigEndian.AppendUint16(body, o.ASN)
	body = binary.BigEndian.AppendUint16(body, o.HoldTime)
	rid := o.RouterID.As4()
	body = append(body, rid[:]...)
	body = append(body, 0) // no optional parameters
	msg := appendHeader(nil, headerLen+len(body), MsgOpen)
	return append(msg, body...)
}

// EncodeKeepalive serializes a KEEPALIVE message.
func EncodeKeepalive() []byte {
	return appendHeader(nil, headerLen, MsgKeepalive)
}

// EncodeNotification serializes a NOTIFICATION message.
func EncodeNotification(n Notification) []byte {
	msg := appendHeader(nil, headerLen+2+len(n.Data), MsgNotification)
	msg = append(msg, n.Code, n.Subcode)
	return append(msg, n.Data...)
}

// encodePrefix writes a prefix in NLRI form (length byte + minimal bytes).
func encodePrefix(b []byte, p netip.Prefix) []byte {
	bits := p.Bits()
	b = append(b, byte(bits))
	a4 := p.Masked().Addr().As4()
	return append(b, a4[:(bits+7)/8]...)
}

// decodePrefix reads one NLRI prefix, returning it and the remaining
// bytes.
func decodePrefix(b []byte) (netip.Prefix, []byte, error) {
	if len(b) < 1 {
		return netip.Prefix{}, nil, fmt.Errorf("bgp: truncated NLRI")
	}
	bits := int(b[0])
	if bits > 32 {
		return netip.Prefix{}, nil, fmt.Errorf("bgp: NLRI prefix length %d", bits)
	}
	n := (bits + 7) / 8
	if len(b) < 1+n {
		return netip.Prefix{}, nil, fmt.Errorf("bgp: truncated NLRI body")
	}
	var a [4]byte
	copy(a[:], b[1:1+n])
	p := netip.PrefixFrom(netip.AddrFrom4(a), bits)
	return p.Masked(), b[1+n:], nil
}

// decodePrefixes reads a whole NLRI-form prefix list into a slice sized
// by counting the length bytes first: a full UPDATE carries a thousand
// prefixes, and growing the list by doubling allocates it twice over.
func decodePrefixes(b []byte) ([]netip.Prefix, error) {
	if len(b) == 0 {
		return nil, nil
	}
	n := 0
	for rest := b; len(rest) > 0; n++ {
		step := 1 + (int(rest[0])+7)/8
		if step > len(rest) {
			break // truncated: decodePrefix reports it below
		}
		rest = rest[step:]
	}
	out := make([]netip.Prefix, 0, n)
	for len(b) > 0 {
		p, rest, err := decodePrefix(b)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		b = rest
	}
	return out, nil
}

// errNoNextHop is what encoding an announcement without an IPv4 next hop
// returns.
var errNoNextHop = errors.New("bgp: update with NLRI requires IPv4 next hop")

// asPathSegLen is the length of the AS_SEQUENCE segments carrying n ASNs:
// segments of up to 255, none for an empty path.
func asPathSegLen(n int) int { return 2*((n+254)/255) + 2*n }

// attrsLen is the length of the attribute block appendAttrs writes for a.
func attrsLen(a PathAttrs) int {
	n := 4 + 7 // ORIGIN, NEXT_HOP
	if seg := asPathSegLen(len(a.ASPath)); seg > 255 {
		n += 4 + seg
	} else {
		n += 3 + seg
	}
	if a.HasMED {
		n += 7
	}
	if a.HasLP {
		n += 7
	}
	if a.OriginatorID.Is4() {
		n += 7
	}
	if len(a.ClusterList) > 0 {
		n += 4 + 4*len(a.ClusterList)
	}
	return n
}

// appendAttrs appends one path-attribute set (the attribute block of an
// UPDATE) to dst. The next hop must be IPv4.
func appendAttrs(dst []byte, a PathAttrs) []byte {
	// ORIGIN: flags 0x40 (well-known transitive).
	dst = append(dst, 0x40, attrOrigin, 1, a.Origin)
	// AS_PATH: AS_SEQUENCE segments of up to 255 ASNs, in an
	// extended-length attribute once they pass 255 bytes.
	if seg := asPathSegLen(len(a.ASPath)); seg > 255 {
		dst = append(dst, 0x50, attrASPath)
		dst = binary.BigEndian.AppendUint16(dst, uint16(seg))
	} else {
		dst = append(dst, 0x40, attrASPath, byte(seg))
	}
	for path := a.ASPath; len(path) > 0; {
		n := min(len(path), 255)
		dst = append(dst, asSequence, byte(n))
		for _, asn := range path[:n] {
			dst = binary.BigEndian.AppendUint16(dst, asn)
		}
		path = path[n:]
	}
	// NEXT_HOP.
	nh := a.NextHop.As4()
	dst = append(dst, 0x40, attrNextHop, 4)
	dst = append(dst, nh[:]...)
	if a.HasMED {
		dst = append(dst, 0x80, attrMED, 4) // optional non-transitive
		dst = binary.BigEndian.AppendUint32(dst, a.MED)
	}
	if a.HasLP {
		dst = append(dst, 0x40, attrLocalPref, 4)
		dst = binary.BigEndian.AppendUint32(dst, a.LocalPref)
	}
	if a.OriginatorID.Is4() {
		oid := a.OriginatorID.As4()
		dst = append(dst, 0x80, attrOriginatorID, 4) // optional non-transitive
		dst = append(dst, oid[:]...)
	}
	if len(a.ClusterList) > 0 {
		// Extended length: a deep reflection hierarchy can push the
		// list past the 255-byte short form.
		dst = append(dst, 0x90, attrClusterList)
		dst = binary.BigEndian.AppendUint16(dst, uint16(4*len(a.ClusterList)))
		for _, c := range a.ClusterList {
			c4 := c.As4()
			dst = append(dst, c4[:]...)
		}
	}
	return dst
}

// EncodeUpdate serializes an UPDATE message. Attributes are included only
// when NLRI is announced.
func EncodeUpdate(u Update) ([]byte, error) {
	var withdrawn []byte
	for _, p := range u.Withdrawn {
		withdrawn = encodePrefix(withdrawn, p)
	}
	var attrs []byte
	if len(u.NLRI) > 0 {
		if !u.Attrs.NextHop.Is4() {
			return nil, errNoNextHop
		}
		attrs = appendAttrs(nil, u.Attrs)
	}
	var nlri []byte
	for _, p := range u.NLRI {
		nlri = encodePrefix(nlri, p)
	}
	total := headerLen + 2 + len(withdrawn) + 2 + len(attrs) + len(nlri)
	if total > maxMsgLen {
		return nil, fmt.Errorf("bgp: update too large (%d bytes)", total)
	}
	msg := appendHeader(nil, total, MsgUpdate)
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(withdrawn)))
	msg = append(msg, withdrawn...)
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(attrs)))
	msg = append(msg, attrs...)
	return append(msg, nlri...), nil
}

// UpdateGroup is one attribute-sharing announcement batch for
// PackUpdates: every NLRI prefix is advertised with Attrs.
type UpdateGroup struct {
	Attrs PathAttrs
	NLRI  []netip.Prefix
}

// PackUpdates encodes a flush batch — shared withdrawals plus
// announcement groups — into the minimum number of UPDATE messages. An
// UPDATE carries one path-attribute set, so each group needs at least
// one message, but many NLRIs (and the pending withdrawals) ride in it:
// the withdrawals fill the front of the first messages, and each
// group's NLRI packs until the 4096-byte message limit forces a split.
// With G attribute groups and everything fitting, exactly max(G, 1)
// messages come out — O(attr-groups), not O(prefixes). The messages share
// one backing array.
func PackUpdates(withdrawn []netip.Prefix, groups []UpdateGroup) ([][]byte, error) {
	buf, err := appendUpdates(nil, withdrawn, groups)
	if err != nil {
		return nil, err
	}
	var msgs [][]byte
	for len(buf) > 0 {
		n := msgLen(buf)
		msgs = append(msgs, buf[:n:n])
		buf = buf[n:]
	}
	return msgs, nil
}

// growMsg makes room in dst for one more message — one prefix over the
// limit, which the packer's last try may write before it backs it out —
// doubling the array rather than growing it by append's quarter, so a
// full table's flush copies its bytes twice over instead of five times.
func growMsg(dst []byte) []byte {
	if cap(dst)-len(dst) < maxMsgLen+maxPrefixEnc {
		dst = slices.Grow(dst, max(len(dst), maxMsgLen+maxPrefixEnc))
	}
	return dst
}

// msgLen is the length field of the message header b starts with.
func msgLen(b []byte) int { return int(binary.BigEndian.Uint16(b[16:18])) }

// appendUpdates is PackUpdates writing its messages end to end onto dst.
// Each group's attribute block is encoded once, into the group's first
// message, and copied into the messages its NLRI splits over. On error
// what dst holds past its original length is unspecified.
func appendUpdates(dst []byte, withdrawn []netip.Prefix, groups []UpdateGroup) ([]byte, error) {
	wi := 0 // next withdrawn prefix to place
	// appendWithdrawn appends a withdrawn-routes field: its length, then
	// the withdrawals from wi on, as many as fit in budget bytes with room
	// bytes to spare.
	appendWithdrawn := func(dst []byte, budget, room int) []byte {
		at := len(dst)
		dst = append(dst, 0, 0)
		for ; wi < len(withdrawn); wi++ {
			n := len(dst)
			if dst = encodePrefix(dst, withdrawn[wi]); len(dst)-at-2+room > budget {
				dst = dst[:n]
				break
			}
		}
		binary.BigEndian.PutUint16(dst[at:], uint16(len(dst)-at-2))
		return dst
	}
	for _, g := range groups {
		if len(g.NLRI) == 0 {
			continue
		}
		if !g.Attrs.NextHop.Is4() {
			return dst, errNoNextHop
		}
		alen := attrsLen(g.Attrs)
		if headerLen+4+alen+maxPrefixEnc > maxMsgLen {
			return dst, fmt.Errorf("bgp: attributes too large to pack (%d bytes)", alen)
		}
		budget := maxMsgLen - headerLen - 4 - alen
		attrs := -1 // offset of the group's encoded attribute block in dst
		for ni := 0; ni < len(g.NLRI); {
			dst = growMsg(dst)
			m := len(dst)
			dst = appendHeader(dst, 0, MsgUpdate)
			// Withdrawals first (they fit wherever room remains; the
			// receiver processes them before the same message's NLRI),
			// always leaving room for one NLRI prefix, or the attrs block
			// would ship without announcements.
			dst = appendWithdrawn(dst, budget, maxPrefixEnc)
			dst = binary.BigEndian.AppendUint16(dst, uint16(alen))
			if attrs < 0 {
				attrs = len(dst)
				dst = appendAttrs(dst, g.Attrs)
			} else {
				dst = append(dst, dst[attrs:attrs+alen]...)
			}
			for ; ni < len(g.NLRI); ni++ {
				n := len(dst)
				if dst = encodePrefix(dst, g.NLRI[ni]); len(dst)-m-headerLen-4-alen > budget {
					dst = dst[:n]
					break
				}
			}
			binary.BigEndian.PutUint16(dst[m+markerLen:], uint16(len(dst)-m))
		}
	}
	// Leftover withdrawals (no groups, or no room left): withdraw-only
	// messages.
	for wi < len(withdrawn) {
		dst = growMsg(dst)
		m := len(dst)
		dst = appendHeader(dst, 0, MsgUpdate)
		dst = appendWithdrawn(dst, maxMsgLen-headerLen-4, 0)
		dst = binary.BigEndian.AppendUint16(dst, 0)
		binary.BigEndian.PutUint16(dst[m+markerLen:], uint16(len(dst)-m))
	}
	return dst, nil
}

// maxPrefixEnc is the NLRI encoding size of a /32 (length byte + 4).
const maxPrefixEnc = 5

// Decode parses one complete BGP message from buf (which must contain
// exactly one message, header included).
func Decode(buf []byte) (*Message, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("bgp: short message (%d bytes)", len(buf))
	}
	for i := 0; i < markerLen; i++ {
		if buf[i] != 0xFF {
			return nil, Notification{Code: NotifMsgHeaderError, Subcode: 1} // connection not synchronized
		}
	}
	length := int(binary.BigEndian.Uint16(buf[16:18]))
	typ := buf[18]
	if length != len(buf) || length < headerLen || length > maxMsgLen {
		return nil, Notification{Code: NotifMsgHeaderError, Subcode: 2} // bad message length
	}
	body := buf[headerLen:]
	switch typ {
	case MsgOpen:
		return decodeOpen(body)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, Notification{Code: NotifMsgHeaderError, Subcode: 2}
		}
		return &Message{Type: MsgKeepalive}, nil
	case MsgUpdate:
		return decodeUpdate(body)
	case MsgNotification:
		if len(body) < 2 {
			return nil, fmt.Errorf("bgp: truncated notification")
		}
		return &Message{Type: MsgNotification, Notif: &Notification{
			Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...),
		}}, nil
	default:
		return nil, Notification{Code: NotifMsgHeaderError, Subcode: 3} // bad message type
	}
}

func decodeOpen(body []byte) (*Message, error) {
	if len(body) < 10 {
		return nil, Notification{Code: NotifOpenError, Subcode: 0}
	}
	o := &Open{
		Version:  body[0],
		ASN:      binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		RouterID: netip.AddrFrom4([4]byte(body[5:9])),
	}
	if o.Version != bgpVersion {
		return nil, Notification{Code: NotifOpenError, Subcode: 1} // unsupported version
	}
	// Hold time of 1 or 2 seconds is illegal (RFC 4271 §6.2).
	if o.HoldTime == 1 || o.HoldTime == 2 {
		return nil, Notification{Code: NotifOpenError, Subcode: 6}
	}
	optLen := int(body[9])
	if len(body) != 10+optLen {
		return nil, Notification{Code: NotifOpenError, Subcode: 0}
	}
	return &Message{Type: MsgOpen, Open: o}, nil
}

func decodeUpdate(body []byte) (*Message, error) {
	u := &Update{}
	if len(body) < 2 {
		return nil, Notification{Code: NotifUpdateError, Subcode: 1}
	}
	wlen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < wlen {
		return nil, Notification{Code: NotifUpdateError, Subcode: 1}
	}
	var err error
	if u.Withdrawn, err = decodePrefixes(body[:wlen]); err != nil {
		return nil, Notification{Code: NotifUpdateError, Subcode: 10}
	}
	body = body[wlen:]
	if len(body) < 2 {
		return nil, Notification{Code: NotifUpdateError, Subcode: 1}
	}
	alen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < alen {
		return nil, Notification{Code: NotifUpdateError, Subcode: 1}
	}
	attrs := body[:alen]
	nlri := body[alen:]
	seenNextHop := false
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return nil, Notification{Code: NotifUpdateError, Subcode: 1}
		}
		flags := attrs[0]
		typ := attrs[1]
		var alen int
		var val []byte
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 1}
			}
			alen = int(binary.BigEndian.Uint16(attrs[2:4]))
			if len(attrs) < 4+alen {
				return nil, Notification{Code: NotifUpdateError, Subcode: 1}
			}
			val = attrs[4 : 4+alen]
			attrs = attrs[4+alen:]
		} else {
			alen = int(attrs[2])
			if len(attrs) < 3+alen {
				return nil, Notification{Code: NotifUpdateError, Subcode: 1}
			}
			val = attrs[3 : 3+alen]
			attrs = attrs[3+alen:]
		}
		switch typ {
		case attrOrigin:
			if len(val) != 1 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			u.Attrs.Origin = val[0]
		case attrASPath:
			for len(val) > 0 {
				if len(val) < 2 {
					return nil, Notification{Code: NotifUpdateError, Subcode: 11}
				}
				segType, count := val[0], int(val[1])
				if len(val) < 2+2*count {
					return nil, Notification{Code: NotifUpdateError, Subcode: 11}
				}
				if segType != asSequence && segType != asSet {
					return nil, Notification{Code: NotifUpdateError, Subcode: 11}
				}
				for i := 0; i < count; i++ {
					u.Attrs.ASPath = append(u.Attrs.ASPath, binary.BigEndian.Uint16(val[2+2*i:4+2*i]))
				}
				val = val[2+2*count:]
			}
		case attrNextHop:
			if len(val) != 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 8}
			}
			u.Attrs.NextHop = netip.AddrFrom4([4]byte(val))
			seenNextHop = true
		case attrMED:
			if len(val) != 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			u.Attrs.MED = binary.BigEndian.Uint32(val)
			u.Attrs.HasMED = true
		case attrLocalPref:
			if len(val) != 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			u.Attrs.LocalPref = binary.BigEndian.Uint32(val)
			u.Attrs.HasLP = true
		case attrOriginatorID:
			if len(val) != 4 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			u.Attrs.OriginatorID = netip.AddrFrom4([4]byte(val))
		case attrClusterList:
			if len(val)%4 != 0 {
				return nil, Notification{Code: NotifUpdateError, Subcode: 5}
			}
			for i := 0; i+4 <= len(val); i += 4 {
				u.Attrs.ClusterList = append(u.Attrs.ClusterList, netip.AddrFrom4([4]byte(val[i:i+4])))
			}
		default:
			// Unrecognized optional attributes are ignored (we do not
			// propagate unknown transitives: Horse's scenarios are
			// single-implementation).
		}
	}
	if u.NLRI, err = decodePrefixes(nlri); err != nil {
		return nil, Notification{Code: NotifUpdateError, Subcode: 10}
	}
	if len(u.NLRI) > 0 && !seenNextHop {
		return nil, Notification{Code: NotifUpdateError, Subcode: 3} // missing well-known attribute
	}
	return &Message{Type: MsgUpdate, Upd: u}, nil
}

// ReadMessage reads exactly one BGP message from r (blocking), returning
// the raw bytes of the full message.
func ReadMessage(r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	msg, err := appendMessage(nil, r)
	if err != nil {
		return nil, err
	}
	return msg, nil
}

// appendMessage reads exactly one BGP message from r and appends it to
// dst. A header whose length is out of range is the RFC 4271 §6.1 Bad
// Message Length error, and nothing is read past it.
func appendMessage(dst []byte, r interface{ Read([]byte) (int, error) }) ([]byte, error) {
	at := len(dst)
	dst = slices.Grow(dst, headerLen)[:at+headerLen]
	if err := readFull(r, dst[at:]); err != nil {
		return dst[:at], err
	}
	length := msgLen(dst[at:])
	if length < headerLen || length > maxMsgLen {
		return dst[:at], Notification{Code: NotifMsgHeaderError, Subcode: 2}
	}
	dst = slices.Grow(dst, length-headerLen)[:at+length]
	if err := readFull(r, dst[at+headerLen:]); err != nil {
		return dst[:at], err
	}
	return dst, nil
}

func readFull(r interface{ Read([]byte) (int, error) }, b []byte) error {
	for off := 0; off < len(b); {
		n, err := r.Read(b[off:])
		off += n
		if err != nil && off < len(b) {
			return err
		}
		if n == 0 && err != nil {
			return err
		}
	}
	return nil
}

// hasASN reports whether path contains asn (loop detection).
func hasASN(path []uint16, asn uint16) bool {
	for _, a := range path {
		if a == asn {
			return true
		}
	}
	return false
}

// ASN16 converts a configured 32-bit ASN to the 2-octet wire form,
// rejecting values that do not fit (Horse scenarios use private 16-bit
// ASNs, as RFC 7938 datacenters commonly do).
func ASN16(asn uint32) (uint16, error) {
	if asn == 0 || asn > 0xFFFF {
		return 0, fmt.Errorf("bgp: ASN %d not representable in 2 octets", asn)
	}
	return uint16(asn), nil
}
