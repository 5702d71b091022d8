package bgp

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
)

func TestOpenRoundTrip(t *testing.T) {
	o := Open{Version: 4, ASN: 65001, HoldTime: 90, RouterID: netip.MustParseAddr("10.0.0.1")}
	msg, err := Decode(EncodeOpen(o))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgOpen || *msg.Open != o {
		t.Fatalf("round trip %+v", msg.Open)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	msg, err := Decode(EncodeKeepalive())
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgKeepalive {
		t.Fatalf("type = %d", msg.Type)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := Notification{Code: NotifCease, Subcode: 2, Data: []byte("bye")}
	msg, err := Decode(EncodeNotification(n))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Notif.Code != n.Code || msg.Notif.Subcode != n.Subcode || !bytes.Equal(msg.Notif.Data, n.Data) {
		t.Fatalf("round trip %+v", msg.Notif)
	}
	if msg.Notif.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")},
		Attrs: PathAttrs{
			Origin:  OriginIGP,
			ASPath:  []uint16{65001, 65002, 65003},
			NextHop: netip.MustParseAddr("172.16.0.1"),
			MED:     77, HasMED: true,
			LocalPref: 200, HasLP: true,
		},
		NLRI: []netip.Prefix{
			netip.MustParsePrefix("10.0.1.0/24"),
			netip.MustParsePrefix("10.0.2.0/24"),
			netip.MustParsePrefix("10.0.2.5/32"),
		},
	}
	b, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.Upd
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Fatalf("withdrawn = %v", got.Withdrawn)
	}
	if len(got.NLRI) != 3 || got.NLRI[2] != u.NLRI[2] {
		t.Fatalf("nlri = %v", got.NLRI)
	}
	if got.Attrs.Origin != u.Attrs.Origin || got.Attrs.NextHop != u.Attrs.NextHop {
		t.Fatalf("attrs = %+v", got.Attrs)
	}
	if len(got.Attrs.ASPath) != 3 || got.Attrs.ASPath[0] != 65001 {
		t.Fatalf("as path = %v", got.Attrs.ASPath)
	}
	if !got.Attrs.HasMED || got.Attrs.MED != 77 || !got.Attrs.HasLP || got.Attrs.LocalPref != 200 {
		t.Fatalf("med/lp = %+v", got.Attrs)
	}
}

func TestUpdateReflectionAttrsRoundTrip(t *testing.T) {
	// RFC 4456 attributes: ORIGINATOR_ID and a multi-entry CLUSTER_LIST
	// (encoded with extended length) must survive the wire.
	u := Update{
		Attrs: PathAttrs{
			Origin:       OriginIGP,
			NextHop:      netip.MustParseAddr("172.16.0.1"),
			HasLP:        true,
			LocalPref:    100,
			OriginatorID: netip.MustParseAddr("9.9.9.9"),
			ClusterList: []netip.Addr{
				netip.MustParseAddr("1.1.1.1"),
				netip.MustParseAddr("2.2.2.2"),
				netip.MustParseAddr("3.3.3.3"),
			},
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")},
	}
	b, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.Upd
	if got.Attrs.OriginatorID != u.Attrs.OriginatorID {
		t.Fatalf("originator = %v", got.Attrs.OriginatorID)
	}
	if len(got.Attrs.ClusterList) != 3 ||
		got.Attrs.ClusterList[0] != u.Attrs.ClusterList[0] ||
		got.Attrs.ClusterList[2] != u.Attrs.ClusterList[2] {
		t.Fatalf("cluster list = %v", got.Attrs.ClusterList)
	}
	// Absent attributes must stay absent.
	plain, err := EncodeUpdate(Update{
		Attrs: PathAttrs{NextHop: netip.MustParseAddr("172.16.0.1")},
		NLRI:  []netip.Prefix{netip.MustParsePrefix("10.0.2.0/24")},
	})
	if err != nil {
		t.Fatal(err)
	}
	msg2, err := Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	if msg2.Upd.Attrs.OriginatorID.IsValid() || len(msg2.Upd.Attrs.ClusterList) != 0 {
		t.Fatalf("phantom reflection attrs: %+v", msg2.Upd.Attrs)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	b, err := EncodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Upd.Withdrawn) != 1 || len(msg.Upd.NLRI) != 0 {
		t.Fatalf("decode = %+v", msg.Upd)
	}
}

// TestUpdateLongASPathRoundTrip: an AS path of more than 126 ASNs no longer
// fits the one-byte attribute length, and one of more than 255 no longer
// fits one segment; both still come back as they went out.
func TestUpdateLongASPathRoundTrip(t *testing.T) {
	for _, n := range []int{126, 127, 255, 256, 600} {
		path := make([]uint16, n)
		for i := range path {
			path[i] = uint16(64512 + i)
		}
		b, err := EncodeUpdate(Update{
			Attrs: PathAttrs{ASPath: path, NextHop: netip.MustParseAddr("172.16.0.1")},
			NLRI:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		})
		if err != nil {
			t.Fatal(err)
		}
		msg, err := Decode(b)
		if err != nil {
			t.Fatalf("%d ASNs: %v", n, err)
		}
		if !slices.Equal(msg.Upd.Attrs.ASPath, path) {
			t.Fatalf("%d ASNs decoded as %d", n, len(msg.Upd.Attrs.ASPath))
		}
	}
}

func TestUpdateRequiresNextHop(t *testing.T) {
	u := Update{NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	if _, err := EncodeUpdate(u); err == nil {
		t.Fatal("NLRI without next hop encoded")
	}
}

func TestDecodeRejectsBadMarker(t *testing.T) {
	b := EncodeKeepalive()
	b[3] = 0
	if _, err := Decode(b); err == nil {
		t.Fatal("bad marker accepted")
	}
	n, ok := func() (Notification, bool) {
		_, err := Decode(b)
		nt, ok := err.(Notification)
		return nt, ok
	}()
	if !ok || n.Code != NotifMsgHeaderError {
		t.Fatalf("error = %v", n)
	}
}

func TestDecodeRejectsBadLengthAndType(t *testing.T) {
	b := EncodeKeepalive()
	b[17] = 5 // shrink claimed length below header size
	if _, err := Decode(b); err == nil {
		t.Fatal("bad length accepted")
	}
	b = EncodeKeepalive()
	b[18] = 99
	if _, err := Decode(b); err == nil {
		t.Fatal("bad type accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func TestDecodeOpenValidation(t *testing.T) {
	o := Open{Version: 3, ASN: 1, HoldTime: 90, RouterID: netip.MustParseAddr("1.1.1.1")}
	if _, err := Decode(EncodeOpen(o)); err == nil {
		t.Fatal("version 3 accepted")
	}
	o = Open{Version: 4, ASN: 1, HoldTime: 2, RouterID: netip.MustParseAddr("1.1.1.1")}
	if _, err := Decode(EncodeOpen(o)); err == nil {
		t.Fatal("hold time 2 accepted")
	}
}

func TestDecodeUpdateMalformed(t *testing.T) {
	u := Update{
		Attrs: PathAttrs{Origin: OriginIGP, ASPath: []uint16{1}, NextHop: netip.MustParseAddr("1.2.3.4")},
		NLRI:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	good, _ := EncodeUpdate(u)
	// The single NLRI prefix 10.0.0.0/8 occupies the last 2 bytes, so a
	// cut at len-2 removes the NLRI cleanly and leaves a legal
	// attrs-only UPDATE; every other cut must error (and never panic).
	legalCut := len(good) - 2
	for cut := headerLen; cut < len(good); cut++ {
		mangled := append([]byte(nil), good[:cut]...)
		// Fix the header length so the length check passes and the
		// body parser sees the truncation.
		mangled[16] = byte(cut >> 8)
		mangled[17] = byte(cut)
		_, err := Decode(mangled)
		if cut == legalCut {
			if err != nil {
				t.Fatalf("clean NLRI-less truncation rejected: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeUpdateBadPrefixLength(t *testing.T) {
	u := Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	b, _ := EncodeUpdate(u)
	// The withdrawn prefix length byte sits right after withdrawnLen.
	b[headerLen+2] = 33
	if _, err := Decode(b); err == nil {
		t.Fatal("prefix length 33 accepted")
	}
}

func TestReadMessageFraming(t *testing.T) {
	// Two messages back to back through a reader that returns one byte
	// at a time: framing must still hold.
	var stream []byte
	stream = append(stream, EncodeKeepalive()...)
	o := Open{Version: 4, ASN: 7, HoldTime: 90, RouterID: netip.MustParseAddr("7.7.7.7")}
	stream = append(stream, EncodeOpen(o)...)
	r := &dribbleReader{data: stream}
	m1, err := ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Decode(m1)
	if err != nil || d1.Type != MsgKeepalive {
		t.Fatalf("first message %v %v", d1, err)
	}
	m2, err := ReadMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(m2)
	if err != nil || d2.Type != MsgOpen || d2.Open.ASN != 7 {
		t.Fatalf("second message %+v %v", d2, err)
	}
}

type dribbleReader struct {
	data []byte
	off  int
}

func (d *dribbleReader) Read(p []byte) (int, error) {
	if d.off >= len(d.data) {
		return 0, errEOF{}
	}
	p[0] = d.data[d.off]
	d.off++
	return 1, nil
}

type errEOF struct{}

func (errEOF) Error() string { return "EOF" }

func TestPrefixRoundTripProperty(t *testing.T) {
	f := func(v uint32, bits uint8) bool {
		b := int(bits % 33)
		addr := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
		p, err := addr.Prefix(b)
		if err != nil {
			return false
		}
		enc := encodePrefix(nil, p)
		got, rest, err := decodePrefix(enc)
		return err == nil && len(rest) == 0 && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestASN16(t *testing.T) {
	if _, err := ASN16(0); err == nil {
		t.Fatal("ASN 0 accepted")
	}
	if _, err := ASN16(70000); err == nil {
		t.Fatal("32-bit ASN accepted")
	}
	if v, err := ASN16(65001); err != nil || v != 65001 {
		t.Fatalf("ASN16(65001) = %d, %v", v, err)
	}
}

func TestHasASN(t *testing.T) {
	if !hasASN([]uint16{1, 2, 3}, 2) || hasASN([]uint16{1, 2, 3}, 9) {
		t.Fatal("hasASN wrong")
	}
}
