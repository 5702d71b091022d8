package bgp

import (
	"bytes"
	"net/netip"
	"testing"
)

// encodeMessage is the encoder of a decoded message's type.
func encodeMessage(m *Message) ([]byte, error) {
	switch m.Type {
	case MsgOpen:
		return EncodeOpen(*m.Open), nil
	case MsgUpdate:
		return EncodeUpdate(*m.Upd)
	case MsgNotification:
		return EncodeNotification(*m.Notif), nil
	default:
		return EncodeKeepalive(), nil
	}
}

// FuzzDecode runs arbitrary bytes through Decode, which must not panic on
// any of them. Whatever decodes must encode, the encoding must decode, and
// from there encoding is a fixed point: encode(decode(x)) comes back
// unchanged through decode and encode. It is not the identity on x, since
// the encoders keep only what the speaker reads — no OPEN optional
// parameters, no unknown attribute, the AS path as one AS_SEQUENCE, and no
// attributes on an UPDATE that announces nothing.
func FuzzDecode(f *testing.F) {
	f.Add(EncodeOpen(Open{Version: 4, ASN: 65001, HoldTime: 90, RouterID: netip.MustParseAddr("1.1.1.1")}))
	f.Add(EncodeKeepalive())
	f.Add(EncodeNotification(Notification{Code: NotifUpdateError, Subcode: 11, Data: []byte{2, 1}}))
	for _, u := range []Update{
		{Withdrawn: []netip.Prefix{pfx("10.0.0.0/8"), pfx("192.168.1.0/24")}},
		{
			Withdrawn: []netip.Prefix{pfx("10.9.0.0/16")},
			Attrs: PathAttrs{
				Origin: OriginEGP, ASPath: []uint16{65002, 65010}, NextHop: addr("172.16.0.1"),
				MED: 7, HasMED: true, LocalPref: 200, HasLP: true,
				OriginatorID: addr("9.9.9.9"), ClusterList: []netip.Addr{addr("2.2.2.2"), addr("3.3.3.3")},
			},
			NLRI: []netip.Prefix{pfx("0.0.0.0/0"), pfx("10.1.0.0/24"), pfx("10.1.1.1/32")},
		},
		{Attrs: PathAttrs{ASPath: make([]uint16, 300), NextHop: addr("172.16.0.1")}, NLRI: []netip.Prefix{pfx("10.2.0.0/16")}},
	} {
		b, err := EncodeUpdate(u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		once, err := encodeMessage(m)
		if err != nil {
			t.Fatalf("decoded %+v does not encode: %v", m, err)
		}
		back, err := Decode(once)
		if err != nil {
			t.Fatalf("the encoding of a decoded message does not decode: %v\n% x", err, once)
		}
		twice, err := encodeMessage(back)
		if err != nil {
			t.Fatalf("decoded %+v does not encode a second time: %v", back, err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n% x\n% x", once, twice)
		}
	})
}
