package bgp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/core"
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

// candidates is e's peer paths, by peer address.
func (r *RIB) candidates(e *ribEntry) []*Path {
	var out []*Path
	for i := range r.lists.len(e.peers) {
		out = append(out, r.candidate(e, i))
	}
	return out
}

// checkPathTable fails t unless every slot of r's path table counts
// exactly the references r's entries hold to it, and a slot holds a path
// exactly while it is counted.
func checkPathTable(t *testing.T, r *RIB) {
	t.Helper()
	refs := make([]uint32, len(r.paths.slots))
	r.trie.Walk(func(_ uint32, _ uint8, e *ribEntry) bool {
		if e.local != 0 {
			refs[e.local]++
		}
		for _, l := range []pathList{e.peers, e.selected} {
			for i := range r.lists.len(l) {
				refs[r.lists.at(l, i)]++
			}
		}
		return true
	})
	for id, s := range r.paths.slots {
		if s.refs != refs[id] || (s.refs > 0) != (s.p != nil) {
			t.Fatalf("path %d (%p) counts %d references, the entries hold %d", id, s.p, s.refs, refs[id])
		}
	}
}

// FuzzRIB drives a RIB and refRIB through one sequence of operations over
// 4 peers (the last one iBGP), 3 learned and 2 local attribute sets and 8
// nested prefixes. Each operation is two bytes: the first picks the
// operation (announce, withdraw, SetLocal, DropPeer or Decide), the peer
// and the attribute set, the second the prefix and whether an announcement
// reuses the peer's last Path for that set, as a speaker shares one Path
// across an UPDATE. After every operation the two RIBs agree on what it
// returned and on Best for every prefix, and the path table counts the
// entries' references. Once every peer is dropped and every prefix
// decided, the path table and the attribute pool hold the local routes
// alone: empty when nothing was originated.
func FuzzRIB(f *testing.F) {
	f.Add([]byte{0x00, 0x02, 0x09, 0x02, 0x12, 0x02, 0x1e, 0x02, 0x06, 0x02, 0x05, 0x02, 0x1b, 0x02}, false)
	f.Add([]byte{0x00, 0x12, 0x08, 0x12, 0x28, 0x13, 0x04, 0x12, 0x07, 0x12, 0x03, 0x12, 0x06, 0x12, 0x05, 0x00}, true)
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 1200)
	rng.Read(long)
	f.Add(long, false)
	f.Add(long, true)
	peers := []netip.Addr{addr("172.16.0.1"), addr("172.16.0.3"), addr("172.16.0.5"), addr("172.16.0.7")}
	rids := []netip.Addr{addr("1.1.1.1"), addr("2.2.2.2"), addr("3.3.3.3"), addr("4.4.4.4")}
	sets := []PathAttrs{
		{Origin: OriginIGP, ASPath: []uint16{65001}},
		{Origin: OriginIGP, ASPath: []uint16{65002}, MED: 10, HasMED: true},
		{Origin: OriginEGP, ASPath: []uint16{65001, 65002}, LocalPref: 200, HasLP: true},
	}
	locals := []PathAttrs{{Origin: OriginIGP}, {Origin: OriginIGP, MED: 5, HasMED: true}}
	var universe []netip.Prefix
	for _, s := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
		"10.1.2.128/25", "10.1.3.0/24", "10.2.0.0/16", "192.168.0.0/24"} {
		universe = append(universe, pfx(s))
	}
	f.Fuzz(func(t *testing.T, ops []byte, multipath bool) {
		r, ref := NewRIB(multipath), newRefRIB(multipath)
		var last [4][3]*Path
		agree := func(op string) {
			t.Helper()
			for _, p := range universe {
				if got, want := r.Best(p), ref.Best(p); !samePathSet(got, want) {
					t.Fatalf("after %s: Best(%v) = %v, oracle %v", op, p, got, want)
				}
			}
			checkPathTable(t, r)
		}
		decide := func(p netip.Prefix) {
			t.Helper()
			got, gotCh := r.Decide(p)
			want, wantCh := ref.Decide(p)
			if gotCh != wantCh || !pathSetEqual(got, want) {
				t.Fatalf("Decide(%v) = %v, %v; oracle %v, %v", p, got, gotCh, want, wantCh)
			}
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			k, set, p := int(ops[0]>>3)%4, int(ops[0]>>5)%3, universe[ops[1]%8]
			var op string
			switch ops[0] % 8 {
			case 0, 1, 2:
				op = "announce"
				path := last[k][set]
				if path == nil || ops[1]&0x10 == 0 {
					a := sets[set]
					a.NextHop = peers[k]
					path = &Path{Attrs: r.Intern(a), PeerAddr: peers[k], PeerRouterID: rids[k],
						Port: core.PortID(k + 1), IBGP: k == 3}
					last[k][set] = path
				}
				if got, want := r.UpdateAdjIn(peers[k], p, path), ref.UpdateAdjIn(peers[k], p, path); got != want {
					t.Fatalf("announce(%v, %v) changed %v, oracle %v", peers[k], p, got, want)
				}
			case 3:
				op = "withdraw"
				if got, want := r.UpdateAdjIn(peers[k], p, nil), ref.UpdateAdjIn(peers[k], p, nil); got != want {
					t.Fatalf("withdraw(%v, %v) changed %v, oracle %v", peers[k], p, got, want)
				}
			case 4:
				op = "SetLocal"
				r.SetLocal(p, locals[set%2])
				ref.SetLocal(p, locals[set%2])
			case 5:
				op = "DropPeer"
				if got, want := r.DropPeer(peers[k]), ref.DropPeer(peers[k]); !samePrefixes(got, want) {
					t.Fatalf("DropPeer(%v) = %v, oracle %v", peers[k], got, want)
				}
			default:
				op = "Decide"
				decide(p)
			}
			agree(op)
		}
		for _, peer := range peers {
			got, want := r.DropPeer(peer), ref.DropPeer(peer)
			if !samePrefixes(got, want) {
				t.Fatalf("DropPeer(%v) = %v, oracle %v", peer, got, want)
			}
		}
		// A withdrawal's prefix keeps its selection until it is decided.
		for _, p := range universe {
			decide(p)
		}
		agree("dropping every peer")
		for _, s := range r.paths.slots {
			if s.refs > 0 && !s.p.Local {
				t.Fatalf("a learned path outlived its peers: %+v", s.p)
			}
		}
		attrs := map[*AttrVal]bool{}
		r.trie.Walk(func(_ uint32, _ uint8, e *ribEntry) bool {
			attrs[r.path(e.local).Attrs] = true
			return true
		})
		if r.AttrSets() != len(attrs) {
			t.Fatalf("the attribute pool holds %d sets, the local routes %d", r.AttrSets(), len(attrs))
		}
	})
}
