package bgp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
)

// attrsKey is an attribute set's canonical key as a string.
func attrsKey(a PathAttrs) string { return string(appendAttrsKey(nil, a)) }

// outgoingAttrs is outgoing on a scratch of its own.
func (x *session) outgoingAttrs(path *Path) PathAttrs { return x.outgoing(new(flushScratch), path) }

// oracleAttrs is the attribute encoder PackUpdates was written against: one
// fresh slice per attribute set, and the AS path built in a slice of its
// own before its length is known.
func oracleAttrs(a PathAttrs) ([]byte, error) {
	if !a.NextHop.Is4() {
		return nil, fmt.Errorf("bgp: update with NLRI requires IPv4 next hop")
	}
	var attrs []byte
	attrs = append(attrs, 0x40, attrOrigin, 1, a.Origin)
	var seg []byte
	for path := a.ASPath; len(path) > 0; {
		n := min(len(path), 255)
		seg = append(seg, asSequence, byte(n))
		for _, asn := range path[:n] {
			seg = binary.BigEndian.AppendUint16(seg, asn)
		}
		path = path[n:]
	}
	if len(seg) > 255 {
		attrs = append(attrs, 0x50, attrASPath)
		attrs = binary.BigEndian.AppendUint16(attrs, uint16(len(seg)))
	} else {
		attrs = append(attrs, 0x40, attrASPath, byte(len(seg)))
	}
	attrs = append(attrs, seg...)
	nh := a.NextHop.As4()
	attrs = append(attrs, 0x40, attrNextHop, 4)
	attrs = append(attrs, nh[:]...)
	if a.HasMED {
		attrs = append(attrs, 0x80, attrMED, 4)
		attrs = binary.BigEndian.AppendUint32(attrs, a.MED)
	}
	if a.HasLP {
		attrs = append(attrs, 0x40, attrLocalPref, 4)
		attrs = binary.BigEndian.AppendUint32(attrs, a.LocalPref)
	}
	if a.OriginatorID.Is4() {
		oid := a.OriginatorID.As4()
		attrs = append(attrs, 0x80, attrOriginatorID, 4)
		attrs = append(attrs, oid[:]...)
	}
	if len(a.ClusterList) > 0 {
		attrs = append(attrs, 0x90, attrClusterList)
		attrs = binary.BigEndian.AppendUint16(attrs, uint16(4*len(a.ClusterList)))
		for _, c := range a.ClusterList {
			c4 := c.As4()
			attrs = append(attrs, c4[:]...)
		}
	}
	return attrs, nil
}

// oraclePack is the per-message packer PackUpdates replaced: every message
// is built in slices of its own, withdrawals and NLRI encoded before the
// message is assembled around them.
func oraclePack(withdrawn []netip.Prefix, groups []UpdateGroup) ([][]byte, error) {
	var msgs [][]byte
	wi := 0
	for _, g := range groups {
		if len(g.NLRI) == 0 {
			continue
		}
		attrs, err := oracleAttrs(g.Attrs)
		if err != nil {
			return nil, err
		}
		if headerLen+4+len(attrs)+maxPrefixEnc > maxMsgLen {
			return nil, fmt.Errorf("bgp: attributes too large to pack (%d bytes)", len(attrs))
		}
		ni := 0
		for ni < len(g.NLRI) {
			var wd, nlri []byte
			budget := maxMsgLen - headerLen - 4 - len(attrs)
			for wi < len(withdrawn) {
				next := encodePrefix(wd, withdrawn[wi])
				if len(next)+maxPrefixEnc > budget {
					break
				}
				wd = next
				wi++
			}
			for ni < len(g.NLRI) {
				next := encodePrefix(nlri, g.NLRI[ni])
				if len(wd)+len(next) > budget {
					break
				}
				nlri = next
				ni++
			}
			total := headerLen + 2 + len(wd) + 2 + len(attrs) + len(nlri)
			msg := appendHeader(nil, total, MsgUpdate)
			msg = binary.BigEndian.AppendUint16(msg, uint16(len(wd)))
			msg = append(msg, wd...)
			msg = binary.BigEndian.AppendUint16(msg, uint16(len(attrs)))
			msg = append(msg, attrs...)
			msgs = append(msgs, append(msg, nlri...))
		}
	}
	for wi < len(withdrawn) {
		var wd []byte
		budget := maxMsgLen - headerLen - 4
		for wi < len(withdrawn) {
			next := encodePrefix(wd, withdrawn[wi])
			if len(next) > budget {
				break
			}
			wd = next
			wi++
		}
		total := headerLen + 2 + len(wd) + 2
		msg := appendHeader(nil, total, MsgUpdate)
		msg = binary.BigEndian.AppendUint16(msg, uint16(len(wd)))
		msg = append(msg, wd...)
		msg = binary.BigEndian.AppendUint16(msg, 0)
		msgs = append(msgs, msg)
	}
	return msgs, nil
}

// randPrefixes draws n prefixes of every length from /0 to /32.
func randPrefixes(rng *rand.Rand, n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], rng.Uint32())
		out[i] = netip.PrefixFrom(netip.AddrFrom4(a), rng.Intn(33)).Masked()
	}
	return out
}

// randAddr draws one of n IPv4 addresses.
func randAddr(rng *rand.Rand, n int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + rng.Intn(n))})
}

// randAttrs draws an attribute set from small domains, so that sets tie or
// differ in a single field often. Every field is drawn, whatever the
// wire makes of it.
func randAttrs(rng *rand.Rand, maxPath int) PathAttrs {
	a := PathAttrs{Origin: uint8(rng.Intn(3)), NextHop: randAddr(rng, 2)}
	if rng.Intn(8) == 0 {
		a.NextHop = netip.Addr{}
	}
	a.ASPath = make([]uint16, rng.Intn(maxPath+1))
	for i := range a.ASPath {
		a.ASPath[i] = uint16(65000 + rng.Intn(2))
	}
	a.HasMED, a.MED = rng.Intn(2) == 0, uint32(rng.Intn(2)*10)
	a.HasLP, a.LocalPref = rng.Intn(2) == 0, uint32(100+rng.Intn(2)*100)
	if rng.Intn(2) == 0 {
		a.OriginatorID = randAddr(rng, 2)
	}
	for n := rng.Intn(3); n > 0; n-- {
		a.ClusterList = append(a.ClusterList, randAddr(rng, 2))
	}
	return a
}

// TestPackUpdatesMatchesPerMessagePacker holds PackUpdates to the packer it
// replaced, byte for byte, over seeded batches: withdraw-only flushes,
// groups without NLRI, groups that split at 4096 bytes, AS paths past 255
// ASNs (an extended-length attribute in two segments), cluster lists and
// prefixes of every length. A batch one packer refuses the other refuses.
func TestPackUpdatesMatchesPerMessagePacker(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 400; trial++ {
		wd := randPrefixes(rng, []int{0, 3, 40, 1500}[rng.Intn(4)])
		groups := make([]UpdateGroup, rng.Intn(6))
		for g := range groups {
			groups[g].Attrs = randAttrs(rng, []int{3, 300}[rng.Intn(2)])
			groups[g].NLRI = randPrefixes(rng, []int{0, 1, 9, 1200}[rng.Intn(4)])
			if rng.Intn(40) == 0 {
				groups[g].Attrs.ClusterList = make([]netip.Addr, 1100) // over the limit
				for i := range groups[g].Attrs.ClusterList {
					groups[g].Attrs.ClusterList[i] = addr("9.9.9.9")
				}
			}
		}
		want, wantErr := oraclePack(wd, groups)
		got, err := PackUpdates(wd, groups)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d: error %v, the per-message packer's %v", trial, err, wantErr)
		}
		if err != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d messages, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("trial %d: message %d differs:\n got  % x\n want % x", trial, i, got[i], want[i])
			}
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestCompareAttrsOrdersLikeAttrsKey: compareAttrs is the order of the
// keys, without the keys — over random sets, and over pairs that differ
// only in whether LOCAL_PREF is present, only in MED, or by an AS path
// that is a prefix of the other's.
func TestCompareAttrsOrdersLikeAttrsKey(t *testing.T) {
	check := func(a, b PathAttrs) {
		t.Helper()
		if got, want := sign(compareAttrs(&a, &b)), strings.Compare(attrsKey(a), attrsKey(b)); got != want {
			t.Fatalf("compareAttrs = %d, keys compare %d:\n a %+v\n b %+v", got, want, a, b)
		}
	}
	base := PathAttrs{Origin: OriginIGP, ASPath: []uint16{65001, 65002}, NextHop: addr("172.16.0.1")}
	lp := base
	lp.HasLP = true // LocalPref 0: only the flag differs
	med, med10 := base, base
	med.HasMED = true
	med10.HasMED, med10.MED = true, 10
	short := base
	short.ASPath = base.ASPath[:1]
	for _, p := range [][2]PathAttrs{{base, lp}, {base, med}, {med, med10}, {base, short}} {
		check(p[0], p[1])
		check(p[1], p[0])
		check(p[0], p[0])
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 20000; i++ {
		check(randAttrs(rng, 3), randAttrs(rng, 3))
	}
}

// TestDecodeKeepsNothingOfItsInput: a decoded message does not change when
// its input buffer is overwritten — the property a session's one read
// buffer rests on.
func TestDecodeKeepsNothingOfItsInput(t *testing.T) {
	upd, err := EncodeUpdate(Update{
		Withdrawn: []netip.Prefix{pfx("10.9.0.0/16"), pfx("10.9.1.128/25")},
		Attrs: PathAttrs{
			Origin: OriginEGP, ASPath: []uint16{65002, 65010}, NextHop: addr("172.16.0.1"),
			MED: 7, HasMED: true, LocalPref: 200, HasLP: true,
			OriginatorID: addr("9.9.9.9"), ClusterList: []netip.Addr{addr("2.2.2.2"), addr("3.3.3.3")},
		},
		NLRI: []netip.Prefix{pfx("0.0.0.0/0"), pfx("10.1.0.0/24"), pfx("10.1.1.1/32")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{
		EncodeOpen(Open{Version: 4, ASN: 65001, HoldTime: 90, RouterID: addr("1.1.1.1")}),
		upd,
		EncodeNotification(Notification{Code: NotifUpdateError, Subcode: 11, Data: []byte{2, 1, 0xFD}}),
	} {
		want, err := Decode(bytes.Clone(raw))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		for i := range raw {
			raw[i] = 0xA5
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("type %d: overwriting the input changed the message:\n got  %+v\n want %+v", want.Type, got, want)
		}
	}
}

// TestDecodeIntoWarmBuffersAllocatesNothing: once an Update's lists have
// grown to a message's size, decoding that UPDATE into it again — a
// withdrawal, every attribute and three NLRI — allocates nothing.
func TestDecodeIntoWarmBuffersAllocatesNothing(t *testing.T) {
	raw, err := EncodeUpdate(Update{
		Withdrawn: []netip.Prefix{pfx("10.9.0.0/16")},
		Attrs: PathAttrs{
			Origin: OriginEGP, ASPath: []uint16{65002, 65010}, NextHop: addr("172.16.0.1"),
			MED: 7, HasMED: true, LocalPref: 200, HasLP: true,
			OriginatorID: addr("9.9.9.9"), ClusterList: []netip.Addr{addr("2.2.2.2"), addr("3.3.3.3")},
		},
		NLRI: []netip.Prefix{pfx("0.0.0.0/0"), pfx("10.1.0.0/24"), pfx("10.1.1.1/32")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	var u Update
	decode := func() {
		if err := m.decode(raw, &u); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("decoding an UPDATE into warm buffers allocates %.1f times, want 0", allocs)
	}
	if len(u.NLRI) != 3 || len(u.Withdrawn) != 1 || len(u.Attrs.ASPath) != 2 || len(u.Attrs.ClusterList) != 2 {
		t.Fatalf("decoded %+v", u)
	}
}

// TestInternedAttrsOutliveTheDecodeBuffers: a session decodes every UPDATE
// into the same lists, so an attribute set the RIB keeps must not share
// them. Two UPDATEs whose AS paths and cluster lists have the same lengths
// — the second decode overwrites the first in place — each leave their
// route with the attributes they carried.
func TestInternedAttrsOutliveTheDecodeBuffers(t *testing.T) {
	s := mkSpeaker(t, "a", "1.1.1.1", nil, nil)
	defer s.Stop()
	ca, cb := emu.Pipe()
	if err := s.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 65002, Port: 1}); err != nil {
		t.Fatal(err)
	}
	w := newPeerWire(t, cb)
	w.write(EncodeOpen(Open{Version: 4, ASN: 65002, HoldTime: 0, RouterID: addr("2.2.2.2")}))
	w.write(EncodeKeepalive())
	sent := []Update{
		{Attrs: PathAttrs{ASPath: []uint16{65002, 65010}, NextHop: addr("172.16.0.1"),
			ClusterList: []netip.Addr{addr("7.7.7.7"), addr("8.8.8.8")}}, NLRI: []netip.Prefix{pfx("10.0.1.0/24")}},
		{Attrs: PathAttrs{ASPath: []uint16{65002, 65020}, NextHop: addr("172.16.0.1"),
			ClusterList: []netip.Addr{addr("5.5.5.5"), addr("6.6.6.6")}}, NLRI: []netip.Prefix{pfx("10.0.2.0/24")}},
	}
	for _, u := range sent {
		raw, err := EncodeUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		w.write(raw)
	}
	waitFor(t, "both routes", func() bool { return len(s.LocRIB()) == 2 })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, u := range sent {
		best := s.rib.Best(u.NLRI[0])
		if len(best) != 1 {
			t.Fatalf("%v has %d best paths", u.NLRI[0], len(best))
		}
		got := best[0].Attrs
		if !slices.Equal(got.ASPath, u.Attrs.ASPath) || !slices.Equal(got.ClusterList, u.Attrs.ClusterList) {
			t.Errorf("%v reads AS path %v and cluster list %v, it was announced with %v and %v",
				u.NLRI[0], got.ASPath, got.ClusterList, u.Attrs.ASPath, u.Attrs.ClusterList)
		}
	}
}

// discardConn is a session transport that drops what is written to it and
// has nothing to read until it is closed.
type discardConn struct {
	closed chan struct{}
	once   sync.Once
}

func (c *discardConn) Read([]byte) (int, error)    { <-c.closed; return 0, io.EOF }
func (c *discardConn) Write(b []byte) (int, error) { return len(b), nil }
func (c *discardConn) Close() error                { c.once.Do(func() { close(c.closed) }); return nil }

// TestSteadyFlushAllocatesNothing: once a session's batch and the flush
// scratch have grown to a window's size, queueing that window again and
// flushing it — 40 prefixes in 12 attribute groups toward an eBGP peer and
// a reflection client, with withdrawals — allocates nothing.
func TestSteadyFlushAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	s, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), Clock: &manualClock{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	peers := []PeerConfig{
		{LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 65002, Port: 1},
		{LocalAddr: addr("172.16.0.2"), RemoteAddr: addr("172.16.0.3"), RemoteAS: 65001, Port: 2, IBGP: true, RRClient: true},
	}
	for i := range peers {
		peers[i].Conn = &discardConn{closed: make(chan struct{})}
		if err := s.AddPeer(peers[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	var sessions []*session
	for _, pc := range peers {
		sess := s.sessions[pc.RemoteAddr]
		sess.step(evOpen) // a flush goes out in Established only
		sess.step(evKeepalive)
		sessions = append(sessions, sess)
	}
	paths := make([]*Path, 12)
	for g := range paths {
		from := addr(fmt.Sprintf("172.16.1.%d", 2*g+1))
		paths[g] = &Path{
			Attrs: s.rib.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{uint16(65100 + g), 64512}, NextHop: from,
				ClusterList: []netip.Addr{addr("7.7.7.7")}}),
			PeerAddr: from, PeerRouterID: from, Port: core.PortID(g + 3), IBGP: g%2 == 1, FromClient: true,
		}
	}
	s.mu.Unlock()
	prefixes := scalePrefixes(40)
	window := func() {
		for _, sess := range sessions {
			s.mu.Lock()
			for i, p := range prefixes {
				path := paths[i%len(paths)]
				if i%5 == 4 {
					path = nil
				}
				sess.pending.add(prefixKey(p), path)
			}
			s.mu.Unlock()
			sess.flushAdv()
		}
	}
	sent := s.Stats.UpdatesSent.Load()
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("a steady window allocates %.1f times, want 0", allocs)
	}
	if per := (s.Stats.UpdatesSent.Load() - sent) / 101; per != 24 {
		t.Fatalf("a window sent %d UPDATEs, want 24 (12 groups toward each peer)", per)
	}
}

// TestInternHitAllocatesNothing: interning a set the pool holds builds its
// key in the pool's buffer and looks it up without a string.
func TestInternHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not kept under -race")
	}
	r := NewRIB(false)
	a := PathAttrs{Origin: OriginIGP, ASPath: []uint16{65002, 65010}, NextHop: addr("172.16.0.1"), MED: 10, HasMED: true,
		OriginatorID: addr("9.9.9.9"), ClusterList: []netip.Addr{addr("2.2.2.2")}}
	h := r.Intern(a)
	retainAttrs(h)
	if allocs := testing.AllocsPerRun(100, func() {
		if r.Intern(a) != h {
			t.Fatal("a held set interned to another handle")
		}
	}); allocs != 0 {
		t.Fatalf("an intern hit allocates %.1f times, want 0", allocs)
	}
}

// TestChangedMEDIsSeen: a peer re-announcing a prefix with another MED is
// heard, though the set with the old MED is still held by another of its
// prefixes. Interning once keyed sets without their MED, so the new
// announcement came back as the old handle and the change was lost.
func TestChangedMEDIsSeen(t *testing.T) {
	s := mkSpeaker(t, "a", "1.1.1.1", nil, nil)
	defer s.Stop()
	p1, p2 := pfx("10.1.0.0/24"), pfx("10.2.0.0/24")
	peerA, peerB := "172.16.0.1", "172.16.0.3"
	announce := func(conn io.Writer, nh string, asn uint16, med uint32, nlri ...netip.Prefix) {
		t.Helper()
		b, err := EncodeUpdate(Update{Attrs: PathAttrs{Origin: OriginIGP, ASPath: []uint16{asn}, NextHop: addr(nh),
			MED: med, HasMED: true}, NLRI: nlri})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	a := scriptedPeer(t, s, "172.16.0.0", peerA, false)
	b := scriptedPeer(t, s, "172.16.0.2", peerB, false)
	updates := func(n uint64) func() bool { return func() bool { return s.Stats.UpdatesRecv.Load() == n } }
	announce(a, peerA, 65002, 10, p1, p2)
	waitFor(t, "A's announcement", updates(1))
	announce(b, peerB, 65003, 15, p1)
	waitFor(t, "B's announcement", updates(2))
	announce(a, peerA, 65002, 20, p1) // p2 still holds the MED 10 set
	waitFor(t, "A's new MED", updates(3))

	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.rib.trie.Get(v4key(p1))
	i := s.rib.peerIndex(e, addr(peerA))
	if i < 0 {
		t.Fatal("A's path for p1 is gone")
	}
	if med := s.rib.candidate(e, i).Attrs.MED; med != 20 {
		t.Fatalf("A's path for p1 reads MED %d, want 20", med)
	}
	if best := s.rib.Best(p1); len(best) != 1 || best[0].PeerAddr != addr(peerB) {
		t.Fatalf("p1's best is %+v, want B's MED 15 path", best)
	}
}

// TestBadHeaderLengthIsNotified: a header whose length is out of range is
// answered with NOTIFICATION Message Header Error / Bad Message Length
// (RFC 4271 §6.1) before the session closes.
func TestBadHeaderLengthIsNotified(t *testing.T) {
	s := mkSpeaker(t, "a", "1.1.1.1", nil, nil)
	defer s.Stop()
	ca, cb := emu.Pipe()
	if err := s.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), Port: 1}); err != nil {
		t.Fatal(err)
	}
	w := newPeerWire(t, cb)
	hdr := appendHeader(nil, 5000, MsgUpdate)
	w.write(hdr)
	if m := w.next(); m == nil || m.Type != MsgOpen {
		t.Fatalf("first message %+v, want the OPEN", m)
	}
	m := w.next()
	if m == nil || m.Type != MsgNotification || m.Notif.Code != NotifMsgHeaderError || m.Notif.Subcode != 2 {
		t.Fatalf("the speaker answered a 5000-byte header with %+v, want NOTIFICATION 1/2", m)
	}
	if m := w.next(); m != nil {
		t.Fatalf("%s after the NOTIFICATION, want EOF", wireName(m))
	}
}
