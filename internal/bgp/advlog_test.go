package bgp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
)

// settled is what a flush would make of the batch, without taking it: one
// path per pending prefix, and the prefixes in the order they came out.
func settled(t *testing.T, b *advBatch) (map[pfxKey]*Path, []pfxKey) {
	t.Helper()
	got := map[pfxKey]*Path{}
	var order []pfxKey
	for _, e := range settleAdv(append([]uint64(nil), b.log...)) {
		k := pfxKey(e >> advRunBits)
		if _, dup := got[k]; dup {
			t.Fatalf("prefix %v settled twice", k.prefix())
		}
		if len(order) > 0 && order[len(order)-1] >= k {
			t.Fatalf("settled log out of order: %v after %v", k.prefix(), order[len(order)-1].prefix())
		}
		got[k] = b.runs[e&advRunMask]
		order = append(order, k)
	}
	return got, order
}

// TestAdvBatchMatchesMapModel queues random sequences into an advBatch and
// into the map[pfxKey]*Path it replaced. After every burst the batch must
// settle to exactly the map — last write wins, nil for a withdrawal — and
// must have stayed within twice its distinct prefixes, however often they
// were rewritten.
func TestAdvBatchMatchesMapModel(t *testing.T) {
	paths := make([]*Path, 6)
	for i := range paths {
		paths[i] = &Path{Port: 1}
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Few prefixes rewritten often force compactions; many exercise a
		// log that is compacted while it still grows.
		universe := scalePrefixes([]int{5, 300, 300, 3000, 3000, 20000}[seed-1])
		var b advBatch
		want := map[pfxKey]*Path{}
		compactions := 0
		for burst := 0; burst < 40; burst++ {
			n := 1 + rng.Intn(max(2*len(universe), 3*advCompactMin))
			run := paths[rng.Intn(len(paths))]
			for i := 0; i < n; i++ {
				k := prefixKey(universe[rng.Intn(len(universe))])
				var p *Path
				switch seed % 3 {
				case 0: // long runs: one path a burst, as a received UPDATE queues them
					p = run
				case 1: // runs of length one: every entry another path, a third withdrawn
					if p = paths[rng.Intn(len(paths))]; rng.Intn(3) == 0 {
						p = nil
					}
				default: // announce → withdraw → announce of one prefix, back to back
					b.add(k, run)
					b.add(k, nil)
					p = paths[rng.Intn(len(paths))]
				}
				before := len(b.log)
				b.add(k, p)
				want[k] = p
				if len(b.log) <= before {
					compactions++
				}
				if bound := max(advCompactMin, 2*len(want)); len(b.log) > bound {
					t.Fatalf("seed %d: log of %d entries for %d distinct prefixes, bound %d", seed, len(b.log), len(want), bound)
				}
			}
			got, _ := settled(t, &b)
			if len(got) != len(want) {
				t.Fatalf("seed %d burst %d: %d prefixes pending, want %d", seed, burst, len(got), len(want))
			}
			for k, p := range want {
				if gp, ok := got[k]; !ok || gp != p {
					t.Fatalf("seed %d burst %d: %v settles to %p (pending %v), want %p", seed, burst, k.prefix(), gp, ok, p)
				}
			}
			if rng.Intn(4) == 0 { // a flush is done with it; the next window starts empty
				if b.reset(); len(b.log) != 0 || len(b.runs) != 0 || b.limit != 0 {
					t.Fatalf("seed %d: reset left %d entries, %d runs, limit %d", seed, len(b.log), len(b.runs), b.limit)
				}
				clear(want)
			}
		}
		if len(universe) < advCompactMin/2 && compactions == 0 {
			t.Fatalf("seed %d: %d prefixes rewritten for 40 bursts never compacted the log", seed, len(universe))
		}
	}
}

// TestAdvBatchCompactionRenumbersRuns: compaction leaves one entry per
// prefix and numbers the runs from zero again, neighbours with one path
// sharing a run — which is what keeps the 24-bit run field from running out
// however long the window.
func TestAdvBatchCompactionRenumbersRuns(t *testing.T) {
	a, c := &Path{Port: 1}, &Path{Port: 2}
	ps := scalePrefixes(64)
	var b advBatch
	for round := 0; round < 200; round++ { // 200 × 64 runs of length one
		for i, p := range ps {
			path := a
			if (i+round)%2 == 0 {
				path = c
			}
			b.add(prefixKey(p), path)
		}
	}
	// The last round wrote a, c, a, c, ... except that round 199 is odd:
	// prefix i holds c when i+199 is even.
	b.compact()
	if len(b.log) != len(ps) || len(b.runs) != len(ps) {
		t.Fatalf("compacted to %d entries and %d runs, want %d of each (alternating paths)", len(b.log), len(b.runs), len(ps))
	}
	for i, e := range b.log {
		if int(e&advRunMask) != i || pfxKey(e>>advRunBits) != prefixKey(ps[i]) {
			t.Fatalf("entry %d is run %d of %v", i, e&advRunMask, pfxKey(e>>advRunBits).prefix())
		}
	}
	// One more round with a single path: 64 entries on one new run, and a
	// compaction folds the lot into that run.
	for _, p := range ps {
		b.add(prefixKey(p), a)
	}
	if len(b.runs) != len(ps)+1 {
		t.Fatalf("%d runs after a one-path round, want %d", len(b.runs), len(ps)+1)
	}
	b.compact()
	if len(b.log) != len(ps) || len(b.runs) != 1 || b.runs[0] != a {
		t.Fatalf("compacted to %d entries and %d runs, want %d and the one path", len(b.log), len(b.runs), len(ps))
	}
}

// TestAdvBatchKeepsSmallBuffers: the buffers of a window of a few dozen
// routes serve the next one, pinning nothing meanwhile; a full table's
// worth is let go.
func TestAdvBatchKeepsSmallBuffers(t *testing.T) {
	var b advBatch
	p := &Path{Port: 1}
	for _, pf := range scalePrefixes(40) {
		b.add(prefixKey(pf), p)
	}
	small := cap(b.log)
	if b.reset(); cap(b.log) != small || len(b.log) != 0 || len(b.runs) != 0 {
		t.Fatalf("reset of a 40-entry batch left len %d cap %d (was %d)", len(b.log), cap(b.log), small)
	}
	if kept := b.runs[:1]; kept[0] != nil {
		t.Fatal("the kept run buffer still pins the flushed path")
	}
	b.expect(advKeep + 1)
	for _, pf := range scalePrefixes(advKeep + 1) {
		b.add(prefixKey(pf), p)
	}
	if b.reset(); b.log != nil || b.runs != nil {
		t.Fatalf("a %d-entry log left cap %d behind", advKeep+1, cap(b.log))
	}
}

// wireSink is a session transport that records what is written to it and
// never has anything to read.
type wireSink struct {
	mu     sync.Mutex
	wrote  []byte
	closed chan struct{}
	once   sync.Once
}

func newWireSink() *wireSink { return &wireSink{closed: make(chan struct{})} }

func (w *wireSink) Read([]byte) (int, error) { <-w.closed; return 0, io.EOF }

func (w *wireSink) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wrote = append(w.wrote, b...)
	return len(b), nil
}

func (w *wireSink) Close() error { w.once.Do(func() { close(w.closed) }); return nil }

// TestFlushBytesMatchTheMapBatch pins what a flush puts on the wire for a
// fixed batch — withdrawals, five paths interleaved so that every run is one
// entry long, rewrites inside the window, a path the session may not send
// back, a path overwritten before the flush, toward an eBGP peer and toward
// a reflection client — to the SHA-256
// of what the map[pfxKey]*Path batch of the parent commit wrote for the
// same calls. The representation of the batch moves no byte.
func TestFlushBytesMatchTheMapBatch(t *testing.T) {
	const want = "170cf9765da26360029b1f30071fc6c0587ba185df0ca475d4f1d437daaaed3a"
	s, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), Clock: &manualClock{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ebgp, ibgp := newWireSink(), newWireSink()
	peers := []PeerConfig{
		{Conn: ebgp, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 65002, Port: 1},
		{Conn: ibgp, LocalAddr: addr("172.16.0.2"), RemoteAddr: addr("172.16.0.3"), RemoteAS: 65001, Port: 2, IBGP: true, RRClient: true},
	}
	for _, pc := range peers {
		if err := s.AddPeer(pc); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	paths := []*Path{
		{Attrs: s.rib.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{65010, 64512}, NextHop: addr("172.16.1.1")}),
			PeerAddr: addr("172.16.1.1"), PeerRouterID: addr("9.9.9.1"), Port: 3},
		{Attrs: s.rib.Intern(PathAttrs{Origin: OriginEGP, ASPath: []uint16{65011}, NextHop: addr("172.16.1.3"), MED: 5, HasMED: true}),
			PeerAddr: addr("172.16.1.3"), PeerRouterID: addr("9.9.9.2"), Port: 4},
		// Learned from the eBGP peer's AS and from the iBGP peer itself:
		// each session withdraws what it may not send.
		{Attrs: s.rib.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{65002, 65012}, NextHop: addr("172.16.1.5")}),
			PeerAddr: addr("172.16.1.5"), PeerRouterID: addr("9.9.9.3"), Port: 5},
		{Attrs: s.rib.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{65013}, NextHop: addr("172.16.0.3"), LocalPref: 200, HasLP: true}),
			PeerAddr: addr("172.16.0.3"), PeerRouterID: addr("9.9.9.4"), Port: 2, IBGP: true, FromClient: true},
		{Attrs: s.rib.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{65014}, NextHop: addr("172.16.1.9"),
			OriginatorID: addr("8.8.8.8"), ClusterList: []netip.Addr{addr("7.7.7.7")}}),
			PeerAddr: addr("172.16.1.9"), PeerRouterID: addr("9.9.9.5"), Port: 6, IBGP: true, FromClient: true},
		{Attrs: s.rib.Intern(PathAttrs{Origin: OriginIGP}), Local: true},
	}
	overwritten := &Path{Attrs: s.rib.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{65099}, NextHop: addr("172.16.1.11")}),
		PeerAddr: addr("172.16.1.11"), PeerRouterID: addr("9.9.9.9"), Port: 7}
	prefixes := scalePrefixes(3000)
	for _, pc := range peers {
		sess := s.sessions[pc.RemoteAddr]
		sess.step(evOpen) // a flush goes out in Established only
		sess.step(evKeepalive)
		for i, p := range prefixes {
			sess.queueAdvLocked(prefixKey(p), paths[i%len(paths)])
		}
		for i := 0; i < len(prefixes); i += 7 {
			sess.queueAdvLocked(prefixKey(prefixes[i]), nil)
		}
		for i := 0; i < len(prefixes); i += 21 { // withdrawn above, back with another path
			sess.queueAdvLocked(prefixKey(prefixes[i]), paths[(i+1)%len(paths)])
		}
		for _, p := range prefixes[:50] { // a run nothing is left of: its group sends no message
			sess.queueAdvLocked(prefixKey(p), overwritten)
		}
		for _, p := range prefixes[:50] {
			sess.queueAdvLocked(prefixKey(p), paths[1])
		}
		sess.queueAdvLocked(prefixKey(pfx("10.0.0.0/8")), paths[0])
		sess.queueAdvLocked(prefixKey(pfx("10.0.0.0/9")), paths[1])
		sess.queueAdvLocked(prefixKey(pfx("0.0.0.0/0")), paths[5])
	}
	sessions := []*session{s.sessions[peers[0].RemoteAddr], s.sessions[peers[1].RemoteAddr]}
	s.mu.Unlock()
	h := sha256.New()
	for i, sess := range sessions {
		if st := s.SessionState(sess.cfg.RemoteAddr); st != StateEstablished {
			t.Fatalf("session %d is %v, want Established", i, st)
		}
		// The sink's lock is released before any failure: the deferred Stop
		// writes a CEASE through it.
		sink := []*wireSink{ebgp, ibgp}[i]
		sink.mu.Lock()
		open := len(sink.wrote)
		sink.mu.Unlock()
		sess.flushAdv()
		sink.mu.Lock()
		flushed := bytes.Clone(sink.wrote[open:])
		sink.mu.Unlock()
		if len(flushed) == 0 {
			t.Fatalf("session %d flushed nothing", i)
		}
		h.Write(flushed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("flush bytes hash to %s, want %s", got, want)
	}
}
