package bgp

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
)

// BenchmarkFullTableTransfer is the speaker's whole receive path at
// full-table size, with nothing else in the way: one speaker originates n
// /24s, a second learns them over an emu.Pipe and hands each to OnRoute.
// An iteration runs from the first AddPeer until the n-th route event.
// allocs/op is the number to watch: it should move with the number of
// UPDATEs (about n/1000), not with n.
func BenchmarkFullTableTransfer(b *testing.B) {
	for _, n := range []int{100_000} {
		prefixes := scalePrefixes(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				origin, err := NewSpeaker(Config{Name: "origin", ASN: 65001, RouterID: addr("1.1.1.1"), Networks: prefixes})
				if err != nil {
					b.Fatal(err)
				}
				var got atomic.Int64
				done := make(chan struct{})
				sink, err := NewSpeaker(Config{Name: "sink", ASN: 65002, RouterID: addr("2.2.2.2"),
					OnRoute: func(RouteEvent) {
						if got.Add(1) == int64(n) {
							close(done)
						}
					}})
				if err != nil {
					b.Fatal(err)
				}
				ca, cb := emu.Pipe()
				b.StartTimer()
				if err := origin.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 65002, Port: 1}); err != nil {
					b.Fatal(err)
				}
				if err := sink.AddPeer(PeerConfig{Conn: cb, LocalAddr: addr("172.16.0.1"), RemoteAddr: addr("172.16.0.0"), RemoteAS: 65001, Port: 1}); err != nil {
					b.Fatal(err)
				}
				select {
				case <-done:
				case <-time.After(time.Minute):
					b.Fatalf("%d of %d routes after a minute", got.Load(), n)
				}
				b.StopTimer()
				sink.BeginStop() // or origin's CEASE has it withdraw all n again
				origin.Stop()
				sink.Stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "routes/s")
		})
	}
}

// BenchmarkFlushAdv is one session's advertisement flush at full-table
// size: n pending announcements spread over 8 attribute groups become
// sorted, packed UPDATEs on the wire. Filling the batch is not timed.
func BenchmarkFlushAdv(b *testing.B) {
	const groups = 8
	for _, n := range []int{100_000} {
		prefixes := scalePrefixes(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// The window queueAdvLocked opens must not end on its own:
			// nobody advances this clock.
			s, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), Clock: &manualClock{}})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Stop()
			ca, cb := emu.Pipe()
			go func() { _, _ = io.Copy(io.Discard, cb) }()
			peer := addr("172.16.0.1")
			if err := s.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: peer, Port: 1}); err != nil {
				b.Fatal(err)
			}
			s.mu.Lock()
			sess := s.sessions[peer]
			sess.step(evOpen) // a flush goes out in Established only
			sess.step(evKeepalive)
			paths := make([]*Path, groups)
			for g := range paths {
				from := addr(fmt.Sprintf("172.16.1.%d", 2*g+1))
				paths[g] = &Path{
					Attrs:    s.rib.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{uint16(65100 + g), 64512}, NextHop: from}),
					PeerAddr: from, PeerRouterID: from, Port: core.PortID(g + 2),
				}
			}
			s.mu.Unlock()
			sent := s.Stats.UpdatesSent.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.mu.Lock()
				for j, p := range prefixes {
					sess.queueAdvLocked(prefixKey(p), paths[j%groups])
				}
				s.mu.Unlock()
				b.StartTimer()
				sess.flushAdv()
			}
			b.ReportMetric(float64(s.Stats.UpdatesSent.Load()-sent)/float64(b.N), "msgs")
		})
	}
}
