package capture

import (
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
)

// BenchmarkCapture measures what recording costs a run:
//   - sessions=139: New, 139 sessions with one KEEPALIVE each, then
//     Close — one campaign-sweep run's worth of sessions. Every
//     iteration rewrites the one file of one directory, so the
//     directory does not grow with b.N;
//   - data/1KB: one session's Data with a 1 KB write, the per-message
//     cost once the session is open.
func BenchmarkCapture(b *testing.B) {
	keep := bgp.EncodeKeepalive()
	a, peer := bgpEndpoints()
	b.Run("sessions=139", func(b *testing.B) {
		pairs := make([]string, 139)
		for i := range pairs {
			pairs[i] = fmt.Sprintf("bgp-r%d-r%d", i, i+1)
		}
		dir := b.TempDir()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := New(dir)
			if err != nil {
				b.Fatal(err)
			}
			for _, pair := range pairs {
				sess, err := c.Session(pair, a, peer)
				if err != nil {
					b.Fatal(err)
				}
				sess.Data(AtoB, keep, core.Time(i))
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("data/1KB", func(b *testing.B) {
		c, err := New(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		sess, err := c.Session("bgp-r1-r2", a, peer)
		if err != nil {
			b.Fatal(err)
		}
		msg := make([]byte, 1024)
		sess.Data(AtoB, msg, 0)
		b.SetBytes(int64(len(msg)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess.Data(AtoB, msg, core.Time(i))
		}
	})
}
