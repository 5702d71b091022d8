package traffic

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestPermutationIsDerangement(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%62) + 2
		specs := Permutation(seed, core.Gbps, 0, 0)(n)
		if len(specs) != n {
			return false
		}
		seenDst := make(map[int]bool)
		for _, s := range specs {
			if s.SrcHost == s.DstHost {
				return false // fixed point: host sending to itself
			}
			if seenDst[s.DstHost] {
				return false // not a permutation
			}
			seenDst[s.DstHost] = true
			if s.Rate != core.Gbps || s.Proto != core.ProtoUDP {
				return false
			}
		}
		return len(seenDst) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationDeterministicPerSeed(t *testing.T) {
	a := Permutation(7, core.Gbps, 0, 0)(16)
	b := Permutation(7, core.Gbps, 0, 0)(16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different permutation")
		}
	}
	c := Permutation(8, core.Gbps, 0, 0)(16)
	same := true
	for i := range a {
		if a[i].DstHost != c[i].DstHost {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical permutations")
	}
}

func TestPermutationTooSmall(t *testing.T) {
	if got := Permutation(1, core.Gbps, 0, 0)(1); got != nil {
		t.Fatalf("n=1 produced flows: %v", got)
	}
}

func TestStride(t *testing.T) {
	specs := Stride(4, 500*core.Mbps, core.Second, 2*core.Second)(8)
	if len(specs) != 8 {
		t.Fatalf("stride specs = %d", len(specs))
	}
	for i, s := range specs {
		if s.DstHost != (i+4)%8 {
			t.Fatalf("stride dst[%d] = %d", i, s.DstHost)
		}
		if s.Start != core.Second || s.Duration != 2*core.Second {
			t.Fatalf("timing lost: %+v", s)
		}
	}
	if got := Stride(8, core.Gbps, 0, 0)(8); got != nil {
		t.Fatal("identity stride accepted")
	}
}
