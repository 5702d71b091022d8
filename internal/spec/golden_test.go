package spec

import (
	"testing"
	"time"
)

// goldenECMP5Digest is Fingerprint.Digest() of fattree:4 / ecmp5 /
// permutation:42 (1 Gbps flows, 2s virtual). The parity tests compare
// fingerprints within one process; this constant compares them across
// commits, so a refactor that shifts the converged allocation — or the
// fingerprint's JSON shape — fails here even if it shifts every run
// the same way. ecmp5 digests are reproducible run to run (proactive
// installs, 5-tuple hashing; see bench/README.md), which is what makes
// a checked-in value possible. A deliberate behaviour change updates
// the constant in the same commit and says why.
const goldenECMP5Digest = "255bedc45e8687c2"

// TestGoldenFingerprintDigest pins the digest: the fingerprint is the
// converged steady state, and nothing about how the run got there may
// move it.
func TestGoldenFingerprintDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	r := Run{
		Topo:     "fattree:4",
		Scenario: "ecmp5",
		Traffic:  "permutation:42",
		Dur:      Duration(2 * time.Second),
		Pacing:   40,
	}
	out, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Fingerprint.Digest(); got != goldenECMP5Digest {
		t.Errorf("digest %s, want %s (steady rx %s, %d flows)",
			got, goldenECMP5Digest, out.Fingerprint.SteadyRx, len(out.Fingerprint.Flows))
	}
}

// goldenReactiveDigest is the same workload under "reactive": each flow
// pinned to the shortest path its 5-tuple hash picks, so the digest is
// a pure function of the hash and of the pin function ReactiveApp and
// HederaApp share. Recorded at c8d54be, before they shared it.
const goldenReactiveDigest = "b7b75ddb26d12dc8"

func TestGoldenReactiveDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	out, err := Run{Topo: "fattree:4", Scenario: "reactive", Traffic: "permutation:42"}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Fingerprint.Digest(); got != goldenReactiveDigest {
		t.Errorf("digest %s, want %s (steady rx %s)", got, goldenReactiveDigest, out.Fingerprint.SteadyRx)
	}
}
