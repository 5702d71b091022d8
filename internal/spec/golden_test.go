package spec

import (
	"fmt"
	"reflect"
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

// TestFingerprintStable executes each spec ten times and requires one
// digest per spec. Hedera reschedules flows at every poll, so a
// fingerprint that read anything sampled (the aggregate rate series, at
// instants FTI pacing decides) would split here; one built from the
// final allocation does not.
func TestFingerprintStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 50 experiments")
	}
	const runs = 10
	for _, tc := range []struct{ topo, scenario, traffic string }{
		{"fattree:4", "hedera", "permutation:8"},
		{"fattree:4", "hedera", "permutation:14"},
		{"fattree:4", "ecmp5", "permutation:8"},
		{"fattree:4", "bgp-ecmp", "permutation:8"},
		{"fattree:8", "hedera", "permutation:8"},
	} {
		r := Run{Topo: tc.topo, Scenario: tc.scenario, Traffic: tc.traffic,
			Dur: Duration(20 * time.Second), Pacing: 40}
		var first Fingerprint
		digests := map[string]int{}
		diff := ""
		for i := 0; i < runs; i++ {
			out, err := r.Execute()
			if err != nil {
				t.Fatal(err)
			}
			digests[out.Fingerprint.Digest()]++
			if i == 0 {
				first = out.Fingerprint
			} else if diff == "" {
				diff = firstDiff("Fingerprint", reflect.ValueOf(first), reflect.ValueOf(out.Fingerprint))
			}
		}
		if len(digests) != 1 {
			t.Errorf("%s %s %s: %d distinct digests in %d runs %v; first difference: %s",
				tc.topo, tc.scenario, tc.traffic, len(digests), runs, digests, diff)
		}
	}
}

// firstDiff names the first field, in declaration order, where a and b
// differ, with both values; "" when they are equal.
func firstDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v vs %v", path, a, b)
		}
	}
	return ""
}
