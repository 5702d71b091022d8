package campaign

import (
	"encoding/json"
	"testing"

	"repro/internal/spec"
)

// maxFuzzRuns bounds the sweeps FuzzExpand expands, so each input stays
// cheap however long its axes are.
const maxFuzzRuns = 4096

// axisRuns is the size of s's axis product, or maxFuzzRuns+1 once it is
// past maxFuzzRuns (the product of a few long axes overflows an int).
func axisRuns(s Spec) int {
	n := 1
	for _, l := range []int{len(s.Topos), len(s.Scenarios), len(s.Traffics), len(s.Capacities), len(s.Seeds), len(s.AdvertiseDelays), len(s.Dampenings)} {
		if n *= max(l, 1); n > maxFuzzRuns {
			return maxFuzzRuns + 1
		}
	}
	return n
}

// FuzzExpand runs arbitrary bytes through the campaign JSON: whatever
// unmarshals into a Spec of at most maxFuzzRuns axis combinations
// expands without panicking, and every run Expand returns validates and
// round-trips through JSON to the same String().
func FuzzExpand(f *testing.F) {
	f.Add([]byte(`{"name":"all-axes","topos":["fattree:4","ring:6:2"],"scenarios":["ecmp5","bgp-ecmp"],` +
		`"traffics":["permutation","stride:2","pareto:3:50"],"capacities":["walk","none"],"seeds":[1,2],` +
		`"advertise_delays":["2ms","50ms"],"dampenings":[false,true],` +
		`"base":{"dur":"2s","pacing":40,"rate_gbps":0.2,"delay_scale":0},"timeout":"1m","retries":1,"capture":true}`))
	f.Add([]byte(`{"topos":["wan:multi:11:2:4:2000"],"scenarios":["bgp-rr"],"traffics":["none"],` +
		`"advertise_delays":["2ms","30ms"],"dampenings":[true],"base":{"dur":"10s"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || axisRuns(s) > maxFuzzRuns {
			return
		}
		runs, err := s.Expand()
		if err != nil {
			return
		}
		for i, r := range runs {
			if err := r.Validate(); err != nil {
				t.Fatalf("run %d (%s) does not validate: %v", i, r, err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("run %d (%s): %v", i, r, err)
			}
			var back spec.Run
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("run %d: %s does not unmarshal: %v", i, b, err)
			}
			if back.String() != r.String() {
				t.Fatalf("run %d: %s came back from JSON as %s", i, r, back)
			}
		}
	})
}
