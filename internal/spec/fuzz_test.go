package spec

import (
	"math"
	"reflect"
	"testing"
)

// FuzzSpec runs arbitrary strings through the four spec grammars, which
// must not panic on any of them. What ParseTraffic and ParseCapacity
// accept re-parses from its String() to the same value (ExplicitSeed
// normalized, as the table tests do); what ParseTopo accepts re-parses
// from topoString. No accepted number is NaN or infinite: a NaN rate
// stalls the max–min solver.
func FuzzSpec(f *testing.F) {
	for _, tc := range topoCases {
		f.Add(tc.in)
	}
	for _, tc := range trafficCases {
		f.Add(tc.in)
	}
	for _, tc := range capacityCases {
		f.Add(tc.in)
	}
	for _, name := range append(ScenarioNames(), "ospf") {
		f.Add(name)
	}
	f.Add("matrix:d.csv:inf")
	f.Add("matrix:d.csv:nan")
	f.Fuzz(func(t *testing.T, s string) {
		if ts, err := ParseTopo(s); err == nil {
			checkFinite(t, s, ts)
			if back, err := ParseTopo(topoString(ts)); err != nil || back != ts {
				t.Fatalf("ParseTopo(%q) = %+v; %q parses to %+v, %v", s, ts, topoString(ts), back, err)
			}
		}
		if sc, err := ParseScenario(s); err == nil {
			if back, err := ParseScenario(sc.Name); err != nil || back != sc {
				t.Fatalf("ParseScenario(%q) = %+v; %q parses to %+v, %v", s, sc, sc.Name, back, err)
			}
		}
		if ts, err := ParseTraffic(s); err == nil {
			checkFinite(t, s, ts)
			ts.ExplicitSeed = ts.Seeded()
			if back, err := ParseTraffic(ts.String()); err != nil || back != ts {
				t.Fatalf("ParseTraffic(%q) = %+v; %q parses to %+v, %v", s, ts, ts.String(), back, err)
			}
		}
		if cs, err := ParseCapacity(s); err == nil {
			checkFinite(t, s, cs)
			cs.ExplicitSeed = cs.Seeded()
			if back, err := ParseCapacity(cs.String()); err != nil || back != cs {
				t.Fatalf("ParseCapacity(%q) = %+v; %q parses to %+v, %v", s, cs, cs.String(), back, err)
			}
		}
	})
}

// checkFinite fails t when a float field of the parsed spec is NaN or
// infinite.
func checkFinite(t *testing.T, in string, spec any) {
	t.Helper()
	v := reflect.ValueOf(spec)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
			t.Fatalf("%q parsed with %s = %v", in, v.Type().Field(i).Name, f.Float())
		}
	}
}
