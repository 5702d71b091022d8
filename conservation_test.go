package horse

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"

	"repro/internal/fib"
	"repro/internal/topo"
)

// hopSet renders a next-hop group independent of its order (the FIB sorts
// by address, the Loc-RIB by decision tie-break).
func hopSet(hops []fib.NextHop) string {
	s := make([]string, len(hops))
	for i, nh := range hops {
		s[i] = nh.String()
	}
	sort.Strings(s)
	return strings.Join(s, " | ")
}

// fibVsLocRIB lists, for every router of a finished run, each way its
// simulated FIB differs from its speaker's Loc-RIB: the FIB must hold
// exactly the routes the Loc-RIB selected, next-hop set for next-hop set,
// plus one connected /32 per attached host.
func fibVsLocRIB(exp *Experiment) []string {
	var diffs []string
	mgr := exp.Manager()
	for _, r := range mgr.G.Routers() {
		want := make(map[netip.Prefix]string)
		for p, hops := range mgr.Speaker(r.ID).LocRIB() {
			if len(hops) > 0 { // locally originated prefixes are not installed
				want[p] = hopSet(hops)
			}
		}
		for _, port := range r.Ports {
			if host := mgr.G.Node(port.Peer); host != nil && host.Kind == topo.Host {
				want[netip.PrefixFrom(host.IP, 32)] = hopSet([]fib.NextHop{{Port: port.ID, Via: host.IP}})
			}
		}
		for _, route := range mgr.Net.FIB(r.ID).Routes() {
			got := hopSet(route.NextHops)
			switch w, ok := want[route.Prefix]; {
			case !ok:
				diffs = append(diffs, fmt.Sprintf("%s: FIB has %v -> %s, the Loc-RIB does not", r.Name, route.Prefix, got))
			case w != got:
				diffs = append(diffs, fmt.Sprintf("%s: %v -> %s in the FIB, %s in the Loc-RIB", r.Name, route.Prefix, got, w))
			}
			delete(want, route.Prefix)
		}
		for p, w := range want {
			diffs = append(diffs, fmt.Sprintf("%s: Loc-RIB has %v -> %s, the FIB does not", r.Name, p, w))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// TestFIBMatchesLocRIBAfterRun is route conservation at the end of a run:
// every route a speaker selected is in its router's FIB with the same
// next-hop set, and the FIB holds nothing else but the connected host
// /32s. It holds only if stopping the control plane leaves the Loc-RIBs
// alone (a stopping speaker does not withdraw what its peers carried) and
// if the CM's batched route queue keeps arrival order — a prefix
// installed, withdrawn and installed again inside one drain must end
// installed, which the link flap below does to every route over the
// failed cable.
func TestFIBMatchesLocRIBAfterRun(t *testing.T) {
	flap := func(heal bool) func(t *testing.T) *Experiment {
		return func(t *testing.T) *Experiment {
			g, err := FatTree(4, BGP())
			if err != nil {
				t.Fatal(err)
			}
			exp := NewExperiment(testConfig())
			exp.SetTopology(g)
			exp.UseBGP(BGPOptions{ECMP: true})
			if err := exp.SendPermutation(42, 1*Gbps, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := exp.At(2*Second).LinkDown("agg-0-0", "core-0-0"); err != nil {
				t.Fatal(err)
			}
			if heal {
				if err := exp.At(4*Second).LinkUp("agg-0-0", "core-0-0"); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := exp.Run(6 * Second); err != nil {
				t.Fatal(err)
			}
			return exp
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *Experiment
	}{
		{"wan:multi", func(t *testing.T) *Experiment { _, exp := runMultiAS(t, 1200); return exp }},
		{"fattree:4/bgp-ecmp/flap-healed", flap(true)},
		{"fattree:4/bgp-ecmp/link-left-down", flap(false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exp := tc.run(t)
			diffs := fibVsLocRIB(exp)
			routes := 0
			for _, r := range exp.Manager().G.Routers() {
				routes += exp.Manager().Net.FIB(r.ID).Len()
			}
			if routes == 0 {
				t.Fatal("no FIB holds a route: nothing was compared")
			}
			if len(diffs) > 0 {
				shown := diffs
				if len(shown) > 10 {
					shown = shown[:10]
				}
				t.Fatalf("%d mismatches between FIBs (%d routes) and Loc-RIBs, first %d:\n%s",
					len(diffs), routes, len(shown), strings.Join(shown, "\n"))
			}
		})
	}
}
