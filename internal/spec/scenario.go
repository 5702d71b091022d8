package spec

import (
	"fmt"
	"sort"
	"strings"

	horse "repro"
)

// ScenarioSpec is a parsed -scenario argument.
type ScenarioSpec struct {
	Name string
	bgp  bool
}

// scenarioAppliers maps each scenario name to the experiment wiring the
// CLIs have always performed for it. BGP scenarios start from the base
// options the run carries (Dampening, AdvertiseDelay) and add their
// scenario-specific flags. Hedera's 5s poll interval is the paper
// value, shared by every surface.
var scenarioAppliers = map[string]func(exp *horse.Experiment, base horse.BGPOptions){
	"bgp": func(exp *horse.Experiment, base horse.BGPOptions) {
		exp.UseBGP(base)
	},
	"bgp-ecmp": func(exp *horse.Experiment, base horse.BGPOptions) {
		base.ECMP = true
		exp.UseBGP(base)
	},
	"bgp-rr": func(exp *horse.Experiment, base horse.BGPOptions) {
		// The WAN scenario: iBGP route reflection with latency-delayed
		// control plane delivery.
		base.RouteReflection = true
		base.LinkLatency = true
		exp.UseBGP(base)
	},
	"ecmp5": func(exp *horse.Experiment, _ horse.BGPOptions) {
		exp.UseSDN(horse.AppECMP5())
	},
	"hedera": func(exp *horse.Experiment, _ horse.BGPOptions) {
		exp.UseSDN(horse.AppHedera(5 * horse.Second))
	},
	"reactive": func(exp *horse.Experiment, _ horse.BGPOptions) {
		exp.UseSDN(horse.AppReactive())
	},
}

// ScenarioNames lists the accepted -scenario values.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarioAppliers))
	for n := range scenarioAppliers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseScenario parses a -scenario name.
func ParseScenario(s string) (ScenarioSpec, error) {
	if _, ok := scenarioAppliers[s]; !ok {
		return ScenarioSpec{}, fmt.Errorf("spec: unknown scenario %q (want one of %s)",
			s, strings.Join(ScenarioNames(), ", "))
	}
	return ScenarioSpec{Name: s, bgp: strings.HasPrefix(s, "bgp")}, nil
}

// BGP reports whether the scenario runs a BGP control plane (and so
// needs router forwarding nodes).
func (sc ScenarioSpec) BGP() bool { return sc.bgp }

// Apply wires the scenario's control plane into the experiment. base
// carries the run-level BGP knobs (Dampening, AdvertiseDelay); only the
// BGP scenarios consult it.
func (sc ScenarioSpec) Apply(exp *horse.Experiment, base horse.BGPOptions) {
	scenarioAppliers[sc.Name](exp, base)
}
