package spec

import (
	"reflect"
	"slices"
	"testing"

	horse "repro"
	"repro/internal/bgp"
	"repro/internal/cm"
	"repro/internal/sim"
	"repro/internal/topo"
)

// surface lists every settable field between a CLI flag or a campaign
// JSON key and the engine or a topology generator, with the callers that
// keep it.
var surface = []struct {
	of     any
	fields []string
}{
	{horse.Config{}, []string{
		// spec.Run.Experiment, from the Run field of the same name;
		// examples pass pacing 40-100 and 10ms sampling.
		"Pacing", "SampleInterval",
	}},
	{Run{}, []string{
		// cmd/horse flags and campaign axes:
		"Topo", "Scenario", "Traffic", "Capacity", "Dampening", "AdvertiseDelay",
		// cmd/horse flags and the campaign's "base":
		"RateGbps", "Dur", "Pacing",
		// cmd/horse sets 10ms under -fail, workload flags and fig3, else the default:
		"SampleInterval",
		// -delay-scale and examples/bgpwan; 0 is the parity tests' ablation:
		"DelayScale",
		// -pcap; campaign.Runner points it at the run's artifact directory:
		"CaptureDir",
	}},
	{cm.BGPConfig{}, []string{
		// spec's scenarios differ in them: bgp-ecmp sets the first, bgp-rr the other two.
		"ECMP", "LinkLatency", "RouteReflection",
		// spec.Run.AdvertiseDelay and .Dampening: off by default, swept by the MRAI campaign.
		"AdvertiseDelay", "Dampening",
	}},
	{bgp.Config{}, []string{
		// cm.WireBGP, one value per router:
		"Name", "ASN", "RouterID", "Networks", "OnRoute",
		// cm.WireBGP, from BGPConfig.ECMP, .Dampening and .AdvertiseDelay:
		"Multipath", "Dampening", "AdvertiseDelay",
		// cm.WireBGP passes its virtual clock; test fake: the bgp tests'
		// manualClock; bench/ and standalone speakers leave it nil (wall time).
		"Clock",
		// cm.WireBGP from Experiment.SetLogf (cmd/horse -v):
		"Logf",
		// test fake: 90s in production, speaker tests substitute 1-3s.
		"HoldTime",
	}},
	{bgp.PeerConfig{}, []string{
		// cm.peerCable, one value per cable end; IBGP and RRClient from
		// the adjacency's ASes and the reflector roles.
		"Conn", "LocalAddr", "RemoteAddr", "RemoteAS", "Port", "IBGP", "RRClient",
	}},
	{sim.Config{}, []string{
		// Experiment.Run: horse.Config.Pacing, and true where a bare engine has false; bench/.
		"Pacing", "StartInFTI",
		// bench/probes_des.go; engine tests shorten the 500ms and 2s bounds.
		"QuietTimeout", "MaxIdleWall",
		// test fakes: engine and cm tests count in 1ms steps and watch the
		// transition sequence; ROADMAP's typed-event sink attaches to the hook.
		"FTIStep", "OnModeChange",
	}},
	// The generators' link rates, delays, ASNs, chord counts, region
	// spans and peering counts are constants in topo: one value each.
	{topo.FatTreeOpts{}, []string{
		// K from fattree:K (horse.FatTree) and fig3 -k; Routers from
		// horse.BGP()/SDN(), the scenario's plane; bench/ sets both.
		"K", "Routers",
	}},
	{topo.WANOpts{}, []string{
		// horse.WANMesh and WANMultiAS from wan:mesh:SEED:POPS and
		// wan:multi:SEED:ASES:POPS; bench/probes_wan.go sets both.
		"PoPs", "Seed",
		// horse's WAN generators from horse.DelayScale (-delay-scale,
		// examples/bgpwan); 0 is the parity tests' zero-latency ablation.
		"DelayScale", "ZeroLatency",
	}},
	{topo.MultiASOpts{}, []string{
		// horse.WANMultiAS from wan:multi:SEED:ASES:POPS:PREFIXES and
		// horse.FullTable; bench/probes_wan.go sets all three.
		"WANOpts", "ASes", "FullTablePrefixes",
	}},
}

func TestConfigSurface(t *testing.T) {
	for _, s := range surface {
		typ := reflect.TypeOf(s.of)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		slices.Sort(got)
		slices.Sort(s.fields)
		if !slices.Equal(got, s.fields) {
			t.Errorf("%v has fields %v, surface_test.go lists %v: an exported config or generator field stays only while two production callers (cmd/, non-test internal/, root) need different values of it — or one reaches it, for a hook — or bench/ references it, or tests substitute a fake through it; one value in use is a constant. Name the field's callers in internal/spec/surface_test.go, or delete the field",
				typ, got, s.fields)
		}
	}
}
