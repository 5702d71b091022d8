package horse

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
)

// validateCapture walks and fully decodes every trace the run wrote,
// returning the summary and every decoded control plane message.
func validateCapture(t *testing.T, files []string) (*capture.Summary, []capture.Message) {
	t.Helper()
	if len(files) == 0 {
		t.Fatal("experiment wrote no capture files")
	}
	var (
		traces []*capture.Trace
		msgs   []capture.Message
	)
	for _, f := range files {
		tr, err := capture.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := capture.Validate(tr)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
		msgs = append(msgs, decoded...)
	}
	sum, err := capture.Summarize(traces...)
	if err != nil {
		t.Fatal(err)
	}
	return sum, msgs
}

// TestCaptureBGPEndToEnd runs the Figure 1 scenario with capture
// enabled and asserts the trace tells the same story the Result does:
// a decodable BGP conversation with at least one UPDATE, delivered on
// the experiment timeline.
func TestCaptureBGPEndToEnd(t *testing.T) {
	topo, err := TwoRouters()
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.CaptureTo(t.TempDir())
	exp.UseBGP(BGPOptions{})
	if err := exp.AddFlow("h1", "h2", 500*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(10 * Second)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := validateCapture(t, res.CaptureFiles)
	if sum.Updates == 0 {
		t.Errorf("no BGP UPDATE in the capture (summary: %v)", sum)
	}
	if sum.Last > res.Sim.VirtualEnd {
		t.Errorf("capture timestamp %v beyond the run's virtual end %v", sum.Last, res.Sim.VirtualEnd)
	}
}

// TestCaptureDirFailureIsRetryable pins where Run creates the capture
// directory: before it builds the engine, so a directory that cannot be
// created fails the Run without spending the Experiment, and the
// corrected Run on the same Experiment succeeds.
func TestCaptureDirFailureIsRetryable(t *testing.T) {
	topo, err := TwoRouters()
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.UseBGP(BGPOptions{})
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "pcap") // beneath a regular file
	exp.CaptureTo(bad)
	if _, err := exp.Run(2 * Second); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("Run with capture dir %s: err = %v, want an error naming it", bad, err)
	}
	exp.CaptureTo("")
	res, err := exp.Run(2 * Second)
	if err != nil {
		t.Fatalf("retry without capture: %v", err)
	}
	if res.RouteInstalls == 0 || len(res.CaptureFiles) != 0 {
		t.Fatalf("retry: %d route installs, capture files %v; want installs and no files", res.RouteInstalls, res.CaptureFiles)
	}
}

// TestCaptureSDNEndToEnd runs the proactive ECMP app with capture
// enabled: every switch-controller session must decode, including at
// least one FLOW_MOD.
func TestCaptureSDNEndToEnd(t *testing.T) {
	topo, err := FatTree(4, SDN())
	if err != nil {
		t.Fatal(err)
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.CaptureTo(t.TempDir())
	exp.UseSDN(AppECMP5())
	if err := exp.SendPermutation(1, 1*Gbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(5 * Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CaptureFiles) != 1 {
		t.Fatalf("capture files = %q, want one per run", res.CaptureFiles)
	}
	sum, _ := validateCapture(t, res.CaptureFiles)
	if sum.FlowMods == 0 {
		t.Errorf("no FLOW_MOD in the capture (summary: %v)", sum)
	}
	if got, want := len(sum.Sessions), len(topo.Switches()); got != want {
		t.Errorf("capture sessions = %d, want one per switch-controller pair (%d)", got, want)
	}
}

// TestCapturePackedFlushOnWire is the wire-level acceptance test for
// the grouped flush path: a router originating a full-table-style batch
// of /24s must put them on the wire as a handful of packed UPDATEs —
// at most the attribute-group count per MRAI window — and the pcapng
// trace is the evidence. A per-prefix control plane would show a burst
// the size of the table.
func TestCapturePackedFlushOnWire(t *testing.T) {
	const (
		table  = 300
		window = 10 * Millisecond // virtual time; also the AdvertiseDelay
	)
	topo, err := TwoRouters()
	if err != nil {
		t.Fatal(err)
	}
	r1, ok := topo.NodeByName("r1")
	if !ok {
		t.Fatal("no r1")
	}
	for i := 0; i < table; i++ {
		addr := netip.AddrFrom4([4]byte{20, byte(i / 256), byte(i % 256), 0})
		r1.Originate = append(r1.Originate, netip.PrefixFrom(addr, 24))
	}
	exp := NewExperiment(testConfig())
	exp.SetTopology(topo)
	exp.CaptureTo(t.TempDir())
	exp.UseBGP(BGPOptions{AdvertiseDelay: time.Duration(window)})
	if err := exp.AddFlow("h1", "h2", 500*Mbps, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(10 * Second)
	if err != nil {
		t.Fatal(err)
	}
	sum, msgs := validateCapture(t, res.CaptureFiles)
	if sum.AnnouncedPrefixes < table {
		t.Fatalf("capture shows %d announced prefixes, want >= %d (table not on the wire)", sum.AnnouncedPrefixes, table)
	}
	// Local routes share one attribute set, so the whole table plus the
	// connected prefixes packs into single-digit UPDATE counts.
	if sum.Updates > 8 {
		t.Errorf("%d UPDATEs for %d prefixes — flush not packing (summary: %v)", sum.Updates, sum.AnnouncedPrefixes, sum)
	}
	if pf := sum.PackingFactor(); pf < 50 {
		t.Errorf("packing factor = %.1f prefixes/UPDATE, want >= 50", pf)
	}
	// The MRAI-window criterion, straight from the trace: no sender may
	// deliver more UPDATEs inside one AdvertiseDelay window than it has
	// attribute groups (here: the shared local-route attrs, with slack
	// for a second group from the peer's re-advertisements).
	burst := capture.MaxUpdateBurst(msgs, window)
	if burst == 0 {
		t.Fatal("no UPDATE burst found in the capture")
	}
	if burst > 3 {
		t.Errorf("max per-window UPDATE burst = %d, want <= 3 (attr-group bound; per-prefix would be ~%d)", burst, table)
	}
}

// TestAppsSpeakOnlyWhatTheSwitchServes pins the OpenFlow the controller
// apps send to what the switch serves — ADD and DELETE_STRICT of entries
// that never expire, and FLOW stats requests — since the switch answers
// anything else with an OFPT_ERROR. Each app runs on fattree:4 with
// capture on: reactive; Hedera through one 5 s poll; ECMP through a host
// cable down and up, whose repair strictly deletes the host's rule on
// every switch and adds it back. No trace may hold an ERROR, and every
// FLOW_MOD on the wire must reach the data plane.
func TestAppsSpeakOnlyWhatTheSwitchServes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		app      App
		dur      Time
		flap     bool
		flowMods int // 0: any but none
	}{
		{"reactive", AppReactive(), 3 * Second, false, 0},
		{"hedera", AppHedera(5 * Second), 6 * Second, false, 0},
		// 20 switches × 16 hosts installed, then 20 DELETE_STRICTs for
		// host-0-0-0 when its cable goes down and 20 ADDs when it is back.
		{"ecmp5", AppECMP5(), 6 * Second, true, 20*16 + 2*20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := FatTree(4, SDN())
			if err != nil {
				t.Fatal(err)
			}
			exp := NewExperiment(testConfig())
			exp.SetTopology(topo)
			exp.CaptureTo(t.TempDir())
			exp.UseSDN(tc.app)
			if err := exp.SendPermutation(1, 1*Gbps, 0, 0); err != nil {
				t.Fatal(err)
			}
			if tc.flap {
				if err := exp.At(2*Second).LinkDown("host-0-0-0", "edge-0-0"); err != nil {
					t.Fatal(err)
				}
				if err := exp.At(4*Second).LinkUp("host-0-0-0", "edge-0-0"); err != nil {
					t.Fatal(err)
				}
			}
			res, err := exp.Run(tc.dur)
			if err != nil {
				t.Fatal(err)
			}
			sum, _ := validateCapture(t, res.CaptureFiles)
			if sum.Errors != 0 || sum.Refused != 0 {
				t.Errorf("trace holds %d OpenFlow ERRORs and %d refused messages, want none:\n%s", sum.Errors, sum.Refused, sum)
			}
			if uint64(sum.FlowMods) != res.FlowModsApplied {
				t.Errorf("%d FLOW_MODs on the wire, %d applied", sum.FlowMods, res.FlowModsApplied)
			}
			if sum.FlowMods == 0 || tc.flowMods != 0 && sum.FlowMods != tc.flowMods {
				t.Errorf("%d FLOW_MODs on the wire, want %d", sum.FlowMods, tc.flowMods)
			}
			if tc.name == "hedera" && res.StatsQueries == 0 {
				t.Error("Hedera sent no STATS_REQUEST")
			}
		})
	}
}
