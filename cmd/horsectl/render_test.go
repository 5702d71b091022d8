package main

import (
	"bytes"
	"testing"

	"repro/internal/campaign"
)

// TestRenderRunFailed: a run_failed renders by the state it moves its
// run to — a retry follows while the run stays running, and it is
// final once the run has failed.
func TestRenderRunFailed(t *testing.T) {
	run := &campaign.RunEvent{Index: 3, Spec: "fattree:4/ecmp5", Attempt: 1, Error: "transient"}
	for state, want := range map[campaign.State]string{
		campaign.Running: "  run 3 attempt 1 failed, retrying  fattree:4/ecmp5: transient\n",
		campaign.Failed:  "  run 3 FAILED (attempt 1)  fattree:4/ecmp5: transient\n",
	} {
		var out bytes.Buffer
		render(campaign.Event{Type: campaign.EvRunFailed, State: state, Run: run}, &progress{}, &out)
		if got := out.String(); got != want {
			t.Errorf("run_failed{%s} renders %q, want %q", state, got, want)
		}
	}
}
