package capture

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// SessionSummary aggregates one emulated session (one capture
// interface) of a trace.
type SessionSummary struct {
	Trace string
	Name  string
	// First and Last are the delivery times of the session's first and
	// last decoded control plane messages.
	First, Last core.Time
	Messages    int
	Updates     int
	Withdraws   int
	FlowMods    int
	// AnnouncedPrefixes and WithdrawnPrefixes total the NLRI carried
	// across the session's UPDATEs — the storm volume, as opposed to the
	// message counts above.
	AnnouncedPrefixes int
	WithdrawnPrefixes int
	// StrayWithdrawn is how many of WithdrawnPrefixes named a route the
	// receiver did not hold from the sender (see Message.StrayWithdrawn).
	StrayWithdrawn int
	// Refused counts the OpenFlow messages the receiving end's channel
	// table has no step for (see Message.Refused).
	Refused int
	// Errors counts OFPT_ERRORs: an end's answer to what it refused or
	// does not serve.
	Errors int
}

// Summary aggregates the control plane conversation recorded across one
// or more traces: message mix, the UPDATE rate over the captured window,
// refused OpenFlow messages and ERRORs, and first/last-message times per
// session.
type Summary struct {
	Sessions []SessionSummary

	Messages  int
	Updates   int // BGP UPDATEs announcing at least one prefix
	Withdraws int // BGP UPDATEs withdrawing at least one prefix
	FlowMods  int
	// AnnouncedPrefixes and WithdrawnPrefixes total the NLRI across all
	// UPDATEs; AnnouncedPrefixes / Updates is the packing factor the
	// grouped flush path achieves on the wire.
	AnnouncedPrefixes int
	WithdrawnPrefixes int
	// StrayWithdrawn is how many of WithdrawnPrefixes were stray.
	StrayWithdrawn int
	// Refused counts the OpenFlow messages with no step in their
	// receiving end's channel table.
	Refused int
	// Errors counts OFPT_ERRORs.
	Errors int

	// First and Last bound the decoded messages across all sessions.
	First, Last core.Time
}

// Summarize validates and aggregates a set of traces.
func Summarize(traces ...*Trace) (*Summary, error) {
	s := &Summary{}
	for _, tr := range traces {
		msgs, err := Validate(tr)
		if err != nil {
			return nil, err
		}
		per := make([]*SessionSummary, len(tr.Interfaces))
		for i, name := range tr.Interfaces {
			per[i] = &SessionSummary{Trace: tr.Path, Name: name}
		}
		for _, m := range msgs {
			ss := per[m.Interface]
			if ss.Messages == 0 || m.Time < ss.First {
				ss.First = m.Time
			}
			if m.Time > ss.Last {
				ss.Last = m.Time
			}
			ss.Messages++
			if m.Announced > 0 {
				ss.Updates++
			}
			if m.Withdrawn > 0 {
				ss.Withdraws++
			}
			switch m.Type {
			case "FLOW_MOD":
				ss.FlowMods++
			case "ERROR":
				ss.Errors++
			}
			ss.AnnouncedPrefixes += m.Announced
			ss.WithdrawnPrefixes += m.Withdrawn
			ss.StrayWithdrawn += m.StrayWithdrawn
			if m.Refused {
				ss.Refused++
			}
		}
		for _, ss := range per {
			if ss.Messages == 0 {
				continue
			}
			if s.Messages == 0 || ss.First < s.First {
				s.First = ss.First
			}
			if ss.Last > s.Last {
				s.Last = ss.Last
			}
			s.Messages += ss.Messages
			s.Updates += ss.Updates
			s.Withdraws += ss.Withdraws
			s.FlowMods += ss.FlowMods
			s.AnnouncedPrefixes += ss.AnnouncedPrefixes
			s.WithdrawnPrefixes += ss.WithdrawnPrefixes
			s.StrayWithdrawn += ss.StrayWithdrawn
			s.Refused += ss.Refused
			s.Errors += ss.Errors
			s.Sessions = append(s.Sessions, *ss)
		}
	}
	return s, nil
}

// Window is the captured span between the first and last decoded
// message (0 for empty or single-instant captures).
func (s *Summary) Window() core.Time {
	if s.Messages == 0 {
		return 0
	}
	return s.Last - s.First
}

// UpdatesPerSec is the announce-UPDATE rate over the captured window;
// 0 when the window is empty (shared stats.PerSecond guard — a
// single-message trace must not report +Inf).
func (s *Summary) UpdatesPerSec() float64 {
	return stats.PerSecond(float64(s.Updates), s.Window())
}

// PackingFactor is the mean number of announced prefixes per
// announce-UPDATE: 1.0 means the per-prefix control plane, higher
// means the grouped flush path packed NLRIs that share attributes into
// common messages. 0 when the capture holds no announce-UPDATE.
func (s *Summary) PackingFactor() float64 {
	if s.Updates == 0 {
		return 0
	}
	return float64(s.AnnouncedPrefixes) / float64(s.Updates)
}

// MaxUpdateBurst scans decoded messages (as returned by Validate or
// Decode) and reports the largest number of UPDATEs any single sender
// delivered on one session within a sliding window — with window set to
// the speaker's AdvertiseDelay, that is the per-MRAI-flush message
// count, which the packed flush bounds by attr-group count × message
// splits rather than by prefix count.
func MaxUpdateBurst(msgs []Message, window core.Time) int {
	byStream := make(map[streamKey][]core.Time)
	for _, m := range msgs {
		if m.Type != "UPDATE" {
			continue
		}
		k := streamKey{iface: m.Interface, src: m.Src, dst: m.Dst, srcPort: m.SrcPort, dstPort: m.DstPort}
		byStream[k] = append(byStream[k], m.Time)
	}
	burst := 0
	for _, ts := range byStream {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		i := 0
		for j := range ts {
			for ts[j]-ts[i] > window {
				i++
			}
			if n := j - i + 1; n > burst {
				burst = n
			}
		}
	}
	return burst
}

// String renders the summary, one session per line.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d messages in [%v, %v]: %d updates (%.1f/s, %d prefixes, %.1f/msg), %d withdraws (%d prefixes, %d stray), %d flow-mods, %d refused, %d errors\n",
		s.Messages, s.First, s.Last,
		s.Updates, s.UpdatesPerSec(), s.AnnouncedPrefixes, s.PackingFactor(),
		s.Withdraws, s.WithdrawnPrefixes, s.StrayWithdrawn,
		s.FlowMods, s.Refused, s.Errors)
	for _, ss := range s.Sessions {
		fmt.Fprintf(&b, "  %-40s %4d msgs  first=%v last=%v", ss.Name, ss.Messages, ss.First, ss.Last)
		if ss.Refused > 0 {
			fmt.Fprintf(&b, "  %d refused", ss.Refused)
		}
		if ss.Errors > 0 {
			fmt.Fprintf(&b, "  %d errors", ss.Errors)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
