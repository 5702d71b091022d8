// Command horsectl is the horsed campaign client: it consumes the same
// HTTP surface any user script would, turning the daemon's SSE event
// stream and analysis endpoints into live terminal output.
//
//	horsectl [-addr http://127.0.0.1:7600] watch [-until done] CAMPAIGN
//	horsectl [-addr http://127.0.0.1:7600] analyze [-metric M] [-csv] CAMPAIGN
//
// watch tails GET /campaigns/{id}/events, rendering one line per
// lifecycle event. It resumes with Last-Event-ID after any disconnect,
// so a daemon hiccup or a dropped slow-client connection never loses
// events. With -until STATE it exits when the campaign finishes: 0 if
// the final state matches (e.g. "done"), 1 otherwise — which is the
// whole CI polling loop in one flag.
//
// analyze fetches GET /campaigns/{id}/analysis[/{metric}] — the
// cross-run aggregation grouped by swept axis — and renders each series
// as an aligned table (or CSV with -csv), ready to eyeball or plot as a
// convergence-vs-latency / goodput-vs-MRAI curve.
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/campaign"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: horsectl [-addr URL] watch [-until STATE] [-retries N] CAMPAIGN
       horsectl [-addr URL] analyze [-metric METRIC] [-csv] CAMPAIGN`)
}

// run is main with its streams and exit code exposed for testing.
func run(args []string, stdout, stderr io.Writer) int {
	global := flag.NewFlagSet("horsectl", flag.ContinueOnError)
	global.SetOutput(stderr)
	addr := global.String("addr", "http://127.0.0.1:7600", "horsed base URL")
	global.Usage = func() { usage(stderr); global.PrintDefaults() }
	if err := global.Parse(args); err != nil {
		return 2
	}
	rest := global.Args()
	if len(rest) == 0 {
		usage(stderr)
		return 2
	}
	base := strings.TrimRight(*addr, "/")
	switch rest[0] {
	case "watch":
		fs := flag.NewFlagSet("horsectl watch", flag.ContinueOnError)
		fs.SetOutput(stderr)
		until := fs.String("until", "", `wait for the campaign to finish; exit 0 iff its final state matches (e.g. "done")`)
		retries := fs.Int("retries", 10, "reconnect attempts before giving up on the stream")
		if err := fs.Parse(rest[1:]); err != nil {
			return 2
		}
		if fs.NArg() != 1 {
			usage(stderr)
			return 2
		}
		return watch(base, fs.Arg(0), *until, *retries, stdout, stderr)
	case "analyze":
		fs := flag.NewFlagSet("horsectl analyze", flag.ContinueOnError)
		fs.SetOutput(stderr)
		metric := fs.String("metric", "", "narrow to one metric (e.g. converged_rate)")
		csvOut := fs.Bool("csv", false, "emit CSV instead of an aligned table")
		if err := fs.Parse(rest[1:]); err != nil {
			return 2
		}
		if fs.NArg() != 1 {
			usage(stderr)
			return 2
		}
		return analyze(base, fs.Arg(0), *metric, *csvOut, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "horsectl: unknown command %q\n", rest[0])
		usage(stderr)
		return 2
	}
}

// watch tails the campaign's SSE stream, reconnecting with
// Last-Event-ID so no event is missed, until the stream delivers
// campaign_done (or, with until == "", until the stream ends).
func watch(base, id, until string, retries int, stdout, stderr io.Writer) int {
	var last int64
	var prog progress
	failures := 0
	for {
		req, err := http.NewRequest("GET", base+"/campaigns/"+url.PathEscape(id)+"/events", nil)
		if err != nil {
			fmt.Fprintf(stderr, "horsectl: %v\n", err)
			return 2
		}
		if last > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatInt(last, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			failures++
			if failures > retries {
				fmt.Fprintf(stderr, "horsectl: %v\n", err)
				return 2
			}
			time.Sleep(500 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			fmt.Fprintf(stderr, "horsectl: GET %s: %s: %s\n", req.URL, resp.Status, strings.TrimSpace(string(body)))
			return 2
		}
		before := last
		final, done := streamEvents(resp.Body, &last, &prog, stdout)
		resp.Body.Close()
		if last > before {
			// The stream made progress; a later disconnect gets the full
			// retry budget again. (A server that keeps closing the stream
			// without delivering anything new still exhausts it.)
			failures = 0
		}
		if done {
			if until == "" || string(final) == until {
				return 0
			}
			fmt.Fprintf(stderr, "horsectl: campaign %s finished %s, wanted %s\n", id, final, until)
			return 1
		}
		if until == "" {
			// No terminal condition requested; a closed stream is the end.
			return 0
		}
		// The stream ended before campaign_done (daemon restart, dropped
		// slow-client connection): resume from the last seen event.
		failures++
		if failures > retries {
			fmt.Fprintf(stderr, "horsectl: stream ended before campaign %s finished\n", id)
			return 2
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// progress tracks rendered campaign counts across reconnects.
type progress struct {
	total, finished int
}

// streamEvents renders SSE events from r until the stream ends,
// advancing *last past every seen event. It reports the campaign's
// final state and whether campaign_done arrived.
func streamEvents(r io.Reader, last *int64, prog *progress, w io.Writer) (campaign.State, bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case line == "" && data.Len() > 0:
			var ev campaign.Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err == nil && ev.Seq > *last {
				// Seq-gating drops events a lax server replays across a
				// reconnect, so nothing renders (or counts) twice.
				*last = ev.Seq
				render(ev, prog, w)
				if ev.Type == campaign.EvCampaignDone {
					return ev.State, true
				}
			}
			data.Reset()
		}
	}
	return "", false
}

// render prints one human line per event.
func render(ev campaign.Event, prog *progress, w io.Writer) {
	switch ev.Type {
	case campaign.EvCampaignAccepted:
		prog.total = ev.Total
		fmt.Fprintf(w, "campaign %s: accepted, %d runs\n", ev.Campaign, ev.Total)
	case campaign.EvCampaignStarted:
		prog.total = ev.Total
		fmt.Fprintf(w, "campaign %s: running\n", ev.Campaign)
	case campaign.EvRunStarted:
		fmt.Fprintf(w, "  run %d started  %s\n", ev.Run.Index, ev.Run.Spec)
	case campaign.EvRunRetried:
		fmt.Fprintf(w, "  run %d retry %d  %s\n", ev.Run.Index, ev.Run.Attempt, ev.Run.Spec)
	case campaign.EvRunSucceeded:
		prog.finished++
		line := fmt.Sprintf("  run %d ok [%d/%d]  %s", ev.Run.Index, prog.finished, prog.total, ev.Run.Spec)
		if ev.Run.SteadyRx != "" {
			line += "  steady-rx=" + ev.Run.SteadyRx
		}
		if ev.Run.Digest != "" {
			line += "  fp=" + ev.Run.Digest
		}
		if ev.Run.Wall != nil {
			line += fmt.Sprintf("  wall=%s", ev.Run.Wall.Exec.Duration().Round(time.Millisecond))
		}
		fmt.Fprintln(w, line)
	case campaign.EvRunFailed:
		if ev.State == campaign.Running {
			fmt.Fprintf(w, "  run %d attempt %d failed, retrying  %s: %s\n", ev.Run.Index, ev.Run.Attempt, ev.Run.Spec, ev.Run.Error)
			return
		}
		fmt.Fprintf(w, "  run %d FAILED (attempt %d)  %s: %s\n", ev.Run.Index, ev.Run.Attempt, ev.Run.Spec, ev.Run.Error)
	case campaign.EvRunCanceled:
		fmt.Fprintf(w, "  run %d canceled  %s\n", ev.Run.Index, ev.Run.Spec)
	case campaign.EvCampaignDone:
		fmt.Fprintf(w, "campaign %s: %s (%d/%d succeeded, %d failed, %d canceled)\n",
			ev.Campaign, ev.State, ev.Succeeded, ev.Total, ev.Failed, ev.Canceled)
	}
}

// analyze fetches the campaign's cross-run aggregation and renders it.
func analyze(base, id, metric string, csvOut bool, stdout, stderr io.Writer) int {
	u := base + "/campaigns/" + url.PathEscape(id) + "/analysis"
	if metric != "" {
		u += "/" + url.PathEscape(metric)
	}
	resp, err := http.Get(u)
	if err != nil {
		fmt.Fprintf(stderr, "horsectl: %v\n", err)
		return 2
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(stderr, "horsectl: GET %s: %s: %s\n", u, resp.Status, strings.TrimSpace(string(body)))
		return 2
	}
	var a campaign.Analysis
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		fmt.Fprintf(stderr, "horsectl: decoding analysis: %v\n", err)
		return 2
	}
	if csvOut {
		return writeCSV(a, stdout, stderr)
	}
	writeTables(a, stdout)
	return 0
}

// writeCSV emits every series as flat rows, one header.
func writeCSV(a campaign.Analysis, stdout, stderr io.Writer) int {
	w := csv.NewWriter(stdout)
	w.Write([]string{"axis", "metric", "unit", "value", "runs", "n", "mean", "p5", "min", "max"}) //nolint:errcheck
	for _, s := range a.Series {
		for _, p := range s.Points {
			w.Write([]string{ //nolint:errcheck
				s.Axis, s.Metric, s.Unit, p.Value,
				strconv.Itoa(p.Runs), strconv.Itoa(p.N),
				formatValue(p.Mean), formatValue(p.P5), formatValue(p.Min), formatValue(p.Max),
			})
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintf(stderr, "horsectl: %v\n", err)
		return 2
	}
	return 0
}

// writeTables renders one aligned table per series.
func writeTables(a campaign.Analysis, stdout io.Writer) {
	fmt.Fprintf(stdout, "campaign %s  state=%s  runs=%d  axes=%s\n",
		a.Campaign, a.State, a.Runs, strings.Join(a.Axes, ","))
	for _, s := range a.Series {
		fmt.Fprintf(stdout, "\n%s vs %s (%s)\n", s.Metric, s.Axis, s.Unit)
		tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "value\truns\tn\tmean\tp5\tmin\tmax")
		for _, p := range s.Points {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
				p.Value, p.Runs, p.N,
				formatValue(p.Mean), formatValue(p.P5), formatValue(p.Min), formatValue(p.Max))
		}
		tw.Flush() //nolint:errcheck
	}
}

// formatValue keeps table cells compact without losing curve shape.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
