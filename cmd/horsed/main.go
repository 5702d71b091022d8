// Command horsed is the experiment campaign daemon: a long-running
// service that accepts sweep specifications over an HTTP JSON API,
// expands them into the cross-product of runs (topology × scenario ×
// traffic × seed), executes them on a bounded worker pool, and persists
// per-run results and pcapng capture artifacts under a campaign
// directory.
//
// Every run goes through internal/spec — the same parsing and wiring
// cmd/horse uses — so a submitted run is the identical experiment to
// the equivalent CLI invocation.
//
// Usage:
//
//	horsed [-listen :7600] [-data campaigns] [-runs 2] [-v]
//
// Submit a sweep and poll it:
//
//	curl -X POST localhost:7600/campaigns -d '{
//	  "name": "smoke",
//	  "topos": ["fattree:4", "linear:4"],
//	  "scenarios": ["ecmp5", "reactive"],
//	  "traffics": ["permutation"],
//	  "seeds": [1, 2],
//	  "base": {"dur": "5s", "pacing": 40},
//	  "capture": true
//	}'
//	curl localhost:7600/campaigns/c0001-smoke
//	curl localhost:7600/campaigns/c0001-smoke/runs/0
//
// Or skip the polling: cmd/horsectl tails the campaign's SSE event
// stream (`horsectl watch -until done c0001-smoke`) and fetches the
// cross-run analysis (`horsectl analyze c0001-smoke`).
//
// SIGTERM drains gracefully: in-flight runs finish and persist their
// results, unstarted runs are recorded as canceled, and every SSE
// stream ends after its campaign's final event.
//
// A campaign's status is the fold of its <id>/events.jsonl, so a
// restart serves what the data directory holds: every campaign with
// both campaign.json and events.jsonl comes back finished, with its
// status, runs, artifacts, analysis and event replay. A campaign the
// daemon was killed during has its log closed on restart (unfinished
// runs canceled as "interrupted: horsed restarted", then campaign_done);
// its interrupted runs are not re-run. New campaigns are numbered after
// the highest ID already there.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
)

func main() {
	var (
		listen  = flag.String("listen", ":7600", "HTTP management API address")
		dataDir = flag.String("data", "campaigns", "campaign data directory (results + artifacts)")
		runs    = flag.Int("runs", 2, "concurrent experiment runs")
		drainTO = flag.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight runs")
		verbose = flag.Bool("v", false, "log campaign progress")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "horsed: "+format+"\n", args...)
	}
	runnerLog := logf
	if !*verbose {
		runnerLog = nil
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	srv := campaign.NewServer(&campaign.Runner{
		Dir:         *dataDir,
		Concurrency: *runs,
		Logf:        runnerLog,
	}, runnerLog)

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logf("listening on %s, data in %s, %d concurrent runs", *listen, *dataDir, *runs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		// ListenAndServe only returns on failure (bad address, port in
		// use); nothing is draining yet.
		logf("%v", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logf("shutdown requested; draining (timeout %v)", *drainTO)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// Drain the pool and shut the HTTP server down concurrently: open
	// SSE streams only end when their campaigns publish their final
	// event, so Shutdown (which waits for active connections) must not
	// run before the pool drain that closes those streams.
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Shutdown(drainCtx) }()
	if err := srv.Drain(drainCtx); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if err := <-httpDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("http shutdown: %v", err)
	}
	logf("drained cleanly")
}
