package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Server is the horsed management plane: an HTTP JSON API over a Runner
// and the set of submitted campaigns.
//
//	POST /campaigns                                   submit a Spec
//	GET  /campaigns                                   list summaries
//	GET  /campaigns/{id}                              status + per-run states
//	GET  /campaigns/{id}/events                       SSE lifecycle stream (Last-Event-ID resume)
//	GET  /campaigns/{id}/analysis                     cross-run aggregation, all metrics
//	GET  /campaigns/{id}/analysis/{metric}            one metric's per-axis series
//	GET  /campaigns/{id}/runs/{n}                     the run's persisted spec.Outcome
//	GET  /campaigns/{id}/runs/{n}/artifacts           list capture artifacts
//	GET  /campaigns/{id}/runs/{n}/artifacts/{file}    fetch one pcapng trace
//	GET  /healthz                                     liveness probe
type Server struct {
	runner *Runner
	logf   func(format string, args ...any)

	// EventBuffer bounds each SSE subscriber's live-event buffer
	// (default 64). A client that falls this far behind is dropped —
	// its connection closes — rather than ever stalling the runner.
	EventBuffer int

	ctx    context.Context // canceled by Drain; parents every campaign
	cancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string
	nextID    int
	draining  bool
	wg        sync.WaitGroup
}

// NewServer creates the management plane over the given runner. Campaign
// numbering continues after the highest cNNNN already under the runner's
// data root: Runner.Run truncates the events log and overwrites the status
// and results of the ID it is given, so a restarted daemon must not hand
// out c0001 again.
func NewServer(rn *Runner, logf func(format string, args ...any)) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		runner:    rn,
		logf:      logf,
		ctx:       ctx,
		cancel:    cancel,
		campaigns: map[string]*Campaign{},
	}
	entries, err := os.ReadDir(rn.Dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) && logf != nil {
		logf("campaign: numbering from c0001, data root unreadable: %v", err)
	}
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "c%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	return s
}

// Submit expands and schedules a campaign. The returned campaign is
// already running on the pool.
func (s *Server) Submit(sp Spec) (*Campaign, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errors.New("campaign: daemon is draining, not accepting new campaigns")
	}
	s.nextID++
	id := fmt.Sprintf("c%04d", s.nextID)
	if slug := slugify(sp.Name); slug != "" {
		id += "-" + slug
	}
	s.mu.Unlock()

	c, err := NewCampaign(id, sp)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		if err := s.runner.Run(s.ctx, c); err != nil && s.logf != nil {
			s.logf("campaign %s: %v", c.ID, err)
		}
	}()
	return c, nil
}

// Campaign looks a campaign up by ID.
func (s *Server) Campaign(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// Drain stops accepting campaigns, signals the pool to finish its
// in-flight runs (unstarted runs are marked canceled and every
// completed result stays persisted), and waits for the drain to
// complete or ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("campaign: drain incomplete: %w", ctx.Err())
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/analysis", s.handleAnalysis)
	mux.HandleFunc("GET /campaigns/{id}/analysis/{metric}", s.handleAnalysis)
	mux.HandleFunc("GET /campaigns/{id}/runs/{n}", s.handleRun)
	mux.HandleFunc("GET /campaigns/{id}/runs/{n}/artifacts", s.handleArtifacts)
	mux.HandleFunc("GET /campaigns/{id}/runs/{n}/artifacts/{file}", s.handleArtifact)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding campaign spec: %w", err))
		return
	}
	c, err := s.Submit(sp)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/campaigns/"+c.ID)
	writeJSON(w, http.StatusCreated, c.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	sort.Strings(ids)
	list := make([]Status, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.Campaign(id); ok {
			st := c.Status()
			st.Runs = nil // summaries only; the per-campaign endpoint has the detail
			list = append(list, st)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": list})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Campaign(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

// defaultEventBuffer is the per-subscriber live-event buffer when the
// Server does not override it.
const defaultEventBuffer = 64

// handleEvents streams the campaign's lifecycle events as Server-Sent
// Events. A reconnecting client sends Last-Event-ID (or ?after=N) and
// replays from the persisted event log before going live, so it misses
// nothing; the stream ends after campaign_done. A client that cannot
// keep up with the live flow is disconnected rather than buffered
// without bound (the event log makes reconnect-and-resume lossless).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Campaign(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return
	}
	after := int64(0)
	if v := r.Header.Get("Last-Event-ID"); v == "" {
		v = r.URL.Query().Get("after")
		if v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
				return
			}
			after = n
		}
	} else {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad Last-Event-ID %q", v))
			return
		}
		after = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	buf := s.EventBuffer
	if buf <= 0 {
		buf = defaultEventBuffer
	}
	replay, live := c.Events(after, buf)
	defer c.Unsubscribe(live)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for _, ev := range replay {
		if writeSSE(w, ev) != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// Campaign finished (stream complete) or this client
				// fell too far behind (it reconnects with its last id).
				return
			}
			if writeSSE(w, ev) != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one event in SSE wire form: the id field carries the
// sequence number clients resume from.
func writeSSE(w io.Writer, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// handleAnalysis serves the cross-run aggregation, optionally narrowed
// to one metric by the {metric} path segment.
func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	c, ok := s.Campaign(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return
	}
	var metrics []string
	if m := r.PathValue("metric"); m != "" {
		if !validMetric(m) {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown metric %q (want one of %s)", m, metricsUsage()))
			return
		}
		metrics = []string{m}
	}
	writeJSON(w, http.StatusOK, s.analysisFor(c, metrics...))
}

// runForRequest resolves the {id}/{n} path segments.
func (s *Server) runForRequest(w http.ResponseWriter, r *http.Request) (*Campaign, RunStatus, bool) {
	c, ok := s.Campaign(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
		return nil, RunStatus{}, false
	}
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad run index %q", r.PathValue("n")))
		return nil, RunStatus{}, false
	}
	rs, ok := c.Run(n)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("campaign %s has no run %d", c.ID, n))
		return nil, RunStatus{}, false
	}
	return c, rs, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	c, rs, ok := s.runForRequest(w, r)
	if !ok {
		return
	}
	out, err := s.runner.Outcome(c.ID, rs.Index)
	if errors.Is(err, fs.ErrNotExist) {
		// No persisted result yet: report where the run stands instead.
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": fmt.Sprintf("run %d has no result (state %s)", rs.Index, rs.State),
			"run":   rs,
		})
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	c, rs, ok := s.runForRequest(w, r)
	if !ok {
		return
	}
	dir := filepath.Join(s.runner.RunDir(c.ID, rs.Index), "pcap")
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	names := []string{}
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"run": rs.Index, "artifacts": names})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	c, rs, ok := s.runForRequest(w, r)
	if !ok {
		return
	}
	name := r.PathValue("file")
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad artifact name %q", name))
		return
	}
	path := filepath.Join(s.runner.RunDir(c.ID, rs.Index), "pcap", name)
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		httpError(w, http.StatusNotFound, fmt.Errorf("run %d has no artifact %q", rs.Index, name))
		return
	}
	http.ServeFile(w, r, path)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response write errors are the client's problem
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// slugify reduces a campaign name to a safe ID suffix.
func slugify(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}
