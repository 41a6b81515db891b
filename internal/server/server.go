// Package server is the analysis-as-a-service layer over internal/core:
// an http.Handler exposing the subscripted-subscript recurrence analysis
// as POST /v1/analyze. The analysis is a deterministic pure function of
// (source, options), so a request is answered by the first of these
// tiers that can, in this order:
//
//  1. the memory cache — responses stored under the SHA-256 of the
//     canonicalized request, replayed byte-identically with no TTL (see
//     cache.go); a body byte-identical to one already answered is found
//     by the SHA-256 of its raw bytes, before it is decoded;
//  2. optionally, a crash-safe on-disk result store (internal/store), so
//     a restarted daemon serves its working set warm;
//  3. optionally, a peer fill (internal/cluster) — a consistent-hash ring
//     routes each content-addressed key to its owning peer, a miss on a
//     non-owner is filled from the owner, and ANY peer failure (timeout,
//     5xx, dropped connection, open circuit breaker, dead peer) degrades
//     to computing locally, so a client never observes a fleet-internal
//     error;
//  4. the function-granular unit store (internal/incr), shared by every
//     analysis — each unchanged function replays and only the rest
//     recompute, so an edit is simply the edited source POSTed again;
//  5. compute.
//
// Past the memory cache and the disk store, request coalescing lets
// concurrent identical requests share one peer fill or analysis (see
// singleflight.go), and admission control bounds local analyses with a
// worker pool and a queue-depth limit that sheds overload with 429 +
// Retry-After instead of queueing without bound, plus a per-request
// deadline.
//
// GET /metrics exposes the serving counters in Prometheus text format,
// GET /v1/stats is the admin view — including cluster, store, and
// armed-failpoint state — and GET /v1/health is the liveness probe. The package is stdlib-only,
// like the rest of the repository.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/incr"
	"repro/internal/store"
	"repro/internal/symbolic"
	"repro/internal/trace"
	"repro/internal/version"
)

// Config bounds the server's resources. Zero values select defaults.
type Config struct {
	// Workers is the number of analyses allowed to run concurrently
	// (default GOMAXPROCS).
	Workers int
	// MaxQueue is how many analyses may wait for a worker slot before new
	// work is shed with 429 (default 64). 0 is honoured as "no queue":
	// every analysis that cannot start immediately is shed.
	MaxQueue int
	// AnalysisWorkers is the per-analysis fan-out passed to
	// core.Options.Workers (default 1, so concurrency comes from serving
	// many requests rather than oversubscribing one).
	AnalysisWorkers int
	// CacheEntries / CacheBytes bound the content-addressed result cache
	// (defaults 1024 entries, 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// RequestTimeout is the per-request analysis deadline (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds the request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxSteps bounds each analysis in abstract budget steps
	// (core.Options.Budget). 0 means unlimited: the deadline alone bounds
	// the work.
	MaxSteps int64
	// FlightRecorderSize is how many recent request traces the in-memory
	// flight recorder retains for GET /debug/traces (default 32). Pass a
	// negative value to disable per-request tracing entirely; 0 selects
	// the default. While enabled, every executed analysis runs under a
	// trace.Recorder and its per-stage aggregates feed the
	// subsubd_stage_seconds metrics.
	FlightRecorderSize int
	// Logf, when non-nil, receives operational log lines (requests shed,
	// deadlines exceeded), each tagged with the request ID so they can be
	// correlated with trace dumps and client-side logs.
	Logf func(format string, args ...any)

	// IncrEntries bounds the function-granular incremental unit store
	// (Pass-1 analyses and Pass-2 nest plans, content-addressed per
	// function — see internal/incr). 0 selects the default
	// (incr.DefaultEntries); pass a negative value to disable
	// incremental reuse entirely.
	IncrEntries int

	// Cluster, when non-nil, shards the key space across a peer fleet:
	// misses on keys owned by a healthy remote peer are filled from that
	// peer, and every fill failure degrades to local compute. The caller
	// owns the cluster's lifecycle (Start/Stop).
	Cluster *cluster.Cluster
	// Store, when non-nil, persists results on disk under the memory
	// cache (read on memory miss, written on every computed or filled
	// result). The caller owns Open/Close.
	Store *store.Store
	// NodeName names this node for the peer-level chaos failpoints
	// (site "server.peerfill"); usually cluster.Config.Self.
	NodeName string

	noQueue  bool // set by New when the caller explicitly passed MaxQueue < 0
	noFlight bool // set by New when the caller explicitly passed FlightRecorderSize < 0
	noIncr   bool // set by New when the caller explicitly passed IncrEntries < 0
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 && !c.noQueue {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.AnalysisWorkers <= 0 {
		c.AnalysisWorkers = 1
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.FlightRecorderSize == 0 && !c.noFlight {
		c.FlightRecorderSize = 32
	}
	if c.FlightRecorderSize < 0 {
		c.FlightRecorderSize = 0
	}
	if c.IncrEntries < 0 {
		c.IncrEntries = 0
	}
}

// Server is the analysis service. It implements http.Handler.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	cache  *resultCache
	flight flightGroup
	met    metrics

	// sem holds one token per running analysis; waiting counts analyses
	// blocked on a slot (the admission queue).
	sem     chan struct{}
	waiting atomic.Int64

	// draining flips when the process has been told to shut down; /readyz
	// reports 503 so load balancers stop routing here while in-flight
	// requests finish.
	draining atomic.Bool

	// flightRec retains the last FlightRecorderSize request traces for
	// GET /debug/traces (nil when tracing is disabled); stages is the
	// cumulative per-stage view the traces feed.
	flightRec *trace.FlightRecorder
	stages    stageStats

	// bootID/reqSeq generate per-request IDs: a random per-process prefix
	// plus a sequence number, so IDs from different daemon instances (or
	// restarts) never collide in shared logs.
	bootID string
	reqSeq atomic.Int64

	// incr is the process-level function-granular unit store threaded
	// into every analysis (nil when disabled).
	incr *incr.Store

	// analyze produces the encoded response for a normalized request. The
	// context carries the analysis deadline; honouring it is what frees the
	// worker slot when an analysis stalls. The recorder is non-nil exactly
	// when the flight recorder is enabled; implementations thread it into
	// the pipeline so the request's spans land in /debug/traces. It
	// defaults to the real pipeline and is overridable by tests that need
	// to gate or fail the analysis deterministically.
	analyze func(context.Context, *AnalyzeRequest, *trace.Recorder) ([]byte, error)
}

// New builds a server with the given bounds. Pass MaxQueue < 0 to disable
// queueing entirely (shed whenever all workers are busy), and
// FlightRecorderSize < 0 to disable per-request tracing.
func New(cfg Config) *Server {
	if cfg.MaxQueue < 0 {
		cfg.noQueue = true
	}
	if cfg.FlightRecorderSize < 0 {
		cfg.noFlight = true
	}
	if cfg.IncrEntries < 0 {
		cfg.noIncr = true
	}
	cfg.applyDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries, cfg.CacheBytes),
		sem:   make(chan struct{}, cfg.Workers),
	}
	if !cfg.noIncr {
		s.incr = incr.NewStore(cfg.IncrEntries)
	}
	var boot [4]byte
	rand.Read(boot[:])
	s.bootID = hex.EncodeToString(boot[:])
	if cfg.FlightRecorderSize > 0 {
		s.flightRec = trace.NewFlightRecorder(cfg.FlightRecorderSize)
	}
	s.analyze = s.defaultAnalyze
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	s.mux = mux
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// nextRequestID mints a process-unique request ID.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.bootID, s.reqSeq.Add(1))
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SourceJSON is one named program in an analyze request.
type SourceJSON struct {
	Name string `json:"name"`
	Src  string `json:"src"`
}

// AnalyzeRequest is the body of POST /v1/analyze. Either Source (with an
// optional Name) or Sources must be set; a body naming any other field
// is refused with 400.
type AnalyzeRequest struct {
	// Source is the single-program convenience form.
	Source string `json:"source,omitempty"`
	Name   string `json:"name,omitempty"`
	// Sources is the batch form; results come back in this order.
	Sources []SourceJSON `json:"sources,omitempty"`
	// Level is "classical", "base" or "new" (default "new").
	Level string `json:"level,omitempty"`
	// Assume lists symbols the analysis may take as >= 1.
	Assume []string `json:"assume,omitempty"`
	// Inline performs inline expansion before the analysis.
	Inline bool `json:"inline,omitempty"`
	// Annotate includes the OpenMP-annotated source in each result.
	Annotate bool `json:"annotate,omitempty"`
}

// decodeStrict decodes exactly one JSON value from r into dst, as
// json.Unmarshal does, but refuses fields dst does not declare: a
// misspelt option must fail rather than be answered as if it were
// absent.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// normalize canonicalizes the request in place so that requests meaning
// the same analysis hash to the same cache key: the single-source form is
// folded into Sources, unnamed sources get positional names, the level
// defaults to "new", and the assume list is sorted and deduplicated
// (assumptions populate a symbol dictionary, so order and multiplicity
// are semantically irrelevant — see DESIGN.md). It returns an error for
// requests that cannot be analyzed at all.
func (r *AnalyzeRequest) normalize() error {
	if r.Source != "" {
		name := r.Name
		if name == "" {
			name = "source"
		}
		r.Sources = append([]SourceJSON{{Name: name, Src: r.Source}}, r.Sources...)
		r.Source, r.Name = "", ""
	}
	if len(r.Sources) == 0 {
		return errors.New("no sources: set \"source\" or \"sources\"")
	}
	for i := range r.Sources {
		if r.Sources[i].Src == "" {
			return fmt.Errorf("sources[%d] has empty src", i)
		}
		if r.Sources[i].Name == "" {
			r.Sources[i].Name = fmt.Sprintf("source%d", i)
		}
	}
	if r.Level == "" {
		r.Level = "new"
	}
	if _, err := core.ParseLevel(r.Level); err != nil {
		return err
	}
	assume := append([]string(nil), r.Assume...)
	sort.Strings(assume)
	out := assume[:0]
	for _, a := range assume {
		if a == "" || (len(out) > 0 && out[len(out)-1] == a) {
			continue
		}
		out = append(out, a)
	}
	r.Assume = out
	return nil
}

// cacheKey is the content address of a normalized request: the SHA-256 of
// a collision-free (length-prefixed) encoding of every field that can
// change the response bytes. Worker counts are deliberately excluded —
// results are bit-identical for every worker count, so the same key must
// be produced whatever parallelism the server happens to use.
func (r *AnalyzeRequest) cacheKey() string {
	h := sha256.New()
	io.WriteString(h, "subsubd/v1\x00")
	hashField(h, r.Level)
	fmt.Fprintf(h, "inline=%t;annotate=%t;", r.Inline, r.Annotate)
	fmt.Fprintf(h, "assume=%d;", len(r.Assume))
	for _, a := range r.Assume {
		hashField(h, a)
	}
	fmt.Fprintf(h, "sources=%d;", len(r.Sources))
	for _, src := range r.Sources {
		hashField(h, src.Name)
		hashField(h, src.Src)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashField(h io.Writer, s string) {
	fmt.Fprintf(h, "%d:", len(s))
	io.WriteString(h, s)
}

// defaultAnalyze runs the real pipeline and encodes the response with the
// same marshaller the subsubcc CLI uses, so daemon and CLI output are
// byte-identical for identical inputs.
//
// Resource errors are whole-request outcomes, never response content: a
// source aborted by the deadline or the step budget fails the request
// with a typed error (classified by the caller), because a partial body
// must never enter the content-addressed cache. Contained per-function
// panics, by contrast, ARE response content — they surface as per-result
// diagnostics with partial results, counted in recovered_panics.
func (s *Server) defaultAnalyze(ctx context.Context, req *AnalyzeRequest, tr *trace.Recorder) ([]byte, error) {
	lvl, err := core.ParseLevel(req.Level)
	if err != nil {
		return nil, err
	}
	sources := make([]core.Source, len(req.Sources))
	for i, src := range req.Sources {
		sources[i] = core.Source{Name: src.Name, Src: src.Src}
	}
	opt := core.Options{
		Level:          lvl,
		AssumePositive: req.Assume,
		Inline:         req.Inline,
		Workers:        s.cfg.AnalysisWorkers,
		Ctx:            ctx,
		Budget:         s.cfg.MaxSteps,
		Trace:          tr,
	}
	if s.incr != nil {
		opt.Incremental = s.incr
	}
	results := core.AnalyzeBatch(sources, opt)
	for _, br := range results {
		if br.Err != nil {
			if errors.Is(br.Err, budget.ErrCanceled) || errors.Is(br.Err, budget.ErrBudget) {
				return nil, fmt.Errorf("source %q: %w", br.Name, br.Err)
			}
			continue
		}
		s.met.recoveredPanics.Add(int64(len(br.Res.Plan.Diagnostics)))
	}
	return core.MarshalBatch(results, req.Annotate)
}

// errShed marks a request rejected by admission control.
var errShed = errors.New("server at capacity")

// admit blocks until a worker slot is free. It sheds (errShed) when the
// queue of waiting analyses is at MaxQueue, or when the wait outlives ctx
// — an analysis that cannot start before its deadline is overload by
// definition.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		return errShed
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return errShed
	}
}

func (s *Server) release() { <-s.sem }

// runAnalysis is the singleflight leader body: try a peer fill when the
// key belongs to a remote owner, otherwise (or on ANY fill failure —
// graceful degradation) pass admission and run the analysis locally
// under the leader's deadline, populating the cache and the persistent
// store. Passing ctx into the analysis is what keeps worker slots
// leak-free: a stalled analysis aborts at its next budget checkpoint
// and releases its slot instead of holding it past the deadline.
func (s *Server) runAnalysis(ctx context.Context, key, reqID string, req *AnalyzeRequest, isFill bool) ([]byte, error) {
	var tr *trace.Recorder
	if s.flightRec != nil {
		tr = trace.NewRecorder()
	}
	start := time.Now()
	body, err := s.produce(ctx, key, reqID, req, isFill, tr)
	switch {
	case err == nil:
	case errors.Is(err, budget.ErrCanceled):
		s.met.cancellations.Add(1)
	case errors.Is(err, budget.ErrBudget):
		s.met.budgetExhausted.Add(1)
	}
	if tr != nil {
		spans := tr.Spans()
		aggs := trace.Aggregate(spans)
		s.stages.record(aggs, spans)
		rt := trace.RequestTrace{ID: reqID, Start: start, Dur: time.Since(start), Stages: aggs, Spans: spans}
		if err != nil {
			rt.Error = err.Error()
		}
		s.flightRec.Add(rt)
	}
	return body, err
}

// produce yields the response bytes for a missed key: peer fill when a
// remote peer owns it, local analysis otherwise. A fill request
// (isFill) is always computed locally — the remote side of a fill never
// re-forwards, which bounds any transient ring disagreement to one hop.
func (s *Server) produce(ctx context.Context, key, reqID string, req *AnalyzeRequest, isFill bool, tr *trace.Recorder) ([]byte, error) {
	if s.cfg.Cluster != nil && !isFill {
		if owner, local := s.cfg.Cluster.Owner(key); !local {
			if raw, err := json.Marshal(req); err == nil {
				body, err := s.cfg.Cluster.Fill(ctx, owner, raw, reqID, tr)
				if err == nil {
					s.met.peerFills.Add(1)
					s.cache.put(key, body)
					s.storePut(key, body)
					return body, nil
				}
				// Graceful degradation: a fleet-internal failure is never a
				// client error. Fall through to local compute.
				s.met.fallbacks.Add(1)
				s.logf("request %s: fill from peer %s failed (%v); computing locally", reqID, owner, err)
			}
		}
	}
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	s.met.analyses.Add(1)
	body, err := s.analyze(ctx, req, tr)
	if err == nil {
		s.cache.put(key, body)
		s.storePut(key, body)
	}
	return body, err
}

// storePut persists a response body; store failures are logged, never
// surfaced (the store is an optimization, not a dependency).
func (s *Server) storePut(key string, body []byte) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Put(key, body); err != nil {
		s.logf("store: put %.12s…: %v", key, err)
	}
}

type flightOut struct {
	body   []byte
	err    error
	shared bool
}

// codeCapture records the response status so requests can be counted by
// code (malformed 4xx vs internal 5xx vs success — the split the chaos
// suite asserts on).
type codeCapture struct {
	http.ResponseWriter
	code int
}

func (cw *codeCapture) WriteHeader(code int) {
	if cw.code == 0 {
		cw.code = code
	}
	cw.ResponseWriter.WriteHeader(code)
}

func (cw *codeCapture) Write(b []byte) (int, error) {
	if cw.code == 0 {
		cw.code = http.StatusOK
	}
	return cw.ResponseWriter.Write(b)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.met.requests.Add(1)
	cw := &codeCapture{ResponseWriter: w}
	w = cw
	start := time.Now()
	defer func() {
		s.met.codes.inc(cw.code)
		s.met.latency.observe(time.Since(start))
	}()

	// isFill marks a peer-to-peer cache fill: this node is the key's
	// owner as far as the sender is concerned, so it must compute locally
	// and never re-forward.
	isFill := r.Header.Get(cluster.FillHeader) != ""
	if isFill {
		// Peer-level chaos failpoints: misbehave as the serving side of a
		// fill (stall until the client gives up, drop the connection
		// mid-request, or answer 500). Disarmed in production this is one
		// atomic load.
		if mode, ok := faults.Fire("server.peerfill", s.cfg.NodeName); ok {
			switch mode {
			case "stall":
				select {
				case <-r.Context().Done():
				case <-time.After(5 * time.Second):
				}
			case "drop":
				panic(http.ErrAbortHandler)
			case "5xx":
				http.Error(w, "fault injected: peer internal error", http.StatusInternalServerError)
				return
			}
		}
	}

	// Every request gets an ID, echoed in the response, in log lines and
	// in the trace dump, so a shed or timed-out request can be correlated
	// across all three. Clients may supply their own via X-Request-Id.
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = s.nextRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		http.Error(w, "request body unreadable or over the size limit", http.StatusRequestEntityTooLarge)
		return
	}
	// A body byte-identical to one already answered replays that answer
	// undecoded. Only bodies that decoded, normalized and got a 200 are
	// ever linked (serveAnalyze), so a refused body is refused again.
	digest := sha256.Sum256(body)
	if cached, ok := s.cache.getDigest(digest); ok {
		s.writeAnalysis(w, cached, "hit")
		return
	}
	var req AnalyzeRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		http.Error(w, "bad request JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.normalize(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.serveAnalyze(w, r, &req, digest, reqID, isFill, start)
}

// serveAnalyze serves a normalized request from the first tier that can
// answer it: the memory cache, the persistent store, then a coalesced
// leader (peer fill or local analysis under admission control) running
// to its own detached deadline. Every 200 links the request body's
// digest to the entry stored under the canonical key.
func (s *Server) serveAnalyze(w http.ResponseWriter, r *http.Request, req *AnalyzeRequest, digest bodyDigest, reqID string, isFill bool, start time.Time) {
	key := req.cacheKey()
	if cached, ok := s.cache.get(key); ok {
		s.cache.link(digest, key)
		s.writeAnalysis(w, cached, "hit")
		return
	}
	// Memory miss: the persistent store replays across restarts (and
	// quarantines anything damaged rather than serving it).
	if s.cfg.Store != nil {
		if stored, ok := s.cfg.Store.Get(key); ok {
			s.cache.put(key, stored)
			s.cache.link(digest, key)
			s.writeAnalysis(w, stored, "disk")
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// The leader detaches from any single request's context: with
	// coalescing, one analysis may be serving many requests, so it runs to
	// its own deadline even if the initiating client gives up.
	leadCtx, leadCancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	ch := make(chan flightOut, 1)
	go func() {
		defer leadCancel()
		defer func() {
			if p := recover(); p != nil {
				ch <- flightOut{err: fmt.Errorf("analysis panicked: %v", p)}
			}
		}()
		out, err, shared := s.flight.Do(key, func() ([]byte, error) {
			return s.runAnalysis(leadCtx, key, reqID, req, isFill)
		})
		ch <- flightOut{body: out, err: err, shared: shared}
	}()

	select {
	case out := <-ch:
		switch {
		case errors.Is(out.err, errShed):
			s.met.shed.Add(1)
			s.logf("request %s shed: at capacity (queue depth %d)", reqID, s.waiting.Load())
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity, retry later", http.StatusTooManyRequests)
		case errors.Is(out.err, budget.ErrBudget):
			// The configured step budget bounds what this daemon will
			// analyze; the request as posed cannot be processed here.
			s.logf("request %s aborted: %v", reqID, out.err)
			http.Error(w, out.err.Error(), http.StatusUnprocessableEntity)
		case errors.Is(out.err, budget.ErrCanceled):
			// The leader's deadline fired mid-analysis.
			s.logf("request %s aborted: %v", reqID, out.err)
			http.Error(w, out.err.Error(), http.StatusGatewayTimeout)
		case out.err != nil:
			http.Error(w, out.err.Error(), http.StatusInternalServerError)
		default:
			state := "miss"
			if out.shared {
				s.met.coalesced.Add(1)
				state = "coalesced"
			}
			s.cache.link(digest, key)
			s.writeAnalysis(w, out.body, state)
		}
	case <-ctx.Done():
		// The analysis keeps running detached; if it completes it will
		// populate the cache for the retry.
		s.met.timeouts.Add(1)
		s.logf("request %s deadline exceeded after %v", reqID, time.Since(start).Round(time.Millisecond))
		http.Error(w, "analysis deadline exceeded", http.StatusGatewayTimeout)
	}
}

// writeAnalysis sends the encoded response. The body bytes are identical
// whether the request was a cache hit, a coalesced follower, or a fresh
// analysis; X-Subsubd-Cache says which path served it. The declared
// length keeps net/http from switching a body over its 2 KiB buffer to
// chunked encoding.
func (s *Server) writeAnalysis(w http.ResponseWriter, body []byte, state string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Subsubd-Cache", state)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"version\":%q}\n", version.String())
}

// traceSummaryJSON is one flight-recorder entry in the /debug/traces
// listing (spans elided; fetch one trace by id for the full set).
type traceSummaryJSON struct {
	ID       string      `json:"id"`
	Start    time.Time   `json:"start"`
	Duration float64     `json:"duration_seconds"`
	Error    string      `json:"error,omitempty"`
	Spans    int         `json:"spans"`
	Stages   []stageJSON `json:"stages"`
}

// handleTraces serves the flight recorder: GET /debug/traces lists the
// retained request traces newest-first; ?id=<request-id> returns one
// trace with its full span set; &format=chrome re-renders that trace as
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.flightRec == nil {
		http.Error(w, "trace flight recorder disabled (FlightRecorderSize < 0)", http.StatusNotFound)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		rt, ok := s.flightRec.Get(id)
		if !ok {
			http.Error(w, "no retained trace with that id", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			data, err := trace.MarshalChrome(rt.Spans, "subsubd "+rt.ID)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(data)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rt)
		return
	}
	traces := s.flightRec.Snapshot()
	out := struct {
		Total  int64              `json:"total_recorded"`
		Traces []traceSummaryJSON `json:"traces"`
	}{Total: s.flightRec.Total(), Traces: make([]traceSummaryJSON, 0, len(traces))}
	for _, rt := range traces {
		out.Traces = append(out.Traces, traceSummaryJSON{
			ID:       rt.ID,
			Start:    rt.Start,
			Duration: rt.Dur.Seconds(),
			Error:    rt.Error,
			Spans:    len(rt.Spans),
			Stages:   stagesJSON(rt.Stages),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// SetDraining flips the readiness state. The daemon sets it on SIGTERM so
// /readyz fails (stop routing new work here) while in-flight requests
// drain; liveness (/healthz) stays green throughout.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// ready reports whether this instance should receive new work, with the
// reason when it should not.
func (s *Server) ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if s.cfg.MaxQueue > 0 {
		if q := s.waiting.Load(); q >= int64(s.cfg.MaxQueue) {
			return false, "queue full"
		}
	} else if len(s.sem) >= cap(s.sem) {
		// No queue configured: new work is shed while every slot is busy.
		return false, "at capacity"
	}
	return true, "ok"
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	ok, reason := s.ready()
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "{\"ready\":%t,\"reason\":%q}\n", ok, reason)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// statsJSON is the admin view served by /v1/stats.
type statsJSON struct {
	SymbolicCache struct {
		SimplifyHits   int64   `json:"simplify_hits"`
		SimplifyMisses int64   `json:"simplify_misses"`
		CompareHits    int64   `json:"compare_hits"`
		CompareMisses  int64   `json:"compare_misses"`
		Evictions      int64   `json:"evictions"`
		Interned       int64   `json:"interned"`
		Entries        int     `json:"entries"`
		HitRate        float64 `json:"hit_rate"`
	} `json:"symbolic_cache"`
	ResultCache cacheStats `json:"result_cache"`
	// Cluster/Store report fleet membership and persistent-store state
	// when configured.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	Store   *store.Stats   `json:"store,omitempty"`
	// Incr reports the function-granular unit store (nil when disabled).
	Incr *incr.Stats `json:"incr,omitempty"`
	// Faults reports the failpoint registry, so operators and the chaos
	// suite can verify what is armed on a live process.
	Faults struct {
		Armed  bool          `json:"armed"`
		Points []faults.Info `json:"points"`
	} `json:"faults"`
	// Stages is the cumulative per-stage pipeline view across every
	// traced analysis: span counts, cumulative/self time, and the stage
	// counters (budget steps, sign proofs, dependence pairs). Empty when
	// the flight recorder is disabled or nothing has been analyzed.
	Stages []stageJSON `json:"stages"`
	Server struct {
		Requests        int64            `json:"requests"`
		RequestsByCode  map[string]int64 `json:"requests_by_code"`
		Analyses        int64            `json:"analyses"`
		Coalesced       int64            `json:"coalesced"`
		Shed            int64            `json:"shed"`
		Timeouts        int64            `json:"timeouts"`
		Cancellations   int64            `json:"cancellations"`
		BudgetExhausted int64            `json:"budget_exhausted"`
		RecoveredPanics int64            `json:"recovered_panics"`
		PeerFills       int64            `json:"peer_fills"`
		Fallbacks       int64            `json:"fallbacks"`
		QueueDepth      int64            `json:"queue_depth"`
		Inflight        int              `json:"inflight"`
		Workers         int              `json:"workers"`
		Draining        bool             `json:"draining"`
	} `json:"server"`
}

// stageJSON is one pipeline stage's cumulative statistics in /v1/stats.
type stageJSON struct {
	Stage        string           `json:"stage"`
	Spans        int64            `json:"spans"`
	TotalSeconds float64          `json:"total_seconds"`
	SelfSeconds  float64          `json:"self_seconds"`
	MaxSeconds   float64          `json:"max_seconds"`
	Counters     map[string]int64 `json:"counters,omitempty"`
}

func stagesJSON(aggs []trace.StageAgg) []stageJSON {
	out := make([]stageJSON, 0, len(aggs))
	for _, a := range aggs {
		sj := stageJSON{
			Stage:        a.Stage,
			Spans:        a.Count,
			TotalSeconds: a.Total.Seconds(),
			SelfSeconds:  a.Self.Seconds(),
			MaxSeconds:   a.Max.Seconds(),
		}
		for c, v := range a.Counters {
			if v != 0 {
				if sj.Counters == nil {
					sj.Counters = map[string]int64{}
				}
				sj.Counters[trace.Counter(c).String()] = v
			}
		}
		out = append(out, sj)
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	var st statsJSON
	sc := symbolic.ReadCacheStats()
	st.SymbolicCache.SimplifyHits = sc.SimplifyHits
	st.SymbolicCache.SimplifyMisses = sc.SimplifyMisses
	st.SymbolicCache.CompareHits = sc.CompareHits
	st.SymbolicCache.CompareMisses = sc.CompareMisses
	st.SymbolicCache.Evictions = sc.Evictions
	st.SymbolicCache.Interned = sc.Interned
	st.SymbolicCache.Entries = sc.Entries
	st.SymbolicCache.HitRate = sc.HitRate()
	st.ResultCache = s.cache.stats()
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Stats()
		st.Cluster = &cs
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		st.Store = &ss
	}
	if s.incr != nil {
		ist := s.incr.Stats()
		st.Incr = &ist
	}
	st.Faults.Armed = faults.Armed()
	st.Faults.Points = faults.List()
	st.Stages = stagesJSON(s.stages.snapshot())
	st.Server.Requests = s.met.requests.Load()
	st.Server.RequestsByCode = s.met.codes.snapshot()
	st.Server.PeerFills = s.met.peerFills.Load()
	st.Server.Fallbacks = s.met.fallbacks.Load()
	st.Server.Analyses = s.met.analyses.Load()
	st.Server.Coalesced = s.met.coalesced.Load()
	st.Server.Shed = s.met.shed.Load()
	st.Server.Timeouts = s.met.timeouts.Load()
	st.Server.Cancellations = s.met.cancellations.Load()
	st.Server.BudgetExhausted = s.met.budgetExhausted.Load()
	st.Server.RecoveredPanics = s.met.recoveredPanics.Load()
	st.Server.QueueDepth = s.waiting.Load()
	st.Server.Inflight = len(s.sem)
	st.Server.Workers = cap(s.sem)
	st.Server.Draining = s.draining.Load()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
