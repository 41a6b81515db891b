// Command subsubd serves the subscripted-subscript recurrence analysis
// over HTTP: POST /v1/analyze takes JSON sources + options and returns the
// same JSON encoding `subsubcc -json` prints, byte-identical. The daemon
// layers a content-addressed result cache, request coalescing and
// admission control over the analysis (see internal/server), exposes
// Prometheus metrics on GET /metrics and an admin view on GET /v1/stats,
// and drains gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	subsubd [-addr :8723] [-workers N] [-queue N] [-analysis-workers N]
//	        [-cache-entries N] [-cache-bytes N] [-timeout D] [-budget N]
//	        [-drain D] [-flight N] [-admin addr] [-incr-entries N]
//	        [-node name -peers name=url,name=url] [-store-dir dir]
//
// Incremental mode (on by default): every analysis runs over a
// process-level function-granular unit store (internal/incr), so an
// edit is one more POST /v1/analyze of the edited source, and only the
// dirty functions re-analyze. -incr-entries bounds the store; -1
// disables it.
//
// GET /healthz is the liveness probe (always 200 while the process
// serves, reporting the build version); GET /readyz is the readiness
// probe (503 while draining or while the admission queue is at the shed
// threshold). -budget bounds each analysis in abstract work steps;
// exceeding it returns 422.
//
// Fleet mode: -node names this daemon and -peers lists the other fleet
// members; the fleet consistent-hashes request digests so each key has
// one owning node, and misses on non-owners are filled from the owner
// (internal/cluster). Peer failures degrade gracefully — health probes,
// per-peer circuit breakers, and bounded retries bound the cost, and any
// fill failure falls back to computing locally, so clients never see
// fleet-internal errors. -store-dir adds a crash-safe on-disk result
// store (internal/store) under the in-memory cache, bounded by
// -store-bytes, so a restarted daemon serves its working set warm.
//
// Every executed analysis runs under the pipeline trace recorder; the
// last -flight request traces are retained in memory and served by GET
// /debug/traces (list, ?id= for one trace, &format=chrome for a Chrome
// trace-event rendering), and their per-stage aggregates feed the
// subsubd_stage_seconds metrics. -flight -1 disables tracing. -admin
// binds a second, loopback-only listener exposing net/http/pprof at
// /debug/pprof/ alongside the same observability endpoints — keep it
// off any externally reachable address.
//
//	subsubd -selfcheck examples/daemon/request.json
//
// The -selfcheck form is the `make serve-smoke` gate: it binds an
// ephemeral loopback port, fires the given request three times over real
// HTTP (expecting a cache miss, a hit on the same request bytes, then a
// hit on the same request re-encoded in other bytes, which only the
// canonical key finds), validates the JSON, checks /metrics (two hits,
// one miss) and /v1/health, then shuts down gracefully.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/version"
)

func main() {
	addr := flag.String("addr", ":8723", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent analyses (worker slots)")
	queue := flag.Int("queue", 64, "analyses that may wait for a slot before requests are shed with 429 (negative: no queue)")
	analysisWorkers := flag.Int("analysis-workers", 1, "per-analysis fan-out (core worker pool per request)")
	cacheEntries := flag.Int("cache-entries", 1024, "max responses in the content-addressed cache")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "max response bytes in the content-addressed cache")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request analysis deadline")
	budgetSteps := flag.Int64("budget", 0, "per-analysis step budget; exceeding it fails the request with 422 (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	flight := flag.Int("flight", 32, "request traces retained for /debug/traces (negative: disable tracing)")
	incrEntries := flag.Int("incr-entries", 0, "max per-function units in the incremental analysis store (0: default 4096; negative: disable incremental reuse)")
	admin := flag.String("admin", "", "admin listen address exposing net/http/pprof (e.g. 127.0.0.1:8724; empty: disabled)")
	node := flag.String("node", "", "this node's fleet name (required with -peers)")
	peersFlag := flag.String("peers", "", "comma-separated fleet peers as name=baseURL (e.g. b=http://10.0.0.2:8723,c=http://10.0.0.3:8723)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "peer health-probe interval")
	fillTimeout := flag.Duration("fill-timeout", 5*time.Second, "per-attempt peer-fill timeout")
	fillRetries := flag.Int("fill-retries", 1, "retries after a failed peer-fill attempt (0: none)")
	storeDir := flag.String("store-dir", "", "directory for the crash-safe on-disk result store (empty: disabled)")
	storeBytes := flag.Int64("store-bytes", 256<<20, "max bytes in the on-disk result store")
	selfcheck := flag.String("selfcheck", "", "smoke mode: serve on an ephemeral port, replay this request file, verify, exit")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("subsubd %s\n", version.String())
		return
	}

	cfg := server.Config{
		Workers:         *workers,
		MaxQueue:        *queue,
		AnalysisWorkers: *analysisWorkers,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		RequestTimeout:  *timeout,
		MaxSteps:        *budgetSteps,
		FlightRecorderSize: func() int {
			if *flight < 0 {
				return -1
			}
			return *flight
		}(),
		IncrEntries: *incrEntries,
		Logf:        log.Printf,
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, *storeBytes)
		if err != nil {
			log.Fatalf("subsubd: store: %v", err)
		}
		cfg.Store = st
		log.Printf("subsubd store at %s (max %d bytes, %d entries warm)",
			*storeDir, *storeBytes, st.Len())
	}

	var cl *cluster.Cluster
	if *peersFlag != "" || *node != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			log.Fatalf("subsubd: %v", err)
		}
		retries := *fillRetries
		if retries <= 0 {
			retries = -1 // cluster.Config treats 0 as "use the default"
		}
		cl, err = cluster.New(cluster.Config{
			Self:          *node,
			Peers:         peers,
			ProbeInterval: *probeInterval,
			FillTimeout:   *fillTimeout,
			Retries:       retries,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatalf("subsubd: %v", err)
		}
		cfg.Cluster = cl
		cfg.NodeName = *node
	}

	handler := server.New(cfg)

	if *selfcheck != "" {
		if err := runSelfcheck(handler, *selfcheck); err != nil {
			log.Fatalf("subsubd selfcheck: %v", err)
		}
		fmt.Println("subsubd selfcheck ok")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("subsubd: %v", err)
	}
	log.Printf("subsubd %s listening on %s (workers=%d queue=%d cache=%d entries/%d bytes)",
		version.String(), ln.Addr(), *workers, *queue, *cacheEntries, *cacheBytes)
	if cl != nil {
		cl.Start()
		log.Printf("subsubd fleet node %q with %d peers", *node, len(cl.Stats().Peers))
	}

	if *admin != "" {
		adminLn, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("subsubd: admin listener: %v", err)
		}
		log.Printf("subsubd admin (pprof) listening on %s", adminLn.Addr())
		go func() {
			if err := http.Serve(adminLn, adminMux(handler)); err != nil {
				log.Printf("subsubd: admin listener: %v", err)
			}
		}()
	}

	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		log.Fatalf("subsubd: %v", err)
	case <-ctx.Done():
	}
	stop()
	// Fail /readyz first so load balancers stop routing new work here;
	// /healthz stays green while in-flight requests drain. Then stop the
	// cluster: outstanding peer fills abort and degrade to local compute,
	// so the drain below can never hang on a stalled peer.
	handler.SetDraining(true)
	if cl != nil {
		cl.Stop()
	}
	log.Printf("subsubd draining (up to %v)...", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Fatalf("subsubd: drain: %v", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("subsubd: store close: %v", err)
		}
	}
	log.Printf("subsubd stopped")
}

// parsePeers parses the -peers flag: comma-separated name=baseURL pairs.
func parsePeers(s string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=baseURL)", part)
		}
		peers = append(peers, cluster.Peer{Name: name, URL: url})
	}
	return peers, nil
}

// adminMux builds the opt-in admin handler: the Go profiler under
// /debug/pprof/ plus the daemon's own observability endpoints, so one
// loopback port answers both "what is the process doing" (pprof) and
// "what did the pipeline do" (traces, stats, metrics).
func adminMux(handler *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", handler)
	mux.Handle("/metrics", handler)
	mux.Handle("/v1/stats", handler)
	mux.Handle("/healthz", handler)
	return mux
}

// runSelfcheck serves on an ephemeral loopback port and drives one full
// serving cycle through the real HTTP stack: a miss, a hit found by the
// request bytes, and a hit found by the canonical key.
func runSelfcheck(handler *server.Server, reqPath string) error {
	reqBody, err := os.ReadFile(reqPath)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	post := func(reqBody []byte) (*http.Response, []byte, error) {
		resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	// First request: a fresh analysis.
	resp, body, err := post(reqBody)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("analyze: %s: %s", resp.Status, body)
	}
	if state := resp.Header.Get("X-Subsubd-Cache"); state != "miss" {
		return fmt.Errorf("first request: cache state %q, want miss", state)
	}
	firstID := resp.Header.Get("X-Request-Id")
	if firstID == "" {
		return fmt.Errorf("first request: no X-Request-Id header")
	}
	var batch core.BatchJSON
	if err := json.Unmarshal(body, &batch); err != nil {
		return fmt.Errorf("response is not the batch JSON format: %v", err)
	}
	if len(batch.Results) == 0 {
		return fmt.Errorf("no results in response")
	}
	parallel := 0
	for _, r := range batch.Results {
		if r.Error != "" {
			return fmt.Errorf("result %s failed: %s", r.Name, r.Error)
		}
		for _, l := range r.Loops {
			if l.Parallel {
				parallel++
			}
		}
	}
	if parallel == 0 {
		return fmt.Errorf("expected at least one parallelized loop in the example request")
	}

	// Second request, the same bytes: byte-identical replay from the
	// cache, found by the digest of the request body.
	resp2, body2, err := post(reqBody)
	if err != nil {
		return err
	}
	if state := resp2.Header.Get("X-Subsubd-Cache"); state != "hit" {
		return fmt.Errorf("second request: cache state %q, want hit", state)
	}
	if !bytes.Equal(body, body2) {
		return fmt.Errorf("cache replay is not byte-identical")
	}

	// Third request, the same request in other bytes: the body digest
	// misses, so the hit comes through the canonical key.
	var other bytes.Buffer
	if err := json.Compact(&other, reqBody); err != nil {
		return err
	}
	if bytes.Equal(other.Bytes(), reqBody) {
		other.WriteByte('\n')
	}
	resp3, body3, err := post(other.Bytes())
	if err != nil {
		return err
	}
	if state := resp3.Header.Get("X-Subsubd-Cache"); state != "hit" {
		return fmt.Errorf("re-encoded request: %s, cache state %q, want hit", resp3.Status, state)
	}
	if !bytes.Equal(body, body3) {
		return fmt.Errorf("re-encoded request: cache replay is not byte-identical")
	}

	// Observability endpoints.
	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return string(b), nil
	}
	metrics, err := get("/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"subsubd_cache_hits_total 2\n", "subsubd_cache_misses_total 1\n", "subsubd_analyses_total 1\n",
		"subsubd_stage_seconds_bucket{stage=\"phase1\"", "subsubd_goroutines",
		"subsubd_incr_func_misses_total",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}
	if health, err := get("/v1/health"); err != nil || !strings.Contains(health, "ok") ||
		!strings.Contains(health, "version") {
		return fmt.Errorf("health check failed: %q, %v", health, err)
	}
	stats, err := get("/v1/stats")
	if err != nil {
		return err
	}
	if !strings.Contains(stats, "\"stage\": \"phase1\"") {
		return fmt.Errorf("/v1/stats missing phase1 stage aggregates")
	}

	// The flight recorder must hold exactly the one executed analysis
	// (the cache hits never reached the pipeline), under the first
	// request's ID, with pipeline spans attached.
	tracesBody, err := get("/debug/traces")
	if err != nil {
		return err
	}
	var traces struct {
		Total  int64 `json:"total_recorded"`
		Traces []struct {
			ID     string `json:"id"`
			Spans  int    `json:"spans"`
			Stages []struct {
				Stage string `json:"stage"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(tracesBody), &traces); err != nil {
		return fmt.Errorf("/debug/traces: %v", err)
	}
	if traces.Total != 1 || len(traces.Traces) != 1 {
		return fmt.Errorf("/debug/traces: recorded %d traces, want 1", traces.Total)
	}
	rt := traces.Traces[0]
	if rt.ID != firstID {
		return fmt.Errorf("/debug/traces: trace id %q, want first request id %q", rt.ID, firstID)
	}
	if rt.Spans == 0 {
		return fmt.Errorf("/debug/traces: trace has no spans")
	}
	hasPhase1 := false
	for _, st := range rt.Stages {
		if st.Stage == "phase1" {
			hasPhase1 = true
		}
	}
	if !hasPhase1 {
		return fmt.Errorf("/debug/traces: trace has no phase1 stage aggregate")
	}
	chrome, err := get("/debug/traces?id=" + rt.ID + "&format=chrome")
	if err != nil {
		return err
	}
	if !strings.Contains(chrome, "traceEvents") {
		return fmt.Errorf("/debug/traces chrome rendering missing traceEvents")
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}
