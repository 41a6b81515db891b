package server

// Serving metrics in Prometheus text exposition format, stdlib only: plain
// counters/gauges plus a fixed-bucket latency histogram from which p50 and
// p99 are estimated. The symbolic engine's memoization counters
// (symbolic.ReadCacheStats) are surfaced alongside, so the analysis-level
// cache is observable through the same scrape as the serving-level one.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/symbolic"
	"repro/internal/trace"
)

// latencyBuckets are the default histogram bounds in seconds (request
// latencies). Observations above the last bound land in the implicit
// +Inf bucket.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// stageBuckets are the bounds for per-stage span durations, which sit
// well below request latencies (a phase1 span is typically tens of
// microseconds).
var stageBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// histogram is a fixed-bucket latency histogram safe for concurrent use.
// The zero value uses latencyBuckets; set bounds before the first
// observation for custom buckets.
type histogram struct {
	once     sync.Once
	bounds   []float64
	counts   []atomic.Int64 // len(bounds)+1; last slot = +Inf
	total    atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) lazyInit() {
	h.once.Do(func() {
		if h.bounds == nil {
			h.bounds = latencyBuckets
		}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
	})
}

func (h *histogram) observe(d time.Duration) {
	h.lazyInit()
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumNanos.Add(int64(d))
}

// quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation inside the bucket containing the target rank. Observations
// in the +Inf bucket are reported as the last finite bound.
func (h *histogram) quantile(q float64) float64 {
	h.lazyInit()
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			return lo + (h.bounds[i]-lo)*((target-cum)/n)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// writeBuckets renders the cumulative bucket/sum/count series of one
// histogram, with optional extra labels (e.g. stage="phase1").
func (h *histogram) writeBuckets(w io.Writer, name, labels string) {
	h.lazyInit()
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, fmtFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(float64(h.sumNanos.Load())/1e9))
		fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, fmtFloat(float64(h.sumNanos.Load())/1e9))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.total.Load())
	}
}

// stageStats accumulates per-stage span statistics across every traced
// analysis the daemon has run: a latency histogram per stage plus the
// cumulative aggregate (span count, total/self time, counters).
type stageStats struct {
	mu sync.Mutex
	m  map[string]*stageEntry
}

type stageEntry struct {
	agg  trace.StageAgg
	hist *histogram
}

// record folds one analysis's per-stage aggregates and spans in.
func (ss *stageStats) record(aggs []trace.StageAgg, spans []trace.Span) {
	ss.mu.Lock()
	if ss.m == nil {
		ss.m = map[string]*stageEntry{}
	}
	for _, a := range aggs {
		e := ss.m[a.Stage]
		if e == nil {
			e = &stageEntry{agg: trace.StageAgg{Stage: a.Stage}, hist: &histogram{bounds: stageBuckets}}
			ss.m[a.Stage] = e
		}
		e.agg.Count += a.Count
		e.agg.Total += a.Total
		e.agg.Self += a.Self
		if a.Max > e.agg.Max {
			e.agg.Max = a.Max
		}
		for i := range a.Counters {
			e.agg.Counters[i] += a.Counters[i]
		}
	}
	hists := make(map[string]*histogram, len(ss.m))
	for stage, e := range ss.m {
		hists[stage] = e.hist
	}
	ss.mu.Unlock()
	// Histograms are internally atomic; observe outside the lock.
	for _, sp := range spans {
		if h := hists[sp.Stage]; h != nil {
			h.observe(sp.Dur)
		}
	}
}

// snapshot returns the cumulative per-stage aggregates, sorted by total
// time descending (the same order trace.Aggregate uses).
func (ss *stageStats) snapshot() []trace.StageAgg {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]trace.StageAgg, 0, len(ss.m))
	for _, e := range ss.m {
		out = append(out, e.agg)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// writeTo renders the per-stage span histograms as one labelled
// Prometheus histogram family.
func (ss *stageStats) writeTo(w io.Writer) {
	ss.mu.Lock()
	stages := make([]string, 0, len(ss.m))
	hists := make(map[string]*histogram, len(ss.m))
	for stage, e := range ss.m {
		stages = append(stages, stage)
		hists[stage] = e.hist
	}
	ss.mu.Unlock()
	if len(stages) == 0 {
		return
	}
	sort.Strings(stages)
	fmt.Fprintf(w, "# HELP subsubd_stage_seconds Pipeline span duration by stage.\n# TYPE subsubd_stage_seconds histogram\n")
	for _, stage := range stages {
		hists[stage].writeBuckets(w, "subsubd_stage_seconds", fmt.Sprintf("stage=%q", stage))
	}
}

// codeCounters counts completed analyze requests by HTTP status code, so
// malformed requests (400) are distinguishable from internal failures
// (500) on the same scrape — the split the chaos suite asserts on.
type codeCounters struct {
	mu sync.Mutex
	m  map[int]*atomic.Int64
}

func (c *codeCounters) inc(code int) {
	if code <= 0 {
		return // connection aborted before any status was written
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = map[int]*atomic.Int64{}
	}
	ctr := c.m[code]
	if ctr == nil {
		ctr = &atomic.Int64{}
		c.m[code] = ctr
	}
	c.mu.Unlock()
	ctr.Add(1)
}

// snapshot returns the per-code counts keyed by the code's decimal
// string (the /v1/stats JSON form).
func (c *codeCounters) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for code, ctr := range c.m {
		out[strconv.Itoa(code)] = ctr.Load()
	}
	return out
}

// writeTo renders the labelled subsubd_requests_total family, codes
// ascending.
func (c *codeCounters) writeTo(w io.Writer) {
	c.mu.Lock()
	codes := make([]int, 0, len(c.m))
	for code := range c.m {
		codes = append(codes, code)
	}
	counts := make(map[int]int64, len(c.m))
	for code, ctr := range c.m {
		counts[code] = ctr.Load()
	}
	c.mu.Unlock()
	sort.Ints(codes)
	fmt.Fprintf(w, "# HELP subsubd_requests_total Analyze requests completed, by response code.\n# TYPE subsubd_requests_total counter\n")
	for _, code := range codes {
		fmt.Fprintf(w, "subsubd_requests_total{code=%q} %d\n", strconv.Itoa(code), counts[code])
	}
}

// metrics aggregates the serving counters that are not owned by the cache.
type metrics struct {
	requests  atomic.Int64 // POST /v1/analyze requests received
	codes     codeCounters // completed requests by HTTP status code
	analyses  atomic.Int64 // analyses actually executed (post-cache, post-coalescing)
	coalesced atomic.Int64 // requests served by joining an in-flight analysis
	shed      atomic.Int64 // requests rejected with 429 by admission control
	timeouts  atomic.Int64 // requests that hit the per-request deadline
	// Robustness counters (PR 4): typed resource aborts and contained
	// crashes, each observable per scrape.
	cancellations   atomic.Int64 // analyses aborted by context cancellation/deadline
	budgetExhausted atomic.Int64 // analyses aborted by the step budget
	recoveredPanics atomic.Int64 // per-function panics contained into diagnostics
	// Fleet counters (PR 9): misses served by the owning peer, and peer
	// failures degraded to local compute.
	peerFills atomic.Int64 // misses filled from the owning peer
	fallbacks atomic.Int64 // peer-fill failures degraded to local analysis
	latency   histogram
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeMetric(w io.Writer, name, kind, help string, value string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, kind, name, value)
}

func writeCounter(w io.Writer, name, help string, v int64) {
	writeMetric(w, name, "counter", help, strconv.FormatInt(v, 10))
}

func writeGauge(w io.Writer, name, help string, v float64) {
	writeMetric(w, name, "gauge", help, fmtFloat(v))
}

// writeMetrics renders the full scrape: serving counters, admission
// gauges, the latency histogram with p50/p99, result-cache counters, and
// the symbolic engine's memoization counters.
func (s *Server) writeMetrics(w io.Writer) {
	m := &s.met
	m.codes.writeTo(w)
	writeCounter(w, "subsubd_analyses_total", "Analyses executed (cache misses that were not coalesced).", m.analyses.Load())
	writeCounter(w, "subsubd_coalesced_total", "Requests served by joining an identical in-flight analysis.", m.coalesced.Load())
	writeCounter(w, "subsubd_shed_total", "Requests rejected with 429 by admission control.", m.shed.Load())
	writeCounter(w, "subsubd_timeouts_total", "Requests that exceeded the per-request deadline.", m.timeouts.Load())
	writeCounter(w, "subsubd_cancellations_total", "Analyses aborted by cancellation or deadline.", m.cancellations.Load())
	writeCounter(w, "subsubd_budget_exhausted_total", "Analyses aborted by the step budget.", m.budgetExhausted.Load())
	writeCounter(w, "subsubd_recovered_panics_total", "Per-function analysis panics contained into diagnostics.", m.recoveredPanics.Load())
	writeGauge(w, "subsubd_queue_depth", "Analyses waiting for a worker slot.", float64(s.waiting.Load()))
	writeGauge(w, "subsubd_inflight", "Analyses currently holding a worker slot.", float64(len(s.sem)))
	writeGauge(w, "subsubd_workers", "Configured worker-slot capacity.", float64(cap(s.sem)))

	// Fleet counters and per-peer health/breaker series (only when the
	// daemon is clustered).
	writeCounter(w, "subsubd_peer_fills_total", "Misses filled from the key's owning peer.", m.peerFills.Load())
	writeCounter(w, "subsubd_fallbacks_total", "Peer-fill failures degraded to local analysis.", m.fallbacks.Load())
	if s.cfg.Cluster != nil {
		cst := s.cfg.Cluster.Stats()
		if len(cst.Peers) > 0 {
			fmt.Fprintf(w, "# HELP subsubd_peer_up 1 when the peer's last health probe succeeded.\n# TYPE subsubd_peer_up gauge\n")
			for _, p := range cst.Peers {
				up := 0
				if p.Up {
					up = 1
				}
				fmt.Fprintf(w, "subsubd_peer_up{peer=%q} %d\n", p.Name, up)
			}
			fmt.Fprintf(w, "# HELP subsubd_peer_breaker_state Circuit breaker state (0=closed, 1=half-open, 2=open).\n# TYPE subsubd_peer_breaker_state gauge\n")
			for _, p := range cst.Peers {
				state := map[string]int{"closed": 0, "half-open": 1, "open": 2}[p.Breaker]
				fmt.Fprintf(w, "subsubd_peer_breaker_state{peer=%q} %d\n", p.Name, state)
			}
			fmt.Fprintf(w, "# HELP subsubd_peer_breaker_opens_total Circuit breaker open transitions.\n# TYPE subsubd_peer_breaker_opens_total counter\n")
			for _, p := range cst.Peers {
				fmt.Fprintf(w, "subsubd_peer_breaker_opens_total{peer=%q} %d\n", p.Name, p.Opens)
			}
			fmt.Fprintf(w, "# HELP subsubd_peer_fill_failures_total Failed fill attempts per peer.\n# TYPE subsubd_peer_fill_failures_total counter\n")
			for _, p := range cst.Peers {
				fmt.Fprintf(w, "subsubd_peer_fill_failures_total{peer=%q} %d\n", p.Name, p.Failures)
			}
			fmt.Fprintf(w, "# HELP subsubd_peer_fast_fails_total Fills rejected without I/O (peer down or breaker open).\n# TYPE subsubd_peer_fast_fails_total counter\n")
			for _, p := range cst.Peers {
				fmt.Fprintf(w, "subsubd_peer_fast_fails_total{peer=%q} %d\n", p.Name, p.FastFails)
			}
		}
	}

	// Persistent result store (only when -store-dir is set).
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		writeCounter(w, "subsubd_store_hits_total", "Disk result-store hits.", st.Hits)
		writeCounter(w, "subsubd_store_misses_total", "Disk result-store misses.", st.Misses)
		writeCounter(w, "subsubd_store_writes_total", "Entries written to the disk store.", st.Writes)
		writeCounter(w, "subsubd_store_write_errors_total", "Failed disk-store writes.", st.WriteErrors)
		writeCounter(w, "subsubd_store_evictions_total", "Disk-store LRU evictions.", st.Evictions)
		writeCounter(w, "subsubd_store_quarantined_total", "Damaged entries quarantined to .bad files.", st.Quarantined)
		writeCounter(w, "subsubd_store_tmp_cleaned_total", "Interrupted-write temp files removed at open.", st.TmpCleaned)
		writeGauge(w, "subsubd_store_entries", "Entries currently in the disk store.", float64(st.Entries))
		writeGauge(w, "subsubd_store_bytes", "Bytes currently in the disk store.", float64(st.Bytes))
	}

	// Function-granular incremental reuse: the unit store under every
	// analysis.
	if s.incr != nil {
		ist := s.incr.Stats()
		writeCounter(w, "subsubd_incr_func_hits_total", "Per-function Pass-1 unit cache hits.", ist.FuncHits)
		writeCounter(w, "subsubd_incr_func_misses_total", "Per-function Pass-1 unit cache misses.", ist.FuncMisses)
		writeCounter(w, "subsubd_incr_plan_hits_total", "Per-function Pass-2 plan cache hits.", ist.PlanHits)
		writeCounter(w, "subsubd_incr_plan_misses_total", "Per-function Pass-2 plan cache misses.", ist.PlanMisses)
		writeCounter(w, "subsubd_incr_evictions_total", "Incremental unit-store LRU evictions.", ist.Evictions)
		writeGauge(w, "subsubd_incr_units", "Per-function units currently cached.", float64(ist.Units))
	}

	cs := s.cache.stats()
	writeCounter(w, "subsubd_cache_hits_total", "Content-addressed result cache hits.", cs.Hits)
	writeCounter(w, "subsubd_cache_misses_total", "Content-addressed result cache misses.", cs.Misses)
	writeCounter(w, "subsubd_cache_evictions_total", "Result cache LRU evictions.", cs.Evictions)
	writeGauge(w, "subsubd_cache_entries", "Responses currently cached.", float64(cs.Entries))
	writeGauge(w, "subsubd_cache_bytes", "Bytes of response bodies currently cached.", float64(cs.Bytes))

	// Latency histogram with estimated quantiles.
	h := &m.latency
	fmt.Fprintf(w, "# HELP subsubd_request_seconds Analyze request latency.\n# TYPE subsubd_request_seconds histogram\n")
	h.writeBuckets(w, "subsubd_request_seconds", "")
	writeGauge(w, "subsubd_request_seconds_p50", "Estimated median analyze latency.", h.quantile(0.50))
	writeGauge(w, "subsubd_request_seconds_p99", "Estimated p99 analyze latency.", h.quantile(0.99))

	// Per-stage pipeline span histograms (populated only while the trace
	// flight recorder is enabled).
	s.stages.writeTo(w)
	if s.flightRec != nil {
		writeCounter(w, "subsubd_traced_requests_total", "Analyses recorded by the trace flight recorder.", s.flightRec.Total())
		writeGauge(w, "subsubd_flight_recorder_traces", "Request traces currently retained.", float64(s.flightRec.Len()))
	}

	// Go runtime health: scheduler and heap pressure alongside the
	// serving counters, so one scrape answers "is it the daemon or the
	// runtime".
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeGauge(w, "subsubd_goroutines", "Current number of goroutines.", float64(runtime.NumGoroutine()))
	writeGauge(w, "subsubd_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	writeGauge(w, "subsubd_heap_sys_bytes", "Bytes of heap obtained from the OS.", float64(ms.HeapSys))
	writeCounter(w, "subsubd_gc_cycles_total", "Completed GC cycles.", int64(ms.NumGC))
	writeGauge(w, "subsubd_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9)

	// Symbolic-engine memoization (the PR 1 caches), finally observable in
	// a running service.
	sc := symbolic.ReadCacheStats()
	writeCounter(w, "subsubd_symbolic_simplify_hits_total", "Symbolic Simplify memo hits.", sc.SimplifyHits)
	writeCounter(w, "subsubd_symbolic_simplify_misses_total", "Symbolic Simplify memo misses.", sc.SimplifyMisses)
	writeCounter(w, "subsubd_symbolic_compare_hits_total", "Symbolic canonical-string memo hits.", sc.CompareHits)
	writeCounter(w, "subsubd_symbolic_compare_misses_total", "Symbolic canonical-string memo misses.", sc.CompareMisses)
	writeCounter(w, "subsubd_symbolic_evictions_total", "Symbolic cache whole-shard evictions.", sc.Evictions)
	writeGauge(w, "subsubd_symbolic_interned", "Distinct interned symbolic expressions.", float64(sc.Interned))
	writeGauge(w, "subsubd_symbolic_entries", "Memoized Simplify results currently held.", float64(sc.Entries))
	writeGauge(w, "subsubd_symbolic_hit_rate", "Combined symbolic cache hit fraction.", sc.HitRate())
}
