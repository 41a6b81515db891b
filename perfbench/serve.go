package main

// The serve-mix workload: the subsubd daemon — internal/server with the
// daemon's default configuration — on a loopback port, driven by one client
// that sends its next request when the last one is answered, so each
// latency is the service time of one request, without queueing.
//
// The traffic combines the two request models the repository already
// measures. Which document a request is about follows the serve
// experiment's key model (internal/bench/serve.go, BENCH_serve.json):
// Zipf with s = 1.2 over 64 keys. What happens to that document follows
// the incr experiment's edit model (internal/bench/incr.go,
// BENCH_incr.json): the document is resubmitted unchanged, which the result
// cache answers, or resubmitted with a one-statement edit in one function
// relative to its original text, which misses the result cache and is
// served by the unit store replaying the clean functions. Neither
// experiment says how often users edit, so the edit share is an assumption:
// one half, so that both serving paths get the same share of requests.
// Replace it once the repository records real traffic.
//
// Every response to one request body must be identical, and a seeded
// sample of distinct bodies must match a cold local analysis byte for byte.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/cminus"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/server"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

const (
	// serveDocs and serveZipfS are the serve experiment's key model:
	// document k is corpus program k mod 15 under a prefix of its own.
	serveDocs  = 64
	serveZipfS = 1.2
	// serveEdit is the share of requests that edit their document: an
	// assumption, see above.
	serveEdit = 0.5
	// serveVerify caps how many distinct bodies are re-analyzed locally.
	serveVerify = 300
)

// request is one distinct request body and a digest of the response it got.
type request struct {
	name   string
	src    string
	assume []string
	body   []byte

	resp      *[sha256.Size]byte
	responses int
	mismatch  int
}

// record keeps the first response's digest and counts responses that
// differ from it.
func (q *request) record(resp []byte) {
	sum := sha256.Sum256(resp)
	q.responses++
	if q.resp == nil {
		q.resp = &sum
	} else if *q.resp != sum {
		q.mismatch++
	}
}

func newRequest(name, src string, assume []string) (*request, error) {
	assume = append([]string(nil), assume...)
	sort.Strings(assume)
	body, err := json.Marshal(server.AnalyzeRequest{
		Sources:  []server.SourceJSON{{Name: name, Src: src}},
		Level:    "new",
		Assume:   assume,
		Annotate: true,
	})
	if err != nil {
		return nil, err
	}
	return &request{name: name, src: src, assume: assume, body: body}, nil
}

// document is one key of the traffic: a program in its original text and
// the functions an edit can touch.
type document struct {
	orig  *request
	funcs []string
}

// mix draws the request sequence, a function of the seed alone.
type mix struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	docs     []document
	distinct []*request // every distinct request, in order
	edits    int
}

func newMix(seed int64, programs []*template) (*mix, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &mix{rng: rng, zipf: rand.NewZipf(rng, serveZipfS, 1, serveDocs-1)}
	names := newPrefixes(seed)
	for k := 0; k < serveDocs; k++ {
		p := programs[k%len(programs)].with(names.next())
		prog, err := cminus.Parse(p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.bench.Name, err)
		}
		q, err := newRequest(p.bench.Name+".c", p.src, p.assume)
		if err != nil {
			return nil, err
		}
		doc := document{orig: q}
		for _, f := range prog.Funcs {
			doc.funcs = append(doc.funcs, f.Name)
		}
		g.docs = append(g.docs, doc)
		g.distinct = append(g.distinct, q)
	}
	return g, nil
}

// next draws the next request and its kind: the document's program and
// whether the request resubmits or edits it.
func (g *mix) next() (*request, string, error) {
	doc := g.docs[g.zipf.Uint64()]
	if g.rng.Float64() >= serveEdit {
		return doc.orig, doc.orig.name + "/resubmit", nil
	}
	g.edits++
	src, err := withEdit(doc.orig.src, doc.funcs[g.rng.Intn(len(doc.funcs))], g.edits)
	if err != nil {
		return nil, "", err
	}
	q, err := newRequest(doc.orig.name, src, doc.orig.assume)
	if err != nil {
		return nil, "", err
	}
	g.distinct = append(g.distinct, q)
	return q, doc.orig.name + "/edit", nil
}

// daemon is a running server on a loopback port and a client for it.
type daemon struct {
	url    string
	hs     *http.Server
	served chan struct{}
	client *http.Client
	mix    *mix
}

func startDaemon(seed int64, programs []*template) (*daemon, error) {
	m, err := newMix(seed, programs)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		url:    "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: server.New(server.Config{})},
		served: make(chan struct{}),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		},
		mix: m,
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop closes the server and waits for its accept loop to return.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
}

// post sends one analyze request and returns the response body and which
// serving path answered it.
func (d *daemon) post(body []byte) ([]byte, string, error) {
	resp, err := d.client.Post(d.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, resp.Header.Get("X-Subsubd-Cache"), nil
}

// serverStats is the part of /v1/stats the per-layer metrics read.
type serverStats struct {
	Stages []struct {
		Stage       string           `json:"stage"`
		SelfSeconds float64          `json:"self_seconds"`
		Counters    map[string]int64 `json:"counters"`
	} `json:"stages"`
	Incr struct {
		FuncHits   int64 `json:"func_hits"`
		FuncMisses int64 `json:"func_misses"`
	} `json:"incr"`
}

func (d *daemon) stats() (*serverStats, error) {
	resp, err := d.client.Get(d.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return &st, nil
}

// stageDelta adds the stage work the server recorded between two stats
// snapshots to totals.
func stageDelta(totals *stageTotals, before, after *serverStats) {
	prior := map[string]int{}
	for i, s := range before.Stages {
		prior[s.Stage] = i
	}
	for _, s := range after.Stages {
		self := s.SelfSeconds
		var counters [trace.NumCounters]int64
		for c := range counters {
			counters[c] = s.Counters[trace.Counter(c).String()]
		}
		if i, ok := prior[s.Stage]; ok {
			b := before.Stages[i]
			self -= b.SelfSeconds
			for c := range counters {
				counters[c] -= b.Counters[trace.Counter(c).String()]
			}
		}
		totals.addStage(s.Stage, time.Duration(self*float64(time.Second)), counters)
	}
}

func runServe(cfg config) (*run, error) {
	programs, err := newTemplates(corpus.Extended())
	if err != nil {
		return nil, err
	}
	d, setup, err := setUp(func(rep int) (*daemon, error) {
		// A fresh daemon process starts with an empty symbolic memo.
		symbolic.ResetCache()
		d, err := startDaemon(cfg.seed*1000003+int64(rep), programs)
		if err != nil {
			return nil, err
		}
		// Every document is submitted once, so a resubmit has something
		// to repeat.
		for _, doc := range d.mix.docs {
			out, _, err := d.post(doc.orig.body)
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("priming: %w", err)
			}
			doc.orig.record(out)
		}
		return d, nil
	}, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	r := newRun(setup)
	var (
		hitLat, missLat = map[string][]time.Duration{}, map[string][]time.Duration{}
		allocs          allocMeter
		sym             symbolic.CacheStats
		before          *serverStats
		statsErr        error
	)
	measure(r, cfg.window, func(int) (string, time.Duration, error) {
		q, kind, err := d.mix.next()
		if err != nil {
			return "", 0, err
		}
		t0 := time.Now()
		out, tier, err := d.post(q.body)
		lat := time.Since(t0)
		if err != nil {
			return kind, lat, err
		}
		q.record(out)
		if tier == "hit" {
			hitLat[q.name] = append(hitLat[q.name], lat)
		} else {
			missLat[q.name] = append(missLat[q.name], lat)
		}
		return kind, lat, nil
	}, func() {
		hitLat, missLat = map[string][]time.Duration{}, map[string][]time.Duration{}
		allocs = startAllocs()
		sym = symbolic.ReadCacheStats()
		if cfg.tracing {
			before, statsErr = d.stats()
		}
	})
	if statsErr != nil {
		return nil, statsErr
	}
	ops := r.ops()
	r.layers["alloc_kb_per_op"] = allocs.kibPer(ops)
	r.layers["symcache_hit_pct"] = symcacheHitPct(sym, symbolic.ReadCacheStats())
	if cfg.tracing {
		after, err := d.stats()
		if err != nil {
			return nil, err
		}
		stages := newStageTotals()
		stageDelta(stages, before, after)
		stages.into(r.layers, ops)
		if units := (after.Incr.FuncHits - before.Incr.FuncHits) + (after.Incr.FuncMisses - before.Incr.FuncMisses); units > 0 {
			r.layers["incr_unit_hit_pct"] = 100 * float64(after.Incr.FuncHits-before.Incr.FuncHits) / float64(units)
		}
	}
	hits := 0
	for _, l := range hitLat {
		hits += len(l)
	}
	if ops > 0 {
		r.layers["result_cache_hit_pct"] = 100 * float64(hits) / float64(ops)
	}
	r.layers["hit_p50_ms"] = geoQuantileMs(hitLat, 0.5)
	r.layers["miss_p50_ms"] = geoQuantileMs(missLat, 0.5)

	// Responses to one body must agree; a seeded sample of bodies must
	// match a cold local analysis, the CLI's path with no cache in front.
	distinct := d.mix.distinct
	sample := rand.New(rand.NewSource(cfg.seed)).Perm(len(distinct))
	if len(sample) > serveVerify {
		sample = sample[:serveVerify]
	}
	for _, q := range distinct {
		r.failed += q.mismatch
	}
	for _, i := range sample {
		q := distinct[i]
		if q.resp == nil {
			continue
		}
		want, err := analyzeLocal(q)
		if err != nil {
			return nil, err
		}
		if *q.resp != sha256.Sum256(want) {
			r.failed += q.responses
			logf("serve-mix: response for %s differs from a local analysis", q.name)
		}
	}
	return r, nil
}

// analyzeLocal produces the response body for q without the daemon.
func analyzeLocal(q *request) ([]byte, error) {
	results := core.AnalyzeBatch([]core.Source{{Name: q.name, Src: q.src}},
		core.Options{Level: core.New, AssumePositive: q.assume})
	return core.MarshalBatch(results, true)
}
