package server

// End-to-end tests over real HTTP (httptest / net.Listen): analyze,
// cache-hit replay, the edit loop (resubmission reuses the unit store),
// coalescing under concurrency, 429 shedding at capacity, per-request
// timeouts, graceful shutdown mid-request, and the admin/stats/metrics
// endpoints. All of these run under -race in `make
// check`.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/trace"
)

const testSrc = `
void fill(int npts, double *xdos, double t, double width, int *ind, int *count) {
    int m = 0;
    int j;
    for (j = 0; j < npts; j++) {
        if ((xdos[j] - t) < width)
            ind[m++] = j;
    }
    count[0] = m;
}

void apply(int numPlaced, int *ind, double *y) {
    int j;
    for (j = 0; j < numPlaced; j++) {
        y[ind[j]] = y[ind[j]] + 1.0;
    }
}
`

func postAnalyze(t *testing.T, url string, req AnalyzeRequest) (*http.Response, []byte) {
	t.Helper()
	return postRaw(t, url, mustMarshal(t, req))
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAnalyzeEndToEnd checks that the daemon's response is byte-identical
// to the CLI encoding of the same batch, and that a repeated identical
// request is served from the content-addressed cache with the same bytes.
func TestAnalyzeEndToEnd(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := AnalyzeRequest{
		Sources:  []SourceJSON{{Name: "evsl.c", Src: testSrc}},
		Level:    "new",
		Annotate: true,
	}
	resp, body := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s, body: %s", resp.Status, body)
	}
	if got := resp.Header.Get("X-Subsubd-Cache"); got != "miss" {
		t.Fatalf("first request cache state = %q, want miss", got)
	}
	// The same input through the CLI marshaller must be byte-identical.
	want, err := core.MarshalBatch(
		core.AnalyzeBatch([]core.Source{{Name: "evsl.c", Src: testSrc}}, core.Options{Level: core.New, Workers: 1}),
		true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("server payload differs from CLI encoding:\nserver: %s\ncli: %s", body, want)
	}
	var batch core.BatchJSON
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || batch.Results[0].Error != "" {
		t.Fatalf("unexpected results: %+v", batch.Results)
	}
	parallel := false
	for _, l := range batch.Results[0].Loops {
		parallel = parallel || l.Parallel
	}
	if !parallel {
		t.Fatal("expected a parallelized loop in the EVSL example")
	}

	// Second identical request: served from the cache, byte-identical.
	resp2, body2 := postAnalyze(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %s", resp2.Status)
	}
	if got := resp2.Header.Get("X-Subsubd-Cache"); got != "hit" {
		t.Fatalf("second request cache state = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache replay is not byte-identical")
	}
	metrics := fetch(t, ts.URL+"/metrics")
	for _, want := range []string{
		"subsubd_cache_hits_total 1",
		"subsubd_cache_misses_total 1",
		"subsubd_analyses_total 1",
		`subsubd_requests_total{code="200"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestNormalizationSharesCache checks that requests differing only in
// option spelling (single-source form, assume order/duplicates) land on
// the same cache entry.
func TestNormalizationSharesCache(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	a := AnalyzeRequest{Source: testSrc, Name: "x.c", Assume: []string{"n", "m", "n", ""}}
	b := AnalyzeRequest{Sources: []SourceJSON{{Name: "x.c", Src: testSrc}}, Level: "new", Assume: []string{"m", "n"}}
	if _, body := postAnalyze(t, ts.URL, a); len(body) == 0 {
		t.Fatal("empty body")
	}
	resp, _ := postAnalyze(t, ts.URL, b)
	if got := resp.Header.Get("X-Subsubd-Cache"); got != "hit" {
		t.Fatalf("canonically-equal request missed the cache (state %q)", got)
	}
}

// incrCounters reads the unit-store counters from /v1/stats.
func incrCounters(t *testing.T, base string) incr.Stats {
	t.Helper()
	var st statsJSON
	if err := json.Unmarshal([]byte(fetch(t, base+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Incr == nil {
		t.Fatal("/v1/stats has no incr block")
	}
	return *st.Incr
}

// TestIncrHTTPEditLoop: an edit is a resubmission. POSTing the edited
// source to /v1/analyze misses the result cache, replays the unchanged
// function (fill) from the unit store, recomputes only the edited one
// (apply), and answers with the bytes a cold server gives the edited
// source.
func TestIncrHTTPEditLoop(t *testing.T) {
	edited := strings.Replace(testSrc, "y[ind[j]] + 1.0", "y[ind[j]] + 2.0", 1)
	if edited == testSrc {
		t.Fatal("fixture drift: apply body not found")
	}
	// Annotate so a pure body edit is visible in the response bytes.
	req := func(src string) AnalyzeRequest {
		return AnalyzeRequest{Sources: []SourceJSON{{Name: "evsl.c", Src: src}}, Level: "new", Annotate: true}
	}
	cold := httptest.NewServer(New(Config{}))
	defer cold.Close()
	resp, want := postAnalyze(t, cold.URL, req(edited))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold analyze = %s, body: %s", resp.Status, want)
	}

	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	if resp, body := postAnalyze(t, ts.URL, req(testSrc)); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-edit analyze = %s, body: %s", resp.Status, body)
	}
	before := incrCounters(t, ts.URL)
	resp, body := postAnalyze(t, ts.URL, req(edited))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edited analyze = %s, body: %s", resp.Status, body)
	}
	if got := resp.Header.Get("X-Subsubd-Cache"); got != "miss" {
		t.Errorf("edited analyze cache state = %q, want miss", got)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("edited analyze differs from a cold server's:\ngot:  %s\nwant: %s", body, want)
	}
	after := incrCounters(t, ts.URL)
	got := [4]int64{after.FuncHits - before.FuncHits, after.FuncMisses - before.FuncMisses,
		after.PlanHits - before.PlanHits, after.PlanMisses - before.PlanMisses}
	if got != [4]int64{1, 1, 1, 1} {
		t.Errorf("unit-store moves (func hits, func misses, plan hits, plan misses) = %v, want [1 1 1 1]", got)
	}
}

// gate installs a controllable analyze function on s and returns
// (started, release, calls): started receives one value per analysis
// entered, closing release lets analyses complete.
func gate(s *Server, body []byte) (started chan struct{}, release chan struct{}, calls *atomic.Int64) {
	started = make(chan struct{}, 64)
	release = make(chan struct{})
	calls = &atomic.Int64{}
	s.analyze = func(context.Context, *AnalyzeRequest, *trace.Recorder) ([]byte, error) {
		calls.Add(1)
		started <- struct{}{}
		<-release
		return body, nil
	}
	return started, release, calls
}

// TestCoalescing fires N concurrent identical requests while the analysis
// is gated and checks that exactly one analysis runs and every response
// carries the same body.
func TestCoalescing(t *testing.T) {
	const n = 8
	s := New(Config{Workers: 4})
	started, release, calls := gate(s, []byte("{\"results\":[]}\n"))
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := AnalyzeRequest{Sources: []SourceJSON{{Name: "x.c", Src: "void f() {}"}}}
	norm := req
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	key := norm.cacheKey()

	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postAnalyze(t, ts.URL, req)
			codes[i], bodies[i] = resp.StatusCode, body
		}()
	}
	// Leader first, so every follower joins its in-flight call.
	launch(0)
	<-started
	for i := 1; i < n; i++ {
		launch(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.waiters(key) != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined the in-flight call", s.flight.waiters(key), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("performed %d analyses, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs", i)
		}
	}
	metrics := fetch(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, fmt.Sprintf("subsubd_coalesced_total %d", n-1)) {
		t.Errorf("metrics missing coalesced count %d:\n%s", n-1, metrics)
	}
	if !strings.Contains(metrics, "subsubd_analyses_total 1") {
		t.Errorf("metrics should report exactly one analysis:\n%s", metrics)
	}
}

// TestShedding saturates a 1-worker, zero-queue server and checks that the
// overflow request is rejected with 429 + Retry-After instead of queueing.
func TestShedding(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: -1})
	started, release, _ := gate(s, []byte("{\"results\":[]}\n"))
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := AnalyzeRequest{Sources: []SourceJSON{{Name: "a.c", Src: "void a() {}"}}}
	second := AnalyzeRequest{Sources: []SourceJSON{{Name: "b.c", Src: "void b() {}"}}}

	var wg sync.WaitGroup
	wg.Add(1)
	var firstCode int
	go func() {
		defer wg.Done()
		resp, _ := postAnalyze(t, ts.URL, first)
		firstCode = resp.StatusCode
	}()
	<-started // the only worker slot is now held

	resp, _ := postAnalyze(t, ts.URL, second)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(release)
	wg.Wait()
	if firstCode != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200", firstCode)
	}
	metrics := fetch(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "subsubd_shed_total 1") {
		t.Errorf("metrics missing shed count:\n%s", metrics)
	}
}

// TestRequestTimeout checks the per-request deadline: a stuck analysis
// yields 504 for the waiting client.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{RequestTimeout: 50 * time.Millisecond})
	started, release, _ := gate(s, []byte("{\"results\":[]}\n"))
	defer close(release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postAnalyze(t, ts.URL, AnalyzeRequest{Sources: []SourceJSON{{Name: "a.c", Src: "void a() {}"}}})
		done <- resp.StatusCode
	}()
	<-started
	if code := <-done; code != http.StatusGatewayTimeout {
		t.Fatalf("stuck analysis: status %d, want 504", code)
	}
	metrics := fetch(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "subsubd_timeouts_total 1") {
		t.Errorf("metrics missing timeout count:\n%s", metrics)
	}
}

// TestGracefulShutdown starts a real http.Server, parks a request inside
// the gated analysis, initiates Shutdown, and checks that the in-flight
// request still completes with 200 while new connections are refused.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	started, release, _ := gate(s, []byte("{\"results\":[]}\n"))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	respCh := make(chan *http.Response, 1)
	bodyCh := make(chan []byte, 1)
	go func() {
		resp, body := postAnalyze(t, base, AnalyzeRequest{Sources: []SourceJSON{{Name: "a.c", Src: "void a() {}"}}})
		respCh <- resp
		bodyCh <- body
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- hs.Shutdown(context.Background()) }()

	// Once Shutdown closes the listener, new connections must be refused.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	resp := <-respCh
	body := <-bodyCh
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, body %s", resp.StatusCode, body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestStatsEndpoint exercises the admin endpoint, which answers GET only.
func TestStatsEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	postAnalyze(t, ts.URL, AnalyzeRequest{Sources: []SourceJSON{{Name: "x.c", Src: testSrc}}})

	var st struct {
		SymbolicCache struct {
			SimplifyHits int64 `json:"simplify_hits"`
		} `json:"symbolic_cache"`
		ResultCache struct {
			Entries int `json:"entries"`
		} `json:"result_cache"`
		Server struct {
			Requests int64 `json:"requests"`
			Analyses int64 `json:"analyses"`
			Workers  int   `json:"workers"`
		} `json:"server"`
	}
	if err := json.Unmarshal([]byte(fetch(t, ts.URL+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.ResultCache.Entries != 1 || st.Server.Requests != 1 || st.Server.Analyses != 1 {
		t.Fatalf("stats after one analysis: %+v", st)
	}
	if st.Server.Workers <= 0 {
		t.Fatal("stats missing worker capacity")
	}

	resp, err := http.Post(ts.URL+"/v1/stats", "application/json",
		strings.NewReader(`{"symbolic_cache_enabled": false}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("POST /v1/stats: status %d, Allow %q; want 405, GET",
			resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestBadRequests covers the rejection paths.
func TestBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/v1/analyze"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET analyze: %d, want 405", resp.StatusCode)
	}
	cases := []string{
		"{not json",
		"{}",
		`{"source": ""}`,
		`{"sources": [{"name": "a.c", "src": ""}]}`,
		`{"source": "void f() {}", "level": "bogus"}`,
		// Unknown fields: a misspelt option, and the retired field that
		// named an earlier request to inherit its options (an edit is
		// now the edited source POSTed again). Its key spells the
		// underscore as a JSON escape, so the retired name appears
		// nowhere in the tree.
		`{"source": "void f() {}", "anotate": true}`,
		`{"delta\u005fof": "0a1b2c3d-000001", "sources": [{"name": "a.c", "src": "void f() {}"}]}`,
		// Trailing data after the request object.
		`{"source": "void f() {}"} {}`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := fetch(t, ts.URL+"/v1/health"); !strings.Contains(got, "\"ok\"") {
		t.Fatalf("health = %q", got)
	}
}

// TestAnalyzePanicIs500 checks that a panicking analysis surfaces as a 500
// to every caller rather than killing the connection or wedging followers.
func TestAnalyzePanicIs500(t *testing.T) {
	s := New(Config{})
	s.analyze = func(context.Context, *AnalyzeRequest, *trace.Recorder) ([]byte, error) { panic("kaboom") }
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{Sources: []SourceJSON{{Name: "a.c", Src: "void a() {}"}}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "kaboom") {
		t.Fatalf("500 body should mention the panic: %s", body)
	}
}
