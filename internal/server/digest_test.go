package server

// The request-bytes lookup: a body byte-identical to one already answered
// is served from the result cache before it is decoded (handleAnalyze,
// resultCache.getDigest), and every 200 links its body's digest to the
// entry stored under the canonical key.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// postRaw posts body to /v1/analyze exactly as given.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// mustOK fails unless resp is a 200 whose X-Subsubd-Cache is state.
func mustOK(t *testing.T, what string, resp *http.Response, body []byte, state string) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %s, body: %s", what, resp.Status, body)
	}
	if got := resp.Header.Get("X-Subsubd-Cache"); got != state {
		t.Fatalf("%s: cache state %q, want %q", what, got, state)
	}
}

// serverCounters reads the result-cache counters and the analysis count
// from /v1/stats.
func serverCounters(t *testing.T, url string) (hits, misses, analyses int64) {
	t.Helper()
	var st statsJSON
	if err := json.Unmarshal([]byte(fetch(t, url+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	return st.ResultCache.Hits, st.ResultCache.Misses, st.Server.Analyses
}

// linked reports whether body's digest is in the cache's digest index,
// and the sizes of the digest index and the entry map.
func linked(c *resultCache, body []byte) (ok bool, digests, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok = c.byDigest[sha256.Sum256(body)]
	return ok, len(c.byDigest), len(c.m)
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDigestHitSameBytes: the same bytes posted twice. The first is
// computed and links its digest; the second is a hit with the same bytes,
// and only one analysis ran.
func TestDigestHitSameBytes(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := mustMarshal(t, AnalyzeRequest{Sources: []SourceJSON{{Name: "evsl.c", Src: testSrc}}, Annotate: true})
	resp, first := postRaw(t, ts.URL, body)
	mustOK(t, "first post", resp, first, "miss")
	if ok, _, _ := linked(s.cache, body); !ok {
		t.Fatal("a computed 200 did not link its body digest")
	}
	resp, second := postRaw(t, ts.URL, body)
	mustOK(t, "second post", resp, second, "hit")
	if !bytes.Equal(first, second) {
		t.Fatal("digest hit is not byte-identical to the computed response")
	}
	if hits, misses, analyses := serverCounters(t, ts.URL); hits != 1 || misses != 1 || analyses != 1 {
		t.Fatalf("hits, misses, analyses = %d, %d, %d; want 1, 1, 1", hits, misses, analyses)
	}
}

// TestKeyedHitRelinks: an equivalent body in other bytes is a hit through
// the canonical key, with the same bytes, and relinks the entry to its
// own digest. The entry keeps only that last digest, so afterwards both
// byte forms are still hits: the one through its digest, the other
// through the key.
func TestKeyedHitRelinks(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	forms := [][]byte{
		mustMarshal(t, AnalyzeRequest{Sources: []SourceJSON{{Name: "x.c", Src: testSrc}}, Level: "new", Assume: []string{"m", "n"}}),
		// The single-source form with a reordered, duplicated assume list.
		mustMarshal(t, AnalyzeRequest{Source: testSrc, Name: "x.c", Assume: []string{"n", "m", "n"}}),
		// The first form re-encoded with other whitespace.
		nil,
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, forms[0], "", "\t"); err != nil {
		t.Fatal(err)
	}
	forms[2] = buf.Bytes()

	resp, want := postRaw(t, ts.URL, forms[0])
	mustOK(t, "form 0", resp, want, "miss")
	for i := 1; i < len(forms); i++ {
		resp, got := postRaw(t, ts.URL, forms[i])
		mustOK(t, fmt.Sprintf("form %d", i), resp, got, "hit")
		if !bytes.Equal(got, want) {
			t.Fatalf("form %d: keyed hit differs from the computed response", i)
		}
		ok, digests, entries := linked(s.cache, forms[i])
		if !ok || digests != 1 || entries != 1 {
			t.Fatalf("form %d: linked %t, %d digests over %d entries; want true, 1, 1", i, ok, digests, entries)
		}
		if ok, _, _ := linked(s.cache, forms[i-1]); ok {
			t.Fatalf("form %d: the entry still holds the previous form's digest", i)
		}
	}
	for round := 0; round < 2; round++ {
		for i, form := range forms {
			resp, got := postRaw(t, ts.URL, form)
			mustOK(t, fmt.Sprintf("round %d form %d", round, i), resp, got, "hit")
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d form %d: hit differs from the computed response", round, i)
			}
		}
	}
	if _, _, analyses := serverCounters(t, ts.URL); analyses != 1 {
		t.Fatalf("analyses = %d, want 1", analyses)
	}
}

// TestRefusedBodyNeverLinked: a body refused with 400 is refused on every
// submission and moves neither cache counter, even when a valid body
// meaning the same analysis is already cached.
func TestRefusedBodyNeverLinked(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	valid := mustMarshal(t, AnalyzeRequest{Source: "void f(int n, int *a) { int i; for (i = 0; i < n; i++) a[i] = i; }"})
	resp, out := postRaw(t, ts.URL, valid)
	mustOK(t, "valid body", resp, out, "miss")
	h0, m0, _ := serverCounters(t, ts.URL)

	refused := [][]byte{
		// An undeclared field after every declared one.
		append(bytes.TrimSuffix(valid, []byte("}")), []byte(`,"anotate":true}`)...),
		// Trailing data after the request object.
		append(append([]byte(nil), valid...), []byte(" {}")...),
	}
	for _, body := range refused {
		for i := 0; i < 2; i++ {
			resp, out := postRaw(t, ts.URL, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("submission %d of %s: status %s (body %s), want 400", i+1, body, resp.Status, out)
			}
			if ok, _, _ := linked(s.cache, body); ok {
				t.Fatalf("refused body %s was linked", body)
			}
		}
	}
	if h, m, _ := serverCounters(t, ts.URL); h != h0 || m != m0 {
		t.Fatalf("refused bodies moved the cache counters: hits %d -> %d, misses %d -> %d", h0, h, m0, m)
	}
}

// TestDigestIndexBoundedByEntries: the digest index never holds more
// digests than the cache holds entries, and an evicted entry's digest
// goes with it, so the evicted body is recomputed, to the same bytes.
func TestDigestIndexBoundedByEntries(t *testing.T) {
	s := New(Config{CacheEntries: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var bodies, answers [][]byte
	for i := 0; i < 3; i++ {
		body := mustMarshal(t, AnalyzeRequest{Source: fmt.Sprintf("void f%d(int n, int *a) { int i; for (i = 0; i < n; i++) a[i] = %d; }", i, i)})
		resp, out := postRaw(t, ts.URL, body)
		mustOK(t, fmt.Sprintf("body %d", i), resp, out, "miss")
		bodies, answers = append(bodies, body), append(answers, out)
		if _, digests, entries := linked(s.cache, body); digests > entries {
			t.Fatalf("after body %d: %d digests over %d entries", i, digests, entries)
		}
	}
	if ok, digests, entries := linked(s.cache, bodies[0]); ok || digests != 2 || entries != 2 {
		t.Fatalf("evicted body linked %t, %d digests over %d entries; want false, 2, 2", ok, digests, entries)
	}
	resp, out := postRaw(t, ts.URL, bodies[0])
	mustOK(t, "evicted body", resp, out, "miss")
	if !bytes.Equal(out, answers[0]) {
		t.Fatal("recomputed response differs from the first one")
	}
	if _, digests, entries := linked(s.cache, bodies[0]); digests > entries {
		t.Fatalf("after the repost: %d digests over %d entries", digests, entries)
	}
	if _, _, analyses := serverCounters(t, ts.URL); analyses != 4 {
		t.Fatalf("analyses = %d, want 4", analyses)
	}
}

// TestCacheCountersMatch200s: over a mix of digest hits, keyed hits,
// misses and refused bodies, every 200 counts exactly once as a cache
// hit or miss, in /v1/stats and in /metrics.
func TestCacheCountersMatch200s(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var posts [][]byte
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("void g%d(int n, double *y, int *ind) { int j; for (j = 0; j < n; j++) y[ind[j]] = y[ind[j]] + %d.0; }", i, i)
		a := mustMarshal(t, AnalyzeRequest{Source: src})
		b := mustMarshal(t, AnalyzeRequest{Sources: []SourceJSON{{Name: "source", Src: src}}, Level: "new"})
		posts = append(posts, a, a, b, b, a, []byte(`{"source": "void f() {}", "anotate": true}`))
	}
	ok200 := 0
	for _, body := range posts {
		if resp, _ := postRaw(t, ts.URL, body); resp.StatusCode == http.StatusOK {
			ok200++
		}
	}
	if ok200 != 15 {
		t.Fatalf("%d responses were 200, want 15", ok200)
	}
	hits, misses, analyses := serverCounters(t, ts.URL)
	if hits+misses != int64(ok200) || misses != 3 || analyses != 3 {
		t.Fatalf("hits %d + misses %d over %d 200s with %d analyses; want 12 + 3 over 15 with 3", hits, misses, ok200, analyses)
	}
	metrics := fetch(t, ts.URL+"/metrics")
	for _, want := range []string{"subsubd_cache_hits_total 12", "subsubd_cache_misses_total 3"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAnalyzeContentLength: a miss, a digest hit and a keyed hit each
// declare the body's length rather than arriving chunked, for a response
// larger than net/http's 2 KiB chunking threshold.
func TestAnalyzeContentLength(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	req := AnalyzeRequest{Sources: []SourceJSON{{Name: "a.c", Src: testSrc}, {Name: "b.c", Src: testSrc}}, Annotate: true}
	same := mustMarshal(t, req)
	req.Level = "new"
	other := mustMarshal(t, req)
	for _, step := range []struct {
		body  []byte
		state string
	}{{same, "miss"}, {same, "hit"}, {other, "hit"}} {
		resp, out := postRaw(t, ts.URL, step.body)
		mustOK(t, step.state, resp, out, step.state)
		if len(out) <= 2048 {
			t.Fatalf("response is %d bytes; the test needs one over 2048", len(out))
		}
		if resp.ContentLength != int64(len(out)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: ContentLength %d, TransferEncoding %v; want %d and none",
				step.state, resp.ContentLength, resp.TransferEncoding, len(out))
		}
	}
}

// TestDigestConcurrent: concurrent posts of several requests, each in two
// byte forms, race digest lookups against links, relinks and LRU
// eviction (two entries for three requests). Every response is its
// request's bytes, every 200 counts once, and the digest index never
// outgrows the entry map.
func TestDigestConcurrent(t *testing.T) {
	s := New(Config{CacheEntries: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const reqs, workers, rounds = 3, 6, 8
	forms := make([][2][]byte, reqs)
	want := make([][]byte, reqs)
	for i := range forms {
		src := fmt.Sprintf("void h%d(int n, int *a) { int i; for (i = 0; i < n; i++) a[i] = a[i] + %d; }", i, i)
		forms[i][0] = mustMarshal(t, AnalyzeRequest{Source: src})
		forms[i][1] = mustMarshal(t, AnalyzeRequest{Sources: []SourceJSON{{Name: "source", Src: src}}, Level: "new"})
		_, want[i] = postRaw(t, ts.URL, forms[i][0])
	}
	var wg sync.WaitGroup
	var ok200 atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % reqs
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(forms[i][(w+r/reqs)%2]))
				if err != nil {
					t.Error(err)
					return
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(out, want[i]) {
					t.Errorf("request %d: status %d, err %v, body matches %t", i, resp.StatusCode, err, bytes.Equal(out, want[i]))
					return
				}
				ok200.Add(1)
				if _, digests, entries := linked(s.cache, nil); digests > entries {
					t.Errorf("%d digests over %d entries", digests, entries)
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses, _ := serverCounters(t, ts.URL)
	if got := ok200.Load() + reqs; hits+misses != got {
		t.Fatalf("hits %d + misses %d, want %d 200s", hits, misses, got)
	}
}
