package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestCluster builds a one-peer cluster pointed at ts with tight
// test timeouts. The breaker jitter is pinned so backoffs are exact.
func newTestCluster(t *testing.T, peerURL string, cfg Config) *Cluster {
	t.Helper()
	cfg.Self = "self"
	cfg.Peers = []Peer{{Name: "peer", URL: peerURL}}
	if cfg.FillTimeout == 0 {
		cfg.FillTimeout = 500 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 200 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestFillSuccess: a fill POSTs the body with the fill header set and
// returns the peer's bytes; the breaker stays closed.
func TestFillSuccess(t *testing.T) {
	var gotFill atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotFill.Store(r.Header.Get(FillHeader) == "1")
		w.Write([]byte(`{"results":[]}`))
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{})

	body, err := c.Fill(context.Background(), "peer", []byte(`{}`), "req-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != `{"results":[]}` {
		t.Fatalf("body = %q", body)
	}
	if !gotFill.Load() {
		t.Fatal("fill request did not carry the fill header")
	}
	st := c.Stats()
	if st.Peers[0].Fills != 1 || st.Peers[0].Breaker != "closed" {
		t.Fatalf("stats = %+v", st.Peers[0])
	}
}

// TestFillRetriesThenFails: 5xx responses consume the bounded retries
// and return an error (the caller's cue to fall back to local compute).
func TestFillRetriesThenFails(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{Retries: 2, Breaker: BreakerConfig{Threshold: 10}})

	_, err := c.Fill(context.Background(), "peer", []byte(`{}`), "req-1", nil)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("err = %v, want a 500 failure", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("peer saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	if st := c.Stats().Peers[0]; st.Failures != 3 {
		t.Fatalf("failure counter = %d, want 3", st.Failures)
	}
}

// TestFillBreakerFastFail: once failures open the breaker, further
// fills are rejected without touching the network.
func TestFillBreakerFastFail(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{
		Retries: -1, // no retries: exactly one attempt per Fill
		Breaker: BreakerConfig{Threshold: 1, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
	})

	if _, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r1", nil); err == nil {
		t.Fatal("first fill should fail")
	}
	before := calls.Load()
	if _, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r2", nil); err == nil ||
		!strings.Contains(err.Error(), "breaker open") {
		t.Fatalf("err = %v, want breaker-open fast fail", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still sent a request")
	}
	st := c.Stats().Peers[0]
	if st.Breaker != "open" || st.FastFails != 1 || st.Opens != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFillDeadlineBudget: with nearly no deadline remaining, Fill gives
// up immediately so the caller still has time to compute locally.
func TestFillDeadlineBudget(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // deadline already spent
	if _, err := c.Fill(ctx, "peer", []byte(`{}`), "r", nil); err == nil {
		t.Fatal("fill with a spent deadline should fail")
	}
	if calls.Load() != 0 {
		t.Fatal("fill attempted I/O with no deadline budget")
	}
}

// TestProbeMarksPeerDownAndUp: the health prober flips the up flag as
// the peer dies and revives, and a down peer fast-fails fills.
func TestProbeMarksPeerDownAndUp(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !healthy.Load() {
			http.Error(w, "dying", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`ok`))
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{})
	c.Start()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.Stats().Peers[0].Up != want {
			if time.Now().After(deadline) {
				t.Fatalf("peer never became %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	healthy.Store(false)
	waitFor(false, "down")
	if _, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r", nil); err == nil ||
		!strings.Contains(err.Error(), "down") {
		t.Fatalf("err = %v, want down fast fail", err)
	}
	healthy.Store(true)
	waitFor(true, "up")
	if _, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r", nil); err != nil {
		t.Fatalf("fill after revival failed: %v", err)
	}
}

// TestStopCancelsInflightFill: Stop must abort a fill stuck on a
// stalled peer and return only once it has drained — the guarantee the
// daemon's SIGTERM path relies on.
func TestStopCancelsInflightFill(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall until the test ends
	}))
	defer ts.Close()
	defer close(release)
	c := newTestCluster(t, ts.URL, Config{FillTimeout: time.Minute})

	fillErr := make(chan error, 1)
	go func() {
		_, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r", nil)
		fillErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the fill reach the peer

	done := make(chan struct{})
	go func() { c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not drain the in-flight fill")
	}
	select {
	case err := <-fillErr:
		if err == nil {
			t.Fatal("canceled fill returned nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("fill never returned after Stop")
	}
}

// TestFillShortDeadlineKeepsBreaker: a fill with less than minAttempt
// of its deadline left sends nothing, so it must leave the breaker as
// it found it. It may neither turn an open breaker whose backoff has
// elapsed into a closed one, nor clear a closed breaker's run of
// failures.
func TestFillShortDeadlineKeepsBreaker(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	defer ts.Close()
	fill := func(c *Cluster, timeout time.Duration) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if _, err := c.Fill(ctx, "peer", []byte(`{}`), "r", nil); err == nil {
			t.Fatal("fill succeeded against a failing peer")
		}
	}
	short, long := 3*time.Millisecond, 5*time.Second

	t.Run("open", func(t *testing.T) {
		// One failure opens the breaker, and its nanosecond backoff has
		// elapsed by the next fill.
		c := newTestCluster(t, ts.URL, Config{
			Retries: -1,
			Breaker: BreakerConfig{Threshold: 1, BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond},
		})
		fill(c, long)
		before := calls.Load()
		fill(c, short)
		if got := calls.Load(); got != before {
			t.Fatalf("short fill sent %d requests, want 0", got-before)
		}
		if st := c.Stats().Peers[0]; st.Breaker != "open" || st.Opens != 1 || st.Recloses != 0 {
			t.Fatalf("after a short fill: breaker %s, %d opens, %d recloses; want open, 1, 0", st.Breaker, st.Opens, st.Recloses)
		}
	})

	t.Run("closed", func(t *testing.T) {
		c := newTestCluster(t, ts.URL, Config{
			Retries: -1,
			Breaker: BreakerConfig{Threshold: 3, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
		})
		fill(c, long)
		fill(c, long)
		fill(c, short)
		fill(c, long)
		if st := c.Stats().Peers[0]; st.Breaker != "open" || st.Failures != 3 || st.Opens != 1 {
			t.Fatalf("fail, fail, short, fail: breaker %s, %d failures, %d opens; want open, 3, 1", st.Breaker, st.Failures, st.Opens)
		}
	})
}
