// Package cluster makes N subsubd daemons a fault-tolerant whole. The
// analysis is a pure function of a content-addressed key, so sharding is
// pure routing: a consistent-hash ring (ring.go) assigns every key an
// owning peer, a miss on a non-owner is filled by one bounded HTTP call
// to the owner, and the fleet-wide cache becomes additive — each peer's
// LRU and disk store hold (mostly) its own key range.
//
// Everything else in the package exists to keep that routing harmless
// when peers misbehave. The failure discipline mirrors the paper's
// runtime guards: optimize optimistically, verify cheaply, fall back to
// the safe path. Concretely:
//
//   - health-checked membership: a prober hits each peer's /healthz on an
//     interval; a peer that fails its probe is marked down and skipped
//     entirely (no connect timeouts on the request path);
//   - per-peer circuit breakers (breaker.go): request-path failures open
//     the breaker, which fast-fails subsequent fills until a jittered
//     exponential backoff admits a half-open probe;
//   - bounded, deadline-aware retries: each fill attempt gets
//     min(FillTimeout, time remaining on the request), and no attempt
//     starts with less than minAttempt remaining;
//   - graceful degradation: Fill returning an error is never a client
//     error — the server falls back to computing locally, so the worst a
//     dead peer can do is cost latency and a duplicate cache entry.
//
// The package is stdlib-only and imports only internal/trace (peer-fill
// spans) and internal/faults from the repository.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// FillHeader marks a peer-to-peer fill request. A peer serving a request
// carrying it must compute locally and never re-forward, which bounds
// any routing disagreement to one extra hop instead of a forwarding
// loop.
const FillHeader = "X-Subsubd-Fill"

// minAttempt is the least request-deadline budget worth spending on a
// fill attempt; with less remaining we go straight to local compute.
const minAttempt = 5 * time.Millisecond

// Peer names one remote fleet member.
type Peer struct {
	Name string
	URL  string // base URL, e.g. http://10.0.0.2:8723
}

// Config describes this node's view of the fleet. Zero values select
// defaults.
type Config struct {
	// Self is this node's name; it appears on the ring but has no URL.
	Self string
	// Peers are the other fleet members (static membership).
	Peers []Peer
	// Replicas is the virtual-node count per peer (default 128).
	Replicas int
	// ProbeInterval/ProbeTimeout tune the /healthz prober (defaults 2s /
	// 1s). Start must be called to run it.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FillTimeout caps one fill attempt (default 5s); Retries is how many
	// times a failed attempt is retried (default 1, i.e. two attempts).
	FillTimeout time.Duration
	Retries     int
	// Breaker tunes the per-peer circuit breakers.
	Breaker BreakerConfig
	// Transport overrides the HTTP transport (tests; default
	// http.DefaultTransport).
	Transport http.RoundTripper
	// Logf, when non-nil, receives fleet events (peer up/down, breaker
	// opens, fallbacks).
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 5 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
}

// peerState is one remote peer plus its health and breaker state.
type peerState struct {
	name    string
	url     string
	up      atomic.Bool
	breaker *Breaker

	fills     atomic.Int64 // successful fills from this peer
	failures  atomic.Int64 // failed fill attempts
	fastFails atomic.Int64 // fills rejected without I/O (down or breaker open)
}

// Cluster routes content-addressed keys across the fleet and fills
// misses from their owners.
type Cluster struct {
	cfg    Config
	ring   *Ring
	peers  map[string]*peerState
	client *http.Client

	// baseCtx is canceled by Stop: outstanding fills abort promptly so a
	// draining daemon is never stuck behind a stalled peer.
	baseCtx context.Context
	cancel  context.CancelFunc
	// fillWG tracks outstanding Fill calls; proberWG the prober loop.
	fillWG   sync.WaitGroup
	proberWG sync.WaitGroup
	probeCh  chan struct{} // closed by Stop to wake the prober
	started  atomic.Bool
	stopped  atomic.Bool
}

// New builds the cluster view. It returns an error for an empty self
// name, duplicate node names, or a peer without a URL.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self name required")
	}
	names := []string{cfg.Self}
	peers := make(map[string]*peerState, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p.Name == "" || p.URL == "" {
			return nil, fmt.Errorf("cluster: peer needs name and URL (got %q=%q)", p.Name, p.URL)
		}
		if p.Name == cfg.Self || peers[p.Name] != nil {
			return nil, fmt.Errorf("cluster: duplicate node name %q", p.Name)
		}
		ps := &peerState{name: p.Name, url: strings.TrimRight(p.URL, "/"), breaker: NewBreaker(cfg.Breaker)}
		ps.up.Store(true) // optimistic until the first probe says otherwise
		peers[p.Name] = ps
		names = append(names, p.Name)
	}
	ring, err := NewRing(names, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Cluster{
		cfg:     cfg,
		ring:    ring,
		peers:   peers,
		client:  &http.Client{Transport: cfg.Transport},
		baseCtx: ctx,
		cancel:  cancel,
		probeCh: make(chan struct{}),
	}, nil
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Owner returns the owning node for key and whether that is this node.
func (c *Cluster) Owner(key string) (name string, local bool) {
	name = c.ring.Owner(key)
	return name, name == c.cfg.Self
}

// Start launches the health prober. Idempotent.
func (c *Cluster) Start() {
	if len(c.peers) == 0 || !c.started.CompareAndSwap(false, true) {
		return
	}
	c.proberWG.Add(1)
	go c.probeLoop()
}

// Stop cancels outstanding fills, stops the prober, and waits for both.
// After Stop every Fill fails fast, which a draining server turns into
// local compute — so shutdown never hangs on a stalled peer.
func (c *Cluster) Stop() {
	if !c.stopped.CompareAndSwap(false, true) {
		return
	}
	c.cancel()
	close(c.probeCh)
	c.fillWG.Wait()
	c.proberWG.Wait()
}

// probeLoop probes every peer each interval. One slow peer cannot stall
// the others' probes: each tick probes peers concurrently and waits.
func (c *Cluster) probeLoop() {
	defer c.proberWG.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		var wg sync.WaitGroup
		for _, p := range c.peers {
			wg.Add(1)
			go func(p *peerState) {
				defer wg.Done()
				c.probe(p)
			}(p)
		}
		wg.Wait()
		select {
		case <-ticker.C:
		case <-c.probeCh:
			return
		}
	}
}

// probe hits one peer's /healthz and updates its up flag. A peer
// returning to life gets its breaker reset: the open state encoded a
// dead peer, and the probe is fresher evidence than the backoff timer.
func (c *Cluster) probe(p *peerState) {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}
	if was := p.up.Swap(ok); was != ok {
		if ok {
			p.breaker.Reset()
			c.logf("cluster: peer %s up", p.name)
		} else {
			c.logf("cluster: peer %s down (healthz: %v)", p.name, err)
		}
	}
}

// errFastFail marks fills rejected without touching the network.
var errFastFail = errors.New("peer unavailable")

// Fill fetches the response for a key owned by peer owner by POSTing the
// canonicalized request body to the owner's /v1/analyze. It makes up to
// 1+Retries attempts, each bounded by min(FillTimeout, remaining ctx);
// attempts stop early when the breaker opens, the peer is marked down,
// ctx runs out, or the cluster is stopped. Any returned error means
// "compute locally instead" — the caller must treat it as degradation,
// never as a client-visible failure. The peer-fill span lands on tr
// under stage "peerfill" with the owner as its function attribution.
func (c *Cluster) Fill(ctx context.Context, owner string, reqBody []byte, reqID string, tr *trace.Recorder) ([]byte, error) {
	p := c.peers[owner]
	if p == nil {
		return nil, fmt.Errorf("cluster: unknown peer %q", owner)
	}
	c.fillWG.Add(1)
	defer c.fillWG.Done()

	sp := tr.StartFunc(0, "peerfill", owner)
	defer tr.End(sp)

	// The fill aborts when either the request context or the cluster
	// (Stop, during drain) is done.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(c.baseCtx, cancel)
	defer stop()

	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !p.up.Load() {
			p.fastFails.Add(1)
			return nil, fmt.Errorf("%w: peer %s down", errFastFail, owner)
		}
		// The deadline check precedes Allow, which can turn an open
		// breaker half-open: an attempt that is never sent must leave
		// the breaker as it found it.
		attemptTimeout := c.cfg.FillTimeout
		if dl, ok := ctx.Deadline(); ok {
			remaining := time.Until(dl)
			if remaining < minAttempt {
				return nil, fmt.Errorf("cluster: no deadline budget left for peer %s", owner)
			}
			attemptTimeout = min(attemptTimeout, remaining)
		}
		if !p.breaker.Allow() {
			p.fastFails.Add(1)
			return nil, fmt.Errorf("%w: peer %s breaker open", errFastFail, owner)
		}
		body, err := c.post(ctx, p, attemptTimeout, reqBody, reqID)
		if err == nil {
			p.breaker.Success()
			p.fills.Add(1)
			return body, nil
		}
		p.breaker.Failure()
		p.failures.Add(1)
		lastErr = err
		c.logf("cluster: fill %s from peer %s attempt %d/%d failed: %v",
			reqID, owner, attempt+1, c.cfg.Retries+1, err)
	}
	return nil, lastErr
}

// post performs one fill attempt.
func (c *Cluster) post(ctx context.Context, p *peerState, timeout time.Duration, reqBody []byte, reqID string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/analyze", strings.NewReader(string(reqBody)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(FillHeader, "1")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: %s: %s", p.name, resp.Status, truncate(body, 200))
	}
	return body, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return strings.TrimSpace(string(b))
}

// PeerStats is one peer's observable state.
type PeerStats struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Up        bool   `json:"up"`
	Breaker   string `json:"breaker"`
	Fills     int64  `json:"fills"`
	Failures  int64  `json:"failures"`
	FastFails int64  `json:"fast_fails"`
	Opens     int64  `json:"breaker_opens"`
	Recloses  int64  `json:"breaker_recloses"`
}

// Stats is the cluster's observable state for /v1/stats and /metrics.
type Stats struct {
	Self  string      `json:"self"`
	Nodes []string    `json:"nodes"`
	Peers []PeerStats `json:"peers"`
}

// Stats snapshots per-peer health, breaker state, and fill counters.
func (c *Cluster) Stats() Stats {
	st := Stats{Self: c.cfg.Self, Nodes: c.ring.Nodes()}
	for _, name := range st.Nodes {
		p := c.peers[name]
		if p == nil {
			continue // self
		}
		opens, recloses := p.breaker.Transitions()
		st.Peers = append(st.Peers, PeerStats{
			Name:      p.name,
			URL:       p.url,
			Up:        p.up.Load(),
			Breaker:   p.breaker.State().String(),
			Fills:     p.fills.Load(),
			Failures:  p.failures.Load(),
			FastFails: p.fastFails.Load(),
			Opens:     opens,
			Recloses:  recloses,
		})
	}
	return st
}
