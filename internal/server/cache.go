package server

// Content-addressed result cache. The analysis is deterministic — a pure
// function of (source text, canonicalized options) — so a response stored
// under the SHA-256 of that pair can be replayed forever: there is no TTL
// and no invalidation problem, only capacity. Capacity is bounded two
// ways (entry count and total body bytes) with LRU eviction.
//
// A second index finds an entry by the SHA-256 of the raw request body
// it last answered, so a byte-identical resubmit is served before it is
// decoded. Each entry holds at most one such digest and relinking or
// evicting it drops the old one, so the index never outgrows the entry
// map; the request bodies themselves are not kept.

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// bodyDigest is the SHA-256 of a raw request body.
type bodyDigest = [sha256.Size]byte

type cacheEntry struct {
	key  string
	body []byte
	// digest is the last request body this entry answered; linked says
	// whether byDigest holds it.
	digest bodyDigest
	linked bool
}

// resultCache is a bounded LRU from content hash to encoded response.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	m          map[string]*list.Element
	byDigest   map[bodyDigest]*list.Element
	bytes      int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		m:          map[string]*list.Element{},
		byDigest:   map[bodyDigest]*list.Element{},
	}
}

// get returns the stored response body and marks the entry most recently
// used. The returned slice is shared — callers must not mutate it.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.m[key]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

// getDigest is get by the digest of a request body linked to an entry.
// Only a hit is counted: a request that misses here goes on to the keyed
// get, which counts it.
func (c *resultCache) getDigest(d bodyDigest) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.byDigest[d]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

// link records that the request body with digest d was answered by the
// entry stored under key, replacing the digest that entry held before.
// It does nothing when key has no entry (never cached, or evicted since).
func (c *resultCache) link(d bodyDigest, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.unlink(ent)
	ent.digest, ent.linked = d, true
	c.byDigest[d] = el
}

// unlink drops ent's digest from the index. Callers hold mu.
func (c *resultCache) unlink(ent *cacheEntry) {
	if ent.linked {
		delete(c.byDigest, ent.digest)
		ent.linked = false
	}
}

// put stores a response body under its content hash, evicting from the LRU
// tail until both bounds hold. A body larger than the byte bound is not
// cached at all.
func (c *resultCache) put(key string, body []byte) {
	if int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		// Deterministic analysis: a re-put stores identical bytes. Just
		// refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += int64(len(body))
	for len(c.m) > c.maxEntries || c.bytes > c.maxBytes {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.m, ent.key)
		c.unlink(ent)
		c.bytes -= int64(len(ent.body))
		c.evictions.Add(1)
	}
}

// cacheStats is a snapshot of the cache counters.
type cacheStats struct {
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	MaxEntries int   `json:"max_entries"`
	MaxBytes   int64 `json:"max_bytes"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	entries, bytes := len(c.m), c.bytes
	c.mu.Unlock()
	return cacheStats{
		Entries:    entries,
		Bytes:      bytes,
		MaxEntries: c.maxEntries,
		MaxBytes:   c.maxBytes,
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
	}
}
