package symbolic

// Memoization layer for the symbolic engine: an expression interner plus
// bounded, sharded caches for Simplify and canonical-string comparison.
//
// The analysis recanonicalizes the same expressions thousands of times per
// loop nest (every dependence pair, every sign proof and every aggregation
// step re-simplifies its operands), so Simplify results are memoized under
// a structurally injective key. A probe is one pass over its input: the
// key render also enforces the structural caps of limits.go, counting
// nodes and depth as it writes, so no walk precedes it. Keys are rendered
// into pooled buffers and probed without conversion, so a hit allocates
// nothing and only an insert copies its key into a string; the arithmetic
// combinators (arith.go) render the key of the sum or product they would
// build straight from its operands and build it only on a miss. All
// caches are safe for concurrent use; because Simplify is deterministic, a
// cached result is bit-identical to a recomputed one, which is what makes
// the concurrent batch driver's output reproducible. Hit/miss/eviction
// counters are exported for the compile-time experiments.

import (
	"encoding/binary"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
)

const (
	// cacheShardCount shards the key space to keep lock contention low
	// under concurrent analysis workers. Must be a power of two.
	cacheShardCount = 16
	// cacheShardCap bounds each shard; a full shard is dropped wholesale
	// (epoch eviction), which keeps the cache O(1) per operation and its
	// memory bounded without LRU bookkeeping.
	cacheShardCap = 4096
)

type cacheShard[T any] struct {
	mu sync.RWMutex
	m  map[string]T
}

// shardedCache is a bounded concurrent map from structural keys to values.
type shardedCache[T any] struct {
	shards    [cacheShardCount]cacheShard[T]
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// shardHash hashes a key to pick its shard, mixing eight bytes per step
// and finishing with the murmur3 avalanche so the low bits depend on every
// byte. It is unseeded, unlike hash/maphash, so which keys share a shard,
// and so when a shard is evicted, is the same on every run.
func shardHash(key []byte) uint64 {
	const k = 0x517cc1b727220a95
	h := uint64(len(key))
	for ; len(key) >= 8; key = key[8:] {
		h = (bits.RotateLeft64(h, 5) ^ binary.LittleEndian.Uint64(key)) * k
	}
	var tail uint64
	for i, c := range key {
		tail |= uint64(c) << (8 * i)
	}
	h = (bits.RotateLeft64(h, 5) ^ tail) * k
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (c *shardedCache[T]) shardFor(key []byte) *cacheShard[T] {
	return &c.shards[shardHash(key)&(cacheShardCount-1)]
}

func (c *shardedCache[T]) get(key []byte) (T, bool) {
	s := c.shardFor(key)
	s.mu.RLock()
	v, ok := s.m[string(key)] // converted without allocating
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// put stores v under key. Shard maps grow from empty: one program stores
// only tens to low hundreds of results across all shards.
func (c *shardedCache[T]) put(key []byte, v T) {
	s := c.shardFor(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]T)
	} else if len(s.m) >= cacheShardCap {
		s.m = make(map[string]T)
		c.evictions.Add(1)
	}
	s.m[string(key)] = v
	s.mu.Unlock()
}

func (c *shardedCache[T]) reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

func (c *shardedCache[T]) entries() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

var (
	cacheOff    atomic.Bool          // zero value: caching enabled
	simpCache   shardedCache[Expr]   // structural key -> simplified form
	canonCache  shardedCache[string] // structural key -> canonical string
	internCache shardedCache[Expr]   // structural key -> shared instance
	internCount atomic.Int64
)

// SetCacheEnabled toggles the memoization layer and returns the
// previous setting. The cache is enabled by default; disabling does not
// clear stored entries. Disabled, the engine is the uncached reference
// the symbolic tests and the cacheoff benchmark compare against.
func SetCacheEnabled(on bool) bool {
	return !cacheOff.Swap(!on)
}

// ResetCache empties every cache and zeroes the counters. It drops the
// shard maps rather than clearing them, so the next pass pays for its
// maps as a fresh process does.
func ResetCache() {
	simpCache.reset()
	canonCache.reset()
	internCache.reset()
	internCount.Store(0)
	capHits.Store(0)
}

// CacheStats is a snapshot of the memoization counters.
type CacheStats struct {
	// SimplifyHits/Misses count Simplify memo lookups.
	SimplifyHits, SimplifyMisses int64
	// CompareHits/Misses count canonical-string lookups (CanonicalString/Equal).
	CompareHits, CompareMisses int64
	// Evictions counts whole-shard drops across all caches.
	Evictions int64
	// Interned counts distinct expressions held by the interner.
	Interned int64
	// Entries is the current number of memoized Simplify results.
	Entries int
	// CapHits counts expressions degraded to ⊥ by the structural
	// depth/node caps (see limits.go).
	CapHits int64
}

// HitRate returns the combined hit fraction across the Simplify and
// Compare caches (0 when no lookups happened).
func (s CacheStats) HitRate() float64 {
	total := s.SimplifyHits + s.SimplifyMisses + s.CompareHits + s.CompareMisses
	if total == 0 {
		return 0
	}
	return float64(s.SimplifyHits+s.CompareHits) / float64(total)
}

// ReadCacheStats returns a snapshot of the cache counters.
func ReadCacheStats() CacheStats {
	return CacheStats{
		SimplifyHits:   simpCache.hits.Load(),
		SimplifyMisses: simpCache.misses.Load(),
		CompareHits:    canonCache.hits.Load(),
		CompareMisses:  canonCache.misses.Load(),
		Evictions:      simpCache.evictions.Load() + canonCache.evictions.Load() + internCache.evictions.Load(),
		Interned:       internCount.Load(),
		Entries:        simpCache.entries(),
		CapHits:        capHits.Load(),
	}
}

// Intern returns a shared instance structurally identical to e: repeated
// calls with equal expressions return the same instance, so analyses that
// materialize the same expression many times share one copy. Interning is
// best-effort under concurrency (two racing callers may briefly each keep
// their own copy); the returned expression is always structurally equal to
// the argument.
func Intern(e Expr) Expr {
	if e == nil {
		return nil
	}
	r := renderKey(e)
	defer keyRenders.Put(r)
	if r.over {
		// Past the caps there is no key; interning is best-effort, so
		// just hand the instance back.
		return e
	}
	if v, ok := internCache.get(r.b); ok {
		return v
	}
	internCache.put(r.b, e)
	internCount.Add(1)
	return e
}

// CanonicalString returns Simplify(e).String(), memoized. It is the
// comparison key the engine sorts and deduplicates by.
func CanonicalString(e Expr) string {
	if e == nil {
		return Bottom{}.String()
	}
	// Same structural caps as Simplify, so the result matches
	// Simplify(e).String() for capped inputs too.
	r := renderKey(e)
	defer keyRenders.Put(r)
	if r.over {
		capHits.Add(1)
		return Bottom{}.String()
	}
	if cacheOff.Load() {
		return simplify1(e).String()
	}
	if s, ok := canonCache.get(r.b); ok {
		return s
	}
	// The Simplify memo is keyed by the same bytes, so a miss here
	// probes it without rendering e again.
	v := e
	if !isLeaf(e) {
		v = r.simplify(e)
	}
	s := v.String()
	canonCache.put(r.b, s)
	return s
}

// ---- structural keys ----

// keyRender renders memo keys and enforces the structural caps in the
// same pass. A key is an injective encoding of an expression's structure.
// It differs from String in that it loses nothing: Tagged conditions, the
// distinction between Sym/Lambda/BigLambda with colliding renderings, and
// list arities are all encoded, so two distinct expressions never share a
// key. While writing, the render counts nodes and tracks depth exactly as
// the caps define them (the root at depth 1; nil children are written but
// not counted) and stops at the first node past maxExprNodes or
// maxExprDepth, setting over; the bytes written by then are not a key.
// Stopping there bounds the render's own recursion by maxExprDepth.
type keyRender struct {
	b     []byte
	nodes int
	over  bool
}

// keyRenders recycles renderers. A caller holds its renderer until its
// probe (and any insert) is done; recursive simplification in between
// takes renderers of its own.
var keyRenders = sync.Pool{New: func() any { return new(keyRender) }}

// newKeyRender takes an empty renderer from keyRenders; the caller puts
// it back when done with the key.
func newKeyRender() *keyRender {
	r := keyRenders.Get().(*keyRender)
	r.b, r.nodes, r.over = r.b[:0], 0, false
	return r
}

// renderKey renders e's key (or its cap verdict) into a pooled renderer.
func renderKey(e Expr) *keyRender {
	r := newKeyRender()
	r.expr(e, 1)
	return r
}

// enter counts one node at depth and reports whether the render goes on.
func (r *keyRender) enter(depth int) bool {
	r.nodes++
	if r.nodes > maxExprNodes || depth > maxExprDepth {
		r.over = true
	}
	return !r.over
}

// expr renders e, a node at depth.
func (r *keyRender) expr(e Expr, depth int) {
	if e == nil {
		r.b = append(r.b, 'N')
		return
	}
	if !r.enter(depth) {
		return
	}
	d := depth + 1
	switch x := e.(type) {
	case Int:
		r.b = append(r.b, 'i')
		r.b = strconv.AppendInt(r.b, x.Val, 10)
	case Sym:
		r.name('s', x.Name)
	case Lambda:
		r.name('l', x.Name)
	case BigLambda:
		r.name('G', x.Name)
	case Add:
		r.list('+', x.Terms, d)
	case Mul:
		r.list('*', x.Factors, d)
	case Div:
		r.pair('/', x.Num, x.Den, d)
	case Mod:
		r.pair('%', x.Num, x.Den, d)
	case Min:
		r.list('m', x.Args, d)
	case Max:
		r.list('M', x.Args, d)
	case ArrayRef:
		r.name('a', x.Name)
		r.list('[', x.Indices, d)
	case Call:
		r.name('c', x.Name)
		r.list('(', x.Args, d)
	case Range:
		r.pair('R', x.Lo, x.Hi, d)
	case Tagged:
		r.pair('T', x.Cond, x.E, d)
	case Set:
		r.list('{', x.Items, d)
	case Mono:
		r.b = append(r.b, 'o')
		if x.Strict {
			r.b = append(r.b, 'S')
		}
		r.b = strconv.AppendInt(r.b, int64(x.Dim), 10)
		r.b = append(r.b, ':')
		r.expr(x.Base, d)
	case Bottom:
		r.b = append(r.b, 'B')
	case Cmp:
		r.b = append(r.b, 'C')
		r.b = strconv.AppendInt(r.b, int64(x.Op), 10)
		r.expr(x.L, d)
		r.expr(x.R, d)
	case And:
		r.list('&', x.Conds, d)
	case Or:
		r.list('|', x.Conds, d)
	case Not:
		r.b = append(r.b, '!')
		r.expr(x.C, d)
	case BoolLit:
		if x.Val {
			r.b = append(r.b, "b1"...)
		} else {
			r.b = append(r.b, "b0"...)
		}
	default:
		// Unknown implementations fall back to a length-prefixed String.
		s := e.String()
		r.b = append(r.b, '?')
		r.b = strconv.AppendInt(r.b, int64(len(s)), 10)
		r.b = append(r.b, ':')
		r.b = append(r.b, s...)
	}
}

// name writes a length-prefixed name so arbitrary names cannot collide
// with neighbouring fields.
func (r *keyRender) name(tag byte, name string) {
	r.head(tag, len(name))
	r.b = append(r.b, name...)
}

// head writes a tag and a count: a name's length or a list's arity.
func (r *keyRender) head(tag byte, n int) {
	r.b = append(r.b, tag)
	r.b = strconv.AppendInt(r.b, int64(n), 10)
	r.b = append(r.b, ':')
}

// pair writes a tag and two children at depth.
func (r *keyRender) pair(tag byte, x, y Expr, depth int) {
	r.b = append(r.b, tag)
	r.expr(x, depth)
	r.expr(y, depth)
}

// list writes an arity-prefixed child list at depth.
func (r *keyRender) list(tag byte, es []Expr, depth int) {
	r.head(tag, len(es))
	for _, e := range es {
		if r.expr(e, depth); r.over {
			return
		}
	}
	r.b = append(r.b, ';')
}
