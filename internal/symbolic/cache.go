package symbolic

// Memoization layer for the symbolic engine: an expression interner plus
// bounded, sharded caches for Simplify and canonical-string comparison.
//
// The analysis recanonicalizes the same expressions thousands of times per
// loop nest (every dependence pair, every sign proof and every aggregation
// step re-simplifies its operands), so Simplify results are memoized under
// a structurally injective key. Keys are rendered into pooled byte
// buffers and probed without conversion, so a hit allocates nothing and
// only an insert copies its key into a string. All caches are safe for
// concurrent use; because Simplify is deterministic, a cached result is
// bit-identical to a recomputed one, which is what makes the concurrent
// batch driver's output reproducible. Hit/miss/eviction counters are
// exported for the compile-time experiments.

import (
	"strconv"
	"strings"
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

// fnv32a hashes a key to pick its shard.
func fnv32a(key []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

func (c *shardedCache[T]) shardFor(key []byte) *cacheShard[T] {
	return &c.shards[fnv32a(key)&(cacheShardCount-1)]
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

// SetCacheEnabled toggles the memoization layer (used by tests and A/B
// benchmarks) and returns the previous setting. The cache is enabled by
// default; disabling does not clear stored entries.
func SetCacheEnabled(on bool) bool {
	return !cacheOff.Swap(!on)
}

// CacheEnabled reports whether the memoization layer is active.
func CacheEnabled() bool { return !cacheOff.Load() }

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
	// CompareHits/Misses count canonical-string lookups (Compare/Equal).
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
	if exceedsLimits(e) {
		// Too large to key without deep recursion; interning is
		// best-effort, so just hand the instance back.
		return e
	}
	bp := getKey(e)
	defer keyBufs.Put(bp)
	if v, ok := internCache.get(*bp); ok {
		return v
	}
	internCache.put(*bp, e)
	internCount.Add(1)
	return e
}

// CanonicalString returns Simplify(e).String(), memoized. It is the
// comparison key the engine sorts and deduplicates by.
func CanonicalString(e Expr) string {
	if e == nil {
		return Bottom{}.String()
	}
	// Same structural caps as Simplify, checked before the recursive key
	// render; the result matches Simplify(e).String() for capped inputs.
	if exceedsLimits(e) {
		capHits.Add(1)
		return Bottom{}.String()
	}
	if cacheOff.Load() {
		return Simplify(e).String()
	}
	bp := getKey(e)
	defer keyBufs.Put(bp)
	if s, ok := canonCache.get(*bp); ok {
		return s
	}
	s := Simplify(e).String()
	canonCache.put(*bp, s)
	return s
}

// Compare orders two expressions by their canonical simplified form
// (negative, zero, positive — the usual three-way contract). Compare(a, b)
// == 0 coincides with Equal(a, b) for non-nil arguments.
func Compare(a, b Expr) int {
	return strings.Compare(CanonicalString(a), CanonicalString(b))
}

// ---- structural keys ----

// keyBufs recycles the buffers memo keys are rendered into. A caller
// holds its buffer until its probe (and any insert) is done; recursive
// simplification in between takes buffers of its own.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// getKey renders e's structural key into a pooled buffer; the caller
// returns it to keyBufs when done with the key.
func getKey(e Expr) *[]byte {
	bp := keyBufs.Get().(*[]byte)
	*bp = appendKey((*bp)[:0], e)
	return bp
}

// appendKey appends an injective encoding of e's structure to b. It
// differs from String in that it loses nothing: Tagged conditions, the
// distinction between Sym/Lambda/BigLambda with colliding renderings, and
// list arities are all encoded, so two distinct expressions never share a
// key.
func appendKey(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case nil:
		b = append(b, 'N')
	case Int:
		b = append(b, 'i')
		b = strconv.AppendInt(b, x.Val, 10)
	case Sym:
		b = keyName(b, 's', x.Name)
	case Lambda:
		b = keyName(b, 'l', x.Name)
	case BigLambda:
		b = keyName(b, 'G', x.Name)
	case Add:
		b = keyList(b, '+', x.Terms)
	case Mul:
		b = keyList(b, '*', x.Factors)
	case Div:
		b = append(b, '/')
		b = appendKey(b, x.Num)
		b = appendKey(b, x.Den)
	case Mod:
		b = append(b, '%')
		b = appendKey(b, x.Num)
		b = appendKey(b, x.Den)
	case Min:
		b = keyList(b, 'm', x.Args)
	case Max:
		b = keyList(b, 'M', x.Args)
	case ArrayRef:
		b = keyName(b, 'a', x.Name)
		b = keyList(b, '[', x.Indices)
	case Call:
		b = keyName(b, 'c', x.Name)
		b = keyList(b, '(', x.Args)
	case Range:
		b = append(b, 'R')
		b = appendKey(b, x.Lo)
		b = appendKey(b, x.Hi)
	case Tagged:
		b = append(b, 'T')
		b = appendKey(b, x.Cond)
		b = appendKey(b, x.E)
	case Set:
		b = keyList(b, '{', x.Items)
	case Mono:
		b = append(b, 'o')
		if x.Strict {
			b = append(b, 'S')
		}
		b = strconv.AppendInt(b, int64(x.Dim), 10)
		b = append(b, ':')
		b = appendKey(b, x.Base)
	case Bottom:
		b = append(b, 'B')
	case Cmp:
		b = append(b, 'C')
		b = strconv.AppendInt(b, int64(x.Op), 10)
		b = appendKey(b, x.L)
		b = appendKey(b, x.R)
	case And:
		b = keyList(b, '&', x.Conds)
	case Or:
		b = keyList(b, '|', x.Conds)
	case Not:
		b = append(b, '!')
		b = appendKey(b, x.C)
	case BoolLit:
		if x.Val {
			b = append(b, "b1"...)
		} else {
			b = append(b, "b0"...)
		}
	default:
		// Unknown implementations fall back to a length-prefixed String.
		s := e.String()
		b = append(b, '?')
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	return b
}

// keyName appends a length-prefixed name so arbitrary names cannot
// collide with neighbouring fields.
func keyName(b []byte, tag byte, name string) []byte {
	b = append(b, tag)
	b = strconv.AppendInt(b, int64(len(name)), 10)
	b = append(b, ':')
	return append(b, name...)
}

// keyList appends an arity-prefixed child list.
func keyList(b []byte, tag byte, es []Expr) []byte {
	b = append(b, tag)
	b = strconv.AppendInt(b, int64(len(es)), 10)
	b = append(b, ':')
	for _, e := range es {
		b = appendKey(b, e)
	}
	return append(b, ';')
}
