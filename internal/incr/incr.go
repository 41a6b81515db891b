// Package incr is the function-granular incremental-analysis subsystem:
// a reuse tier between the serving layer's whole-request result cache and
// full recomputation.
//
// The analysis is compositional: Pass 1 (array-property analysis) is
// strictly intraprocedural, and Pass 2 (per-nest dependence planning)
// reads only the merged property database plus the function's own
// normalized body. That makes per-function results content-addressable:
//
//   - A Pass-1 unit is keyed by the SHA-256 of the function's
//     canonicalized source (the parser-independent cminus print), its
//     loop-label sequence (labels are positional across the translation
//     unit, so a label shift in an earlier function must miss), the
//     canonicalized analysis options, the globals, and the digests of
//     every transitively reachable callee — so an edit to an inlined or
//     property-propagating callee invalidates every transitive caller.
//   - A Pass-2 unit layers the digest of the merged property database on
//     top of the Pass-1 key, because dependence decisions consume facts
//     that other functions may have contributed.
//
// On re-analysis of an edited source, every clean function's Pass-1
// summary and nest plans replay from the store and only dirty functions
// recompute; the driver then merges in the same deterministic order a
// cold run uses (sorted function names for properties, source order for
// nests), so the incremental result is byte-identical to a cold run.
//
// The daemon (internal/server) shares one Store across every request, so
// an edit needs no API of its own: a client POSTs the edited source to
// /v1/analyze and only the dirty functions recompute.
package incr

import (
	"container/list"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// DefaultEntries is the unit-store bound when the caller passes 0.
const DefaultEntries = 4096

// entry is one cached unit: a Pass-1 analysis or a Pass-2 plan set,
// distinguished by the key's tier segment.
type entry struct {
	key string
	val any
}

// Store is a bounded, concurrency-safe LRU of content-addressed
// per-function analysis units. One store is shared by every analysis the
// owner runs (a daemon process, a CLI batch), so identical functions
// reuse across requests and sources. It implements
// parallelize.FuncCache. It keeps units and whole-store totals only and
// ignores the function names it is passed, so a daemon's store stays
// within its unit bound however many distinct names clients send; a
// Tally counts per function for one batch.
type Store struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element

	funcHits, funcMisses atomic.Int64
	planHits, planMisses atomic.Int64
	evictions            atomic.Int64
}

var (
	_ parallelize.FuncCache = (*Store)(nil)
	_ parallelize.FuncCache = (*Tally)(nil)
)

// NewStore returns a unit store bounded to maxEntries cached units
// (Pass-1 analyses and Pass-2 plan sets count separately). maxEntries
// <= 0 selects DefaultEntries.
func NewStore(maxEntries int) *Store {
	if maxEntries <= 0 {
		maxEntries = DefaultEntries
	}
	return &Store{
		max: maxEntries,
		ll:  list.New(),
		m:   map[string]*list.Element{},
	}
}

// get returns the value under key, refreshing recency.
func (s *Store) get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// put stores val under key, evicting from the LRU tail past the bound.
func (s *Store) put(key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		// Deterministic analysis: a re-put under the same content address
		// stores an equivalent unit. Just refresh recency.
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&entry{key: key, val: val})
	for len(s.m) > s.max {
		tail := s.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*entry)
		s.ll.Remove(tail)
		delete(s.m, ent.key)
		s.evictions.Add(1)
	}
}

// GetAnalysis returns the cached Pass-1 analysis for a unit key. The
// returned analysis is shared and must be treated as immutable.
func (s *Store) GetAnalysis(key, fn string) (*phase2.FuncAnalysis, bool) {
	v, ok := s.get(key)
	if !ok {
		s.funcMisses.Add(1)
		return nil, false
	}
	s.funcHits.Add(1)
	return v.(*phase2.FuncAnalysis), true
}

// PutAnalysis stores a Pass-1 analysis under its unit key.
func (s *Store) PutAnalysis(key, fn string, fa *phase2.FuncAnalysis) {
	s.put(key, fa)
}

// GetPlans returns the cached Pass-2 plan map for a plan key. The
// returned map is shared and must be treated as immutable.
func (s *Store) GetPlans(key, fn string) (map[string]*parallelize.LoopPlan, bool) {
	v, ok := s.get(key)
	if !ok {
		s.planMisses.Add(1)
		return nil, false
	}
	s.planHits.Add(1)
	return v.(map[string]*parallelize.LoopPlan), true
}

// PutPlans stores a function's Pass-2 plan map under its plan key.
func (s *Store) PutPlans(key, fn string, plans map[string]*parallelize.LoopPlan) {
	s.put(key, plans)
}

// Len returns the number of cached units.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Stats is a snapshot of the store counters.
type Stats struct {
	Units      int   `json:"units"`
	MaxUnits   int   `json:"max_units"`
	FuncHits   int64 `json:"func_hits"`
	FuncMisses int64 `json:"func_misses"`
	PlanHits   int64 `json:"plan_hits"`
	PlanMisses int64 `json:"plan_misses"`
	Evictions  int64 `json:"evictions"`
}

// Stats returns a snapshot of the cumulative reuse counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	units := len(s.m)
	s.mu.Unlock()
	return Stats{
		Units:      units,
		MaxUnits:   s.max,
		FuncHits:   s.funcHits.Load(),
		FuncMisses: s.funcMisses.Load(),
		PlanHits:   s.planHits.Load(),
		PlanMisses: s.planMisses.Load(),
		Evictions:  s.evictions.Load(),
	}
}

// Tally counts one batch's unit-store consultations per function name,
// for the table `subsubcc -incr-stats` prints. It wraps the batch's Store
// and implements parallelize.FuncCache, so the rows live only as long as
// the batch does.
type Tally struct {
	*Store

	mu   sync.Mutex
	rows map[string]*funcCounter
}

// funcCounter is one function's row of hit/miss counts.
type funcCounter struct {
	analysisHits, analysisMisses int64
	planHits, planMisses         int64
}

// NewTally returns an empty tally over s.
func NewTally(s *Store) *Tally {
	return &Tally{Store: s, rows: map[string]*funcCounter{}}
}

// row returns fn's counters; the caller holds t.mu.
func (t *Tally) row(fn string) *funcCounter {
	c := t.rows[fn]
	if c == nil {
		c = &funcCounter{}
		t.rows[fn] = c
	}
	return c
}

// GetAnalysis consults the store and counts the outcome against fn.
func (t *Tally) GetAnalysis(key, fn string) (*phase2.FuncAnalysis, bool) {
	fa, ok := t.Store.GetAnalysis(key, fn)
	t.mu.Lock()
	if c := t.row(fn); ok {
		c.analysisHits++
	} else {
		c.analysisMisses++
	}
	t.mu.Unlock()
	return fa, ok
}

// GetPlans consults the store and counts the outcome against fn.
func (t *Tally) GetPlans(key, fn string) (map[string]*parallelize.LoopPlan, bool) {
	plans, ok := t.Store.GetPlans(key, fn)
	t.mu.Lock()
	if c := t.row(fn); ok {
		c.planHits++
	} else {
		c.planMisses++
	}
	t.mu.Unlock()
	return plans, ok
}

// StatsTable renders the per-function rows, sorted by name, and the
// store's totals as a fixed-width table (golden-tested, so keep the
// format stable).
func (t *Tally) StatsTable() string {
	var b strings.Builder
	b.WriteString("incremental reuse (per-function units):\n")
	fmt.Fprintf(&b, "  %-24s %14s %14s\n", "function", "analysis h/m", "plan h/m")
	t.mu.Lock()
	names := make([]string, 0, len(t.rows))
	for name := range t.rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := t.rows[name]
		fmt.Fprintf(&b, "  %-24s %14s %14s\n", name,
			fmt.Sprintf("%d/%d", c.analysisHits, c.analysisMisses),
			fmt.Sprintf("%d/%d", c.planHits, c.planMisses))
	}
	t.mu.Unlock()
	st := t.Stats()
	fmt.Fprintf(&b, "totals: analysis %d/%d, plans %d/%d, units %d, evictions %d\n",
		st.FuncHits, st.FuncMisses, st.PlanHits, st.PlanMisses, st.Units, st.Evictions)
	return b.String()
}
