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

// funcCounter tracks reuse per function name, for the CLI stats table.
type funcCounter struct {
	AnalysisHits, AnalysisMisses int64
	PlanHits, PlanMisses         int64
}

// Store is a bounded, concurrency-safe LRU of content-addressed
// per-function analysis units. One store is shared by every analysis the
// owner runs (a daemon process, a CLI batch), so identical functions
// reuse across requests and sources. It implements
// parallelize.FuncCache.
type Store struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element

	perFunc map[string]*funcCounter

	funcHits, funcMisses atomic.Int64
	planHits, planMisses atomic.Int64
	evictions            atomic.Int64
}

var _ parallelize.FuncCache = (*Store)(nil)

// NewStore returns a unit store bounded to maxEntries cached units
// (Pass-1 analyses and Pass-2 plan sets count separately). maxEntries
// <= 0 selects DefaultEntries.
func NewStore(maxEntries int) *Store {
	if maxEntries <= 0 {
		maxEntries = DefaultEntries
	}
	return &Store{
		max:     maxEntries,
		ll:      list.New(),
		m:       map[string]*list.Element{},
		perFunc: map[string]*funcCounter{},
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

// counter returns the per-function counter cell for fn.
func (s *Store) counter(fn string) *funcCounter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.perFunc[fn]
	if c == nil {
		c = &funcCounter{}
		s.perFunc[fn] = c
	}
	return c
}

// GetAnalysis returns the cached Pass-1 analysis for a unit key. The
// returned analysis is shared and must be treated as immutable.
func (s *Store) GetAnalysis(key, fn string) (*phase2.FuncAnalysis, bool) {
	v, ok := s.get(key)
	c := s.counter(fn)
	s.mu.Lock()
	if ok {
		c.AnalysisHits++
	} else {
		c.AnalysisMisses++
	}
	s.mu.Unlock()
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

// GetPlans returns the cached Pass-2 loop plans for a plan key.
func (s *Store) GetPlans(key, fn string) ([]parallelize.LoopPlan, bool) {
	v, ok := s.get(key)
	c := s.counter(fn)
	s.mu.Lock()
	if ok {
		c.PlanHits++
	} else {
		c.PlanMisses++
	}
	s.mu.Unlock()
	if !ok {
		s.planMisses.Add(1)
		return nil, false
	}
	s.planHits.Add(1)
	return v.([]parallelize.LoopPlan), true
}

// PutPlans stores a function's Pass-2 loop plans under their plan key.
func (s *Store) PutPlans(key, fn string, plans []parallelize.LoopPlan) {
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

// FuncStat is one function's cumulative reuse counters.
type FuncStat struct {
	Name                         string
	AnalysisHits, AnalysisMisses int64
	PlanHits, PlanMisses         int64
}

// FuncStats returns the per-function reuse counters sorted by name.
func (s *Store) FuncStats() []FuncStat {
	s.mu.Lock()
	out := make([]FuncStat, 0, len(s.perFunc))
	for name, c := range s.perFunc {
		out = append(out, FuncStat{
			Name:         name,
			AnalysisHits: c.AnalysisHits, AnalysisMisses: c.AnalysisMisses,
			PlanHits: c.PlanHits, PlanMisses: c.PlanMisses,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StatsTable renders the per-function reuse counters as the fixed-width
// table `subsubcc -incr-stats` prints (golden-tested, so keep the format
// stable).
func (s *Store) StatsTable() string {
	var b strings.Builder
	b.WriteString("incremental reuse (per-function units):\n")
	fmt.Fprintf(&b, "  %-24s %14s %14s\n", "function", "analysis h/m", "plan h/m")
	for _, fs := range s.FuncStats() {
		fmt.Fprintf(&b, "  %-24s %14s %14s\n", fs.Name,
			fmt.Sprintf("%d/%d", fs.AnalysisHits, fs.AnalysisMisses),
			fmt.Sprintf("%d/%d", fs.PlanHits, fs.PlanMisses))
	}
	st := s.Stats()
	fmt.Fprintf(&b, "totals: analysis %d/%d, plans %d/%d, units %d, evictions %d\n",
		st.FuncHits, st.FuncMisses, st.PlanHits, st.PlanMisses, st.Units, st.Evictions)
	return b.String()
}
