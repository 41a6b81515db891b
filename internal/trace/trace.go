// Package trace is the pipeline tracing subsystem: a span-based recorder
// that attributes wall-clock time and work counters to the stages of the
// subscripted-subscript analysis (parse → phase1 → phase2 → depend →
// annotate), per function and per loop nest — the cost breakdown the
// paper's evaluation (Section 4, Figures 13–17) reports per benchmark.
//
// A *Recorder hangs off core.Options; a nil recorder disables tracing
// entirely and every method is a nil-receiver no-op, so hot analysis
// paths pay one pointer test and zero allocations when tracing is off.
//
// Spans carry explicit parent links, which is what keeps attribution
// correct when the analysis fans out over the sched worker pool: a span
// started on a worker goroutine names its logical parent (the pass span
// or the worker span), not whatever happens to be on the current stack.
// For display, the recorder additionally assigns each span a lane — the
// Chrome trace "tid" — with stack discipline per lane: a span joins its
// parent's lane when the parent is the lane's innermost open span
// (serial nesting), and otherwise gets a free lane of its own
// (concurrent siblings), so exported traces nest correctly in
// chrome://tracing and Perfetto.
//
// Exporters live alongside: Chrome trace-event JSON (chrome.go), a
// per-stage aggregate table with self/cumulative times (agg.go), and a
// bounded in-memory flight recorder of recent request traces for the
// daemon's /debug/traces endpoint (flight.go). The package is stdlib
// only and imports nothing from the rest of the repository.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within a Recorder. 0 is "no span": passing
// 0 as a parent makes the span a root, and every operation on span 0 is
// a no-op (which is also what a nil recorder's Start returns, so
// disabled tracing composes through call chains without branches).
type SpanID int64

// Counter enumerates the per-span work counters. Counters are fixed
// slots rather than a map so that charging one is an atomic add with no
// allocation.
type Counter uint8

// Per-span counters.
const (
	// CounterSteps counts budget steps billed while the span was the
	// dictionary's attached span (statements walked, CFG nodes, proofs).
	CounterSteps Counter = iota
	// CounterProofs counts symbolic sign queries (SignOf entries, which
	// back ProveGE/ProveGT/ProveLE/ProveLT).
	CounterProofs
	// CounterPairs counts dependence access pairs tested.
	CounterPairs
	// CounterSimplified counts symbolic Simplify memo lookups
	// (hits + misses) attributed to the span.
	CounterSimplified
	// CounterCacheHits / CounterCacheMisses count symbolic memo cache
	// hits and misses (Simplify + canonical string) attributed to the span.
	CounterCacheHits
	CounterCacheMisses

	// NumCounters is the number of counter slots.
	NumCounters
)

// String names the counter as it appears in exports.
func (c Counter) String() string {
	switch c {
	case CounterSteps:
		return "steps"
	case CounterProofs:
		return "proofs"
	case CounterPairs:
		return "pairs"
	case CounterSimplified:
		return "simplified"
	case CounterCacheHits:
		return "cache_hits"
	case CounterCacheMisses:
		return "cache_misses"
	}
	return "unknown"
}

// Span is the exported form of one recorded span.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Stage is the pipeline stage ("parse", "phase1", "phase2",
	// "depend", "annotate", "function", "worker", …).
	Stage string
	// Func and Loop attribute the span to a function and loop nest
	// (either may be empty).
	Func string
	Loop string
	// Start is the span's start time relative to the recorder's epoch.
	Start time.Duration
	// Dur is the span's duration. For a span still open at snapshot
	// time it is the elapsed time so far.
	Dur time.Duration
	// Open reports that the span had not ended when the snapshot was
	// taken.
	Open bool
	// Lane is the display lane (the Chrome trace tid).
	Lane int
	// Counters holds the per-span work counters, indexed by Counter.
	Counters [NumCounters]int64
}

// spanChunkBits sizes the recorder's chunked span storage; chunks keep
// span addresses stable so counter adds can be lock-free atomics while
// Start appends. A chunk holds 32 spans (4 KiB): the daemon traces every
// analysis, and one corpus program records 11 to 29 spans.
const (
	spanChunkBits = 5
	spanChunkSize = 1 << spanChunkBits
	// maxSpans bounds a recorder against runaway span creation (a
	// pathological input analyzed with tracing on). Further Starts are
	// dropped and counted.
	maxSpans = 1 << 20
)

type span struct {
	parent   SpanID
	stage    string
	fn       string
	loop     string
	startNS  int64
	durNS    atomic.Int64 // -1 while open
	lane     int32
	counters [NumCounters]atomic.Int64
}

// Recorder collects spans for one traced activity (a CLI batch, a
// daemon request). It is safe for concurrent use by the analysis worker
// pool. The zero Recorder is not usable; call NewRecorder.
type Recorder struct {
	epoch time.Time

	// mu guards span creation/end and lane bookkeeping. Counter adds
	// take it in read mode only (the chunk table may be appended to
	// concurrently) and update counters with atomics.
	mu      sync.RWMutex
	n       int
	chunks  []*[spanChunkSize]span
	lanes   [][]SpanID // per-lane stack of open spans
	dropped atomic.Int64
}

// NewRecorder returns an empty recorder whose span times are relative
// to now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Enabled reports whether the recorder records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// at returns the span for id; callers hold mu (any mode). id must be a
// valid id previously returned by start.
func (r *Recorder) at(id SpanID) *span {
	idx := int(id) - 1
	return &r.chunks[idx>>spanChunkBits][idx&(spanChunkSize-1)]
}

// Start opens a span with no function/loop attribution.
func (r *Recorder) Start(parent SpanID, stage string) SpanID {
	return r.StartLoop(parent, stage, "", "")
}

// StartFunc opens a span attributed to a function.
func (r *Recorder) StartFunc(parent SpanID, stage, fn string) SpanID {
	return r.StartLoop(parent, stage, fn, "")
}

// StartLoop opens a span attributed to a function and loop nest. It
// returns the new span's id (0 when the recorder is nil or full). The
// parent may have been started on any goroutine.
func (r *Recorder) StartLoop(parent SpanID, stage, fn, loop string) SpanID {
	if r == nil {
		return 0
	}
	start := int64(time.Since(r.epoch))
	r.mu.Lock()
	if r.n >= maxSpans {
		r.mu.Unlock()
		r.dropped.Add(1)
		return 0
	}
	if r.n&(spanChunkSize-1) == 0 {
		r.chunks = append(r.chunks, new([spanChunkSize]span))
	}
	r.n++
	id := SpanID(r.n)
	s := r.at(id)
	s.parent = parent
	s.stage = stage
	s.fn = fn
	s.loop = loop
	s.startNS = start
	s.durNS.Store(-1)
	s.lane = int32(r.assignLane(id, parent))
	r.mu.Unlock()
	return id
}

// assignLane picks the display lane for a new span: the parent's lane
// when the parent is that lane's innermost open span (serial nesting),
// otherwise the lowest-numbered free lane. Callers hold mu.
func (r *Recorder) assignLane(id, parent SpanID) int {
	if parent > 0 && int(parent) <= r.n {
		pl := int(r.at(parent).lane)
		if st := r.lanes[pl]; len(st) > 0 && st[len(st)-1] == parent {
			r.lanes[pl] = append(st, id)
			return pl
		}
	}
	for i := range r.lanes {
		if len(r.lanes[i]) == 0 {
			r.lanes[i] = append(r.lanes[i], id)
			return i
		}
	}
	r.lanes = append(r.lanes, []SpanID{id})
	return len(r.lanes) - 1
}

// End closes a span. No-op on a nil recorder or span 0. Ending a span
// twice is a no-op.
func (r *Recorder) End(id SpanID) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	if int(id) > r.n {
		r.mu.Unlock()
		return
	}
	s := r.at(id)
	if s.durNS.Load() == -1 {
		s.durNS.Store(now - s.startNS)
		st := r.lanes[s.lane]
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == id {
				r.lanes[s.lane] = append(st[:i], st[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
}

// AddCounter charges n units of counter c to span id. Safe from
// concurrent goroutines; no-op on a nil recorder or span 0. This is the
// hot charging path (every budget step with tracing on), so it takes
// the recorder lock in read mode only.
func (r *Recorder) AddCounter(id SpanID, c Counter, n int64) {
	if r == nil || id == 0 || c >= NumCounters {
		return
	}
	r.mu.RLock()
	if int(id) <= r.n {
		r.at(id).counters[c].Add(n)
	}
	r.mu.RUnlock()
}

// Dropped reports how many spans were discarded because the recorder
// hit its span cap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Len reports the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

// Spans snapshots every recorded span in creation order. Spans still
// open report their elapsed time so far and Open=true.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	now := int64(time.Since(r.epoch))
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Span, r.n)
	for i := 0; i < r.n; i++ {
		s := r.at(SpanID(i + 1))
		e := Span{
			ID:     SpanID(i + 1),
			Parent: s.parent,
			Stage:  s.stage,
			Func:   s.fn,
			Loop:   s.loop,
			Start:  time.Duration(s.startNS),
			Lane:   int(s.lane),
		}
		if d := s.durNS.Load(); d >= 0 {
			e.Dur = time.Duration(d)
		} else {
			e.Dur = time.Duration(now - s.startNS)
			e.Open = true
		}
		for c := range e.Counters {
			e.Counters[c] = s.counters[c].Load()
		}
		out[i] = e
	}
	return out
}
