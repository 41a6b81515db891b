package main

import (
	"time"

	"repro/internal/symbolic"
	"repro/internal/trace"
)

// stageMetric maps the analysis pipeline's trace stages to per-layer
// metrics; every other analysis stage (analyze, pass1, pass2, function,
// plan, source, worker, unitkeys, inline) counts as analysis_other_ms.
var stageMetric = map[string]string{
	"parse":    "parse_ms",
	"phase1":   "phase1_ms",
	"phase2":   "phase2_ms",
	"depend":   "depend_ms",
	"annotate": "annotate_ms",
}

// stageTotals accumulates self time and work counters per analysis stage
// across many traced analyses.
type stageTotals struct {
	self     map[string]time.Duration
	counters [trace.NumCounters]int64
}

func newStageTotals() *stageTotals { return &stageTotals{self: map[string]time.Duration{}} }

func (s *stageTotals) add(aggs []trace.StageAgg) {
	for _, a := range aggs {
		s.addStage(a.Stage, a.Self, a.Counters)
	}
}

func (s *stageTotals) addStage(stage string, self time.Duration, counters [trace.NumCounters]int64) {
	m, ok := stageMetric[stage]
	if !ok {
		m = "analysis_other_ms"
	}
	s.self[m] += self
	for c, v := range counters {
		s.counters[c] += v
	}
}

// into writes the per-operation stage metrics for ops operations.
func (s *stageTotals) into(layers map[string]float64, ops int) {
	if ops == 0 {
		return
	}
	for m, d := range s.self {
		layers[m] = ms(d) / float64(ops)
	}
	layers["proofs_per_op"] = float64(s.counters[trace.CounterProofs]) / float64(ops)
	layers["dep_pairs_per_op"] = float64(s.counters[trace.CounterPairs]) / float64(ops)
	layers["steps_per_op"] = float64(s.counters[trace.CounterSteps]) / float64(ops)
}

// symcacheHitPct is the symbolic memo's hit share, in percent, of the
// lookups made between two snapshots of its process-wide counters.
func symcacheHitPct(before, after symbolic.CacheStats) float64 {
	hits := (after.SimplifyHits - before.SimplifyHits) + (after.CompareHits - before.CompareHits)
	misses := (after.SimplifyMisses - before.SimplifyMisses) + (after.CompareMisses - before.CompareMisses)
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

// addCacheStats sums the symbolic memo's lookup counters.
func addCacheStats(a, b symbolic.CacheStats) symbolic.CacheStats {
	a.SimplifyHits += b.SimplifyHits
	a.SimplifyMisses += b.SimplifyMisses
	a.CompareHits += b.CompareHits
	a.CompareMisses += b.CompareMisses
	return a
}
