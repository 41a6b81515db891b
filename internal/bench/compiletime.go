package bench

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/phase2"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// CompileTimeRow reports the analysis cost for one benchmark program.
type CompileTimeRow struct {
	Benchmark string
	// Micros per full parallelizer run (parse excluded) per arm.
	Classical, Base, New float64
	// LoopsAnalyzed counts the loops in the program.
	LoopsAnalyzed int
}

// CompileTime measures the compile-time cost of the three analysis arms
// over the corpus (supplementary to the paper, which reports only run-time
// results; the paper's technique is advertised as avoiding run-time
// overheads, so its compile-time cost is the relevant budget).
func (h *Harness) CompileTime() []CompileTimeRow {
	reps := 20
	if h.Quick {
		reps = 5
	}
	var rows []CompileTimeRow
	for _, b := range corpus.All() {
		row := CompileTimeRow{Benchmark: b.Name}
		measure := func(level phase2.Level) float64 {
			t0 := time.Now()
			for r := 0; r < reps; r++ {
				corpus.PlanFor(b, level)
			}
			return float64(time.Since(t0).Microseconds()) / float64(reps)
		}
		row.Classical = measure(phase2.LevelClassical)
		row.Base = measure(phase2.LevelBase)
		row.New = measure(phase2.LevelNew)
		plan := corpus.PlanFor(b, phase2.LevelNew)
		for _, fp := range plan.Funcs {
			row.LoopsAnalyzed += len(fp.Loops)
		}
		rows = append(rows, row)
	}
	h.printf("\nCompile-time cost of the analysis (µs per whole-program run)\n")
	h.printf("%-22s %10s %12s %12s\n", "Benchmark", "Cetus", "+BaseAlgo", "+NewAlgo")
	for _, r := range rows {
		h.printf("%-22s %9.0fµ %11.0fµ %11.0fµ\n", r.Benchmark, r.Classical, r.Base, r.New)
	}
	h.CompileTimeBatch(h.batchWorkers())
	return rows
}

// BatchReport summarizes one whole-corpus concurrent batch analysis: the
// serial vs concurrent driver cost and the symbolic-cache hit rate of a
// cold corpus pass.
type BatchReport struct {
	Workers                      int
	SerialMicros, ParallelMicros float64
	Speedup                      float64
	// Cache is the symbolic memoization snapshot after one cold
	// whole-corpus pass (caches reset beforehand).
	Cache symbolic.CacheStats
	// Stages is the per-stage time/counter attribution of one traced
	// corpus pass with a cold symbolic memo (reset beforehand, as in a
	// fresh subsubcc process), run separately from the timing reps, which
	// stay untraced: where a whole-corpus analysis actually spends its
	// time. A warm memo would hide the symbolic work of every stage.
	Stages []trace.StageAgg
}

// CorpusSources returns the twelve Table-1 benchmarks as batch sources at
// the New analysis level, each carrying its own positivity assumptions.
func CorpusSources() []core.Source {
	var out []core.Source
	for _, b := range corpus.All() {
		out = append(out, core.Source{
			Name: b.Name,
			Src:  b.Source,
			Opt:  &core.Options{Level: phase2.LevelNew, AssumePositive: b.AssumePositive},
		})
	}
	return out
}

// batchWorkers picks the worker count for the batch experiment: the
// harness override when set, otherwise all available cores (minimum 2, so
// the concurrent driver is always exercised).
func (h *Harness) batchWorkers() int {
	if h.Workers > 0 {
		return h.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	return w
}

// CompileTimeBatch measures the whole-corpus batch analysis serially and
// with the concurrent driver, and reports the symbolic-cache hit rate of
// one cold corpus pass.
func (h *Harness) CompileTimeBatch(workers int) BatchReport {
	reps := 10
	if h.Quick {
		reps = 3
	}
	sources := CorpusSources()
	measure := func(w int) float64 {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, br := range core.AnalyzeBatch(sources, core.Options{Workers: w}) {
				if br.Err != nil {
					panic("bench: corpus source failed to analyze: " + br.Err.Error())
				}
			}
		}
		return float64(time.Since(t0).Microseconds()) / float64(reps)
	}
	rep := BatchReport{Workers: workers}
	rep.SerialMicros = measure(1)
	rep.ParallelMicros = measure(workers)
	if rep.ParallelMicros > 0 {
		rep.Speedup = rep.SerialMicros / rep.ParallelMicros
	}

	// Cache hit rate of a cold pass: reset, analyze the corpus once,
	// snapshot. (The timing runs above ran warm, as a compiler daemon
	// would.)
	symbolic.ResetCache()
	core.AnalyzeBatch(sources, core.Options{Workers: 1})
	rep.Cache = symbolic.ReadCacheStats()

	// Stage attribution: one traced corpus pass, cold like the hit-rate
	// pass. Traced separately so the timing reps above measure the
	// disabled-tracing (production) cost.
	symbolic.ResetCache()
	tr := trace.NewRecorder()
	core.AnalyzeBatch(sources, core.Options{Workers: workers, Trace: tr})
	rep.Stages = trace.Aggregate(tr.Spans())

	h.printf("\nConcurrent batch analysis of the 12-benchmark corpus (AnalyzeBatch)\n")
	h.printf("serial (1 worker):      %8.0fµ\n", rep.SerialMicros)
	h.printf("parallel (%d workers):   %8.0fµ  (%.2fx)\n", rep.Workers, rep.ParallelMicros, rep.Speedup)
	c := rep.Cache
	h.printf("symbolic cache, cold corpus pass: %.1f%% hit rate (simplify %d/%d, compare %d/%d, %d entries, %d interned, %d evictions)\n",
		100*c.HitRate(), c.SimplifyHits, c.SimplifyHits+c.SimplifyMisses,
		c.CompareHits, c.CompareHits+c.CompareMisses, c.Entries, c.Interned, c.Evictions)
	h.printf("\nStage attribution of one traced corpus pass (%d workers, cold symbolic memo)\n", workers)
	h.printf("%s", trace.Table(rep.Stages))
	return rep
}
