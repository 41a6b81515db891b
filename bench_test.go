package subsub

// One testing.B benchmark per evaluation artifact (Table 1, Figures
// 13-17), plus benchmarks of the analysis itself. Each experiment
// benchmark regenerates its table/figure through the harness in
// internal/bench; run `go run ./cmd/benchrunner` for the full-scale
// printed output and EXPERIMENTS.md for paper-vs-measured numbers.

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/phase2"
	"repro/internal/symbolic"
)

var (
	harnessOnce sync.Once
	harness     *bench.Harness
)

// quickHarness calibrates once and reuses the harness across benchmarks.
func quickHarness() *bench.Harness {
	harnessOnce.Do(func() {
		harness = bench.New(io.Discard, true)
	})
	return harness
}

// BenchmarkTable1 regenerates Table 1 (serial execution times).
func BenchmarkTable1(b *testing.B) {
	h := quickHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := h.Table1()
		if len(rows) < 12 {
			b.Fatal("table incomplete")
		}
	}
}

// BenchmarkFig13 regenerates Figure 13 (with vs without the analysis).
func BenchmarkFig13(b *testing.B) {
	h := quickHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := h.Fig13()
		if len(data) != 3 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkFig14 regenerates Figure 14 (improvement over serial).
func BenchmarkFig14(b *testing.B) {
	h := quickHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := h.Fig14()
		if len(data) != 3 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkFig15 regenerates Figure 15 (parallel efficiency).
func BenchmarkFig15(b *testing.B) {
	h := quickHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := h.Fig15()
		if len(data) != 3 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkFig16 regenerates Figure 16 (dynamic vs static scheduling).
func BenchmarkFig16(b *testing.B) {
	h := quickHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := h.Fig16()
		if len(rows) != 12 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkFig17 regenerates Figure 17 (the three analysis arms over all
// twelve benchmarks).
func BenchmarkFig17(b *testing.B) {
	h := quickHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := h.Fig17()
		if len(rows) != 12 {
			b.Fatal("figure incomplete")
		}
	}
}

// BenchmarkAblation regenerates the capability-ablation table.
func BenchmarkAblation(b *testing.B) {
	h := quickHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := h.Ablation()
		if len(rows) != 12 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkCompileTime regenerates the analysis-cost table.
func BenchmarkCompileTime(b *testing.B) {
	h := quickHarness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := h.CompileTime()
		if len(rows) != 12 {
			b.Fatal("compile-time table incomplete")
		}
	}
}

// BenchmarkAnalysisAMG measures the compile-time cost of the full
// analysis pipeline on the AMGmk program (parse → normalize → Phase 1 →
// Phase 2 → dependence test → plan).
func BenchmarkAnalysisAMG(b *testing.B) {
	src := corpus.AMGmk.Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Analyze(src, Options{Level: New})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Properties()) == 0 {
			b.Fatal("no properties")
		}
	}
}

// BenchmarkAnalysisCorpus measures the analysis over the whole 12-program
// corpus at every level.
func BenchmarkAnalysisCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bm := range corpus.All() {
			for _, lvl := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase, phase2.LevelNew} {
				corpus.PlanFor(bm, lvl)
			}
		}
	}
}

// BenchmarkAnalyzeBatch compares the serial and concurrent batch drivers
// over the 15-program corpus, Table 1 plus the scatter set (the
// compiletime experiment's speedup measurement, as a testing.B
// benchmark). serial and parallel run with the symbolic memo warm after
// their first iteration, as in a long-lived daemon; cold empties it
// before every iteration, as a fresh subsubcc process starts; cacheoff
// runs with the memo disabled (each probe still renders its key, which
// is the structural cap check), the cost without the memo.
func BenchmarkAnalyzeBatch(b *testing.B) {
	srcs := corpusSources()
	run := func(b *testing.B, workers int, cold bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cold {
				symbolic.ResetCache()
			}
			for _, br := range AnalyzeBatch(srcs, Options{Workers: workers}) {
				if br.Err != nil {
					b.Fatal(br.Err)
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, false) })
	b.Run("parallel", func(b *testing.B) {
		w := runtime.GOMAXPROCS(0)
		if w < 2 {
			w = 2
		}
		run(b, w, false)
	})
	b.Run("cold", func(b *testing.B) { run(b, 1, true) })
	b.Run("cacheoff", func(b *testing.B) {
		defer symbolic.SetCacheEnabled(symbolic.SetCacheEnabled(false))
		run(b, 1, false)
	})
}
