package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenLevels names each analysis arm's golden file.
var goldenLevels = []struct {
	name  string
	level Level
}{
	{"classical", Classical},
	{"base", Base},
	{"new", New},
}

// corpusBatch is the extended corpus (Table 1 plus the scatter set) as
// batch sources, each carrying its own size assumptions.
func corpusBatch(level Level) []Source {
	var srcs []Source
	for _, b := range corpus.Extended() {
		srcs = append(srcs, Source{
			Name: b.Name,
			Src:  b.Source,
			Opt:  &Options{Level: level, AssumePositive: b.AssumePositive},
		})
	}
	return srcs
}

// checkGolden compares got with the named file under testdata/golden,
// rewriting the file instead when -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run go test -update if the change is intended)", path)
	}
}

// TestGoldenCorpus pins the full wire output — properties, per-loop
// decisions, diagnostics and annotated source — of every corpus program
// at every analysis level, so a change to any layer that alters one
// output byte fails here.
func TestGoldenCorpus(t *testing.T) {
	for _, gl := range goldenLevels {
		t.Run(gl.name, func(t *testing.T) {
			out, err := MarshalBatch(AnalyzeBatch(corpusBatch(gl.level), Options{}), true)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, gl.name+".json", out)
		})
	}
}

// TestUsedPropertiesListedOnce: a decision names each fact it rests on
// once, however many dependence pairs the fact settles (AMGmk's L2 rests
// on one A_rownnz fact through two pairs).
func TestUsedPropertiesListedOnce(t *testing.T) {
	for _, gl := range goldenLevels {
		for _, br := range AnalyzeBatch(corpusBatch(gl.level), Options{}) {
			if br.Err != nil {
				t.Fatalf("%s/%s: %v", gl.name, br.Name, br.Err)
			}
			for fn, fp := range br.Res.Plan.Funcs {
				for lbl, lp := range fp.Loops {
					seen := map[string]bool{}
					for _, p := range lp.Decision.UsedProperties {
						if seen[p] {
							t.Errorf("%s/%s %s %s: %q listed twice", gl.name, br.Name, fn, lbl, p)
						}
						seen[p] = true
					}
				}
			}
		}
	}
}

// TestGoldenMemoCounters pins the symbolic memo's counters over a cold
// per-program pass of the corpus at level New, the way a fresh subsubcc
// process analyzes one file. The counters depend only on which
// expressions the analysis canonicalizes and compares, so a change to
// the engine's internals that keeps them equal did not change the work
// the analysis asks of it.
func TestGoldenMemoCounters(t *testing.T) {
	defer symbolic.ResetCache()
	var sum symbolic.CacheStats
	for _, src := range corpusBatch(New) {
		symbolic.ResetCache()
		if _, err := Analyze(src.Src, *src.Opt); err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		s := symbolic.ReadCacheStats()
		sum.SimplifyHits += s.SimplifyHits
		sum.SimplifyMisses += s.SimplifyMisses
		sum.CompareHits += s.CompareHits
		sum.CompareMisses += s.CompareMisses
		sum.Interned += s.Interned
		sum.Evictions += s.Evictions
		sum.CapHits += s.CapHits
	}
	got := fmt.Sprintf("simplify hits %d misses %d\ncompare hits %d misses %d\ninterned %d\nevictions %d\ncap hits %d\n",
		sum.SimplifyHits, sum.SimplifyMisses, sum.CompareHits, sum.CompareMisses,
		sum.Interned, sum.Evictions, sum.CapHits)
	checkGolden(t, "memo_counters.txt", []byte(got))
}

// TestGoldenWorkCounts pins, for every level and corpus program, the
// budget steps, sign proofs and dependence pairs that a cold
// single-worker analysis under the program's own assumptions bills to
// its trace counters. A change that keeps these counts did not change the
// work the analysis does per program; a benchmark's per-operation
// averages cannot show that, since they depend on which programs a run
// happened to reach.
func TestGoldenWorkCounts(t *testing.T) {
	defer symbolic.ResetCache()
	var got bytes.Buffer
	for _, gl := range goldenLevels {
		for _, src := range corpusBatch(gl.level) {
			symbolic.ResetCache()
			opt := *src.Opt
			opt.Trace = trace.NewRecorder()
			if _, err := Analyze(src.Src, opt); err != nil {
				t.Fatalf("%s/%s: %v", gl.name, src.Name, err)
			}
			var sum [trace.NumCounters]int64
			for _, s := range opt.Trace.Spans() {
				for c, n := range s.Counters {
					sum[c] += n
				}
			}
			fmt.Fprintf(&got, "%s %s steps %d proofs %d pairs %d\n", gl.name, src.Name,
				sum[trace.CounterSteps], sum[trace.CounterProofs], sum[trace.CounterPairs])
		}
	}
	checkGolden(t, "work_counts.txt", got.Bytes())
}
