package main

// The compile-corpus workload: what `subsubcc -json -annotate` does for one
// program — parse, analyze at the paper's level, plan, annotate, encode —
// over the fifteen corpus programs in seeded order. Each operation starts
// from an empty symbolic memo and a collected heap, as a fresh subsubcc
// process does, and analyzes a program whose identifiers carry a fresh
// seeded prefix. Each
// result must equal the reference result of the same program under another
// prefix once the prefixes are removed, and its kernel must be
// parallelized at the level the paper reports.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// compileOnce analyzes p with the CLI's options and returns the JSON the
// CLI would print, checking that the kernel got its expected parallelism.
func compileOnce(p *program, tr *trace.Recorder) ([]byte, error) {
	results := core.AnalyzeBatch([]core.Source{{Name: p.bench.Name, Src: p.src}},
		core.Options{Level: core.New, AssumePositive: p.assume, Trace: tr})
	out, err := core.MarshalBatch(results, true)
	if err != nil {
		return nil, err
	}
	if err := results[0].Err; err != nil {
		return nil, err
	}
	want := p.bench.Expected[core.New]
	if got := corpus.Achieved(results[0].Res.Plan, p.kernel); got != want {
		return nil, fmt.Errorf("%s: kernel parallelism %v, want %v", p.bench.Name, got, want)
	}
	return out, nil
}

func runCompile(cfg config) (*run, error) {
	templates, err := newTemplates(corpus.Extended())
	if err != nil {
		return nil, err
	}
	names := newPrefixes(cfg.seed)

	// Set-up analyzes every program once, under a prefix of its own, for
	// the reference results.
	refs, setup, err := setUp(func(int) (map[string][]byte, error) {
		symbolic.ResetCache()
		refs := map[string][]byte{}
		for _, t := range templates {
			p := t.with(names.next())
			out, err := compileOnce(p, nil)
			if err != nil {
				return nil, err
			}
			refs[t.bench.Name] = p.unprefix(out)
		}
		return refs, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	r := newRun(setup)
	// Only this workload runs its measured operations differently when
	// traced, so only here is the gap to op_p50_ms tracing overhead.
	r.tracedPath = true
	stages := newStageTotals()
	var (
		allocs allocMeter
		sym    symbolic.CacheStats
		order  []int
	)
	rng := rand.New(rand.NewSource(cfg.seed))
	measure(r, cfg.window, func(i int) (string, time.Duration, error) {
		if i%len(templates) == 0 {
			order = rng.Perm(len(templates))
		}
		p := templates[order[i%len(templates)]].with(names.next())
		var tr *trace.Recorder
		if cfg.tracing {
			tr = trace.NewRecorder()
		}
		symbolic.ResetCache()
		runtime.GC()
		t0 := time.Now()
		out, err := compileOnce(p, tr)
		lat := time.Since(t0)
		if tr != nil {
			stages.add(trace.Aggregate(tr.Spans()))
		}
		sym = addCacheStats(sym, symbolic.ReadCacheStats())
		if err == nil && !bytes.Equal(p.unprefix(out), refs[p.bench.Name]) {
			err = fmt.Errorf("%s: result differs from the reference", p.bench.Name)
		}
		return p.bench.Name, lat, err
	}, func() {
		stages = newStageTotals()
		allocs = startAllocs()
		sym = symbolic.CacheStats{}
	})
	stages.into(r.layers, r.ops())
	r.layers["symcache_hit_pct"] = symcacheHitPct(symbolic.CacheStats{}, sym)
	r.layers["alloc_kb_per_op"] = allocs.kibPer(r.ops())
	return r, nil
}
