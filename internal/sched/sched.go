// Package sched fans loop iterations out over goroutines. ParallelLoop
// is the one chunker: the bytecode VM and the tree walker run their
// plan-chosen parallel regions on it, and For, the OpenMP-like
// parallel-for of the hand-written figure kernels (internal/kernels),
// is a thin wrapper over it. ForTraced is the analysis job pool, and
// MeasureForkJoin times a fork-join to calibrate the multicore
// simulator. The Go that internal/codegen emits carries its own
// dispatch and does not use this package.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/trace"
)

// Policy selects the loop schedule.
type Policy int

// Scheduling policies (mirroring OpenMP's static and dynamic).
const (
	Static Policy = iota
	Dynamic
)

func (p Policy) String() string {
	if p == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Options configures a parallel-for.
type Options struct {
	Workers int
	Policy  Policy
	// Chunk is the dynamic policy's chunk size (default 1). The static
	// policy ignores it and always splits the range into one contiguous
	// block per worker.
	Chunk int
}

// For runs body(i) for i in [0,n) in parallel on ParallelLoop, with
// Workers goroutines (GOMAXPROCS when unset, at most n).
//
// Static: contiguous blocks of ~n/Workers per worker (OpenMP default).
// Dynamic: workers pull chunks of Options.Chunk iterations.
func For(n int, opt Options, body func(i int)) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := 0
	if opt.Policy == Dynamic {
		chunk = max(opt.Chunk, 1)
	}
	ParallelLoop(int64(n), min(workers, n), chunk, func(int) {}, func(_ int, start, end int64) bool {
		for i := start; i < end; i++ {
			body(int(i))
		}
		return true
	})
}

// ForTraced is For with pipeline tracing: when tr records, each worker
// goroutine opens a "worker" span under parent covering its lifetime,
// and the body receives that worker span as the parent for any spans it
// opens — which is what keeps parent linkage correct when analysis jobs
// run on pool goroutines rather than the caller's stack. With a nil
// recorder (or serially, when the fan-out never leaves the caller's
// goroutine) the body simply receives parent, and scheduling is
// identical to For with the static policy.
func ForTraced(n int, opt Options, tr *trace.Recorder, parent trace.SpanID, body func(i int, sp trace.SpanID)) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i, parent)
		}
		return
	}
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * per
		end := start + per
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			wsp := parent
			if tr.Enabled() {
				wsp = tr.StartFunc(parent, "worker", fmt.Sprintf("w%d", w))
				defer tr.End(wsp)
			}
			for i := start; i < end; i++ {
				body(i, wsp)
			}
		}(w, start, end)
	}
	wg.Wait()
}

// ParallelLoop is the fan-out primitive behind every parallel-for in
// this package's callers: static contiguous ceil(n/workers) blocks
// (empty tail blocks spawn no worker) or, with dynamicChunk > 0, workers
// pulling fixed-size chunks off a shared counter. One worker runs its
// block on the caller's goroutine. It deliberately does NOT clamp
// workers to n — callers clamp first, because worker count is
// observable (per-worker reduction cells combine in worker order).
//
// setup(w) runs on the caller's goroutine immediately before worker w is
// spawned, so per-worker state is published before the goroutine starts.
// body runs on the worker goroutine, possibly several times under the
// dynamic policy; returning false stops that worker's chunk pulling.
// body must contain its own panic recovery — a panic that escapes it
// crashes the process.
func ParallelLoop(n int64, workers, dynamicChunk int, setup func(w int), body func(w int, start, end int64) bool) {
	if n <= 0 || workers <= 0 {
		return
	}
	if workers == 1 {
		setup(0)
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	if dynamicChunk > 0 {
		chunk := int64(dynamicChunk)
		var mu sync.Mutex
		var next int64
		for w := 0; w < workers; w++ {
			setup(w)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					mu.Lock()
					start := next
					next += chunk
					mu.Unlock()
					if start >= n {
						return
					}
					end := start + chunk
					if end > n {
						end = n
					}
					if !body(w, start, end) {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return
	}
	per := (n + int64(workers) - 1) / int64(workers)
	for w := 0; w < workers; w++ {
		start := int64(w) * per
		end := start + per
		if end > n {
			end = n
		}
		if start >= end {
			continue
		}
		setup(w)
		wg.Add(1)
		go func(w int, start, end int64) {
			defer wg.Done()
			body(w, start, end)
		}(w, start, end)
	}
	wg.Wait()
}

// MeasureForkJoin measures the wall-clock cost of launching and joining an
// empty parallel region with the given worker count (the per-region
// overhead that makes inner-loop parallelization expensive). The median of
// reps runs is returned.
func MeasureForkJoin(workers, reps int) time.Duration {
	if reps <= 0 {
		reps = 32
	}
	times := make([]time.Duration, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() { wg.Done() }()
		}
		wg.Wait()
		times[r] = time.Since(t0)
	}
	// Median by insertion sort (reps is small).
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[len(times)/2]
}
