// Package sched fans loop iterations out over goroutines. ParallelLoop
// (loop.go) is the one parallel-for in the tree: the bytecode VM and
// the tree walker run their plan-chosen parallel regions on it, the Go
// that internal/codegen emits carries a copy of loop.go (LoopSource) and
// runs its regions on that copy, and ForTraced, the analysis job pool,
// is built on it. Its helper goroutines outlive a region: each spins for
// a millisecond on the next region offered before it exits, so regions
// that follow one another closely reuse them. MeasureForkJoin times a
// fork-join of freshly spawned goroutines to calibrate the multicore
// simulator.
package sched

import (
	_ "embed"
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// LoopSource is loop.go, which internal/codegen copies into every
// emitted Go module.
//
//go:embed loop.go
var LoopSource string

// ForTraced runs body(i) for i in [0,n) on ParallelLoop's static
// schedule, in at most workers blocks. When tr records, each block opens
// a "worker" span under parent, named by its block index (w0, w1, ...)
// and covering the block on whichever goroutine ran it, and the body
// receives that span as the parent for any spans it opens — which is
// what keeps parent linkage correct when analysis jobs run on pool
// goroutines rather than the caller's stack. With a nil recorder the
// body simply receives parent. With one worker (or one job) the loop
// runs on the caller's goroutine, opens no worker span, and the body
// receives parent.
func ForTraced(n, workers int, tr *trace.Recorder, parent trace.SpanID, body func(i int, sp trace.SpanID)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i, parent)
		}
		return
	}
	ParallelLoop(int64(n), workers, func(int) {}, func(w int, start, end int64) {
		wsp := parent
		if tr.Enabled() {
			wsp = tr.StartFunc(parent, "worker", fmt.Sprintf("w%d", w))
			defer tr.End(wsp)
		}
		for i := start; i < end; i++ {
			body(int(i), wsp)
		}
	})
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
