package sched

// The file imports only sync: internal/codegen copies it, package clause
// rewritten, into every emitted Go module, so the native code fans its
// parallel loops out with the same chunking as the interpreter engines.

import "sync"

// ParallelLoop is the one parallel-for: static contiguous
// ceil(n/workers) blocks (empty tail blocks spawn no worker) or, with
// dynamicChunk > 0, workers pulling fixed-size chunks off a shared
// counter. A single worker runs its block on the caller's goroutine. It
// deliberately does NOT clamp workers to n — callers clamp first,
// because worker count is observable (per-worker reduction cells
// combine in worker order).
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
