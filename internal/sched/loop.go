package sched

// The file imports only sync and sync/atomic: internal/codegen copies it,
// package clause rewritten, into every emitted Go module, so the native
// code fans its parallel loops out with the same blocks as the
// interpreter engines. The emitter reserves every name the file declares
// or imports (genReserved).

import (
	"sync"
	"sync/atomic"
)

// ParallelLoop is the one parallel-for. It splits [0,n) into contiguous
// blocks of ceil(n/workers) iterations and calls body(b, start, end)
// exactly once for each non-empty block b; an empty tail block gets no
// call. It deliberately does NOT clamp workers to n — callers clamp
// first, because the block count is observable (per-block reduction
// cells combine in block order).
//
// setup(b) runs for every non-empty block, in block order, on the
// caller's goroutine before any body runs. Then one goroutine is spawned
// per block, and each block runs on whichever goroutine claims it first:
// the caller claims from the last block down, the spawned goroutines from
// block 0 up. So the caller runs blocks instead of parking while another
// processor wakes up, and waits only for the blocks other goroutines
// claimed. A spawned goroutine that finds no block left exits at once,
// possibly after ParallelLoop has returned. A single block runs on the
// caller, and nothing is spawned.
//
// body must contain its own panic recovery: a panic that escapes it
// crashes the process, or unwinds the caller while other blocks run.
func ParallelLoop(n int64, workers int, setup func(b int), body func(b int, start, end int64)) {
	if n <= 0 || workers <= 0 {
		return
	}
	per := (n + int64(workers) - 1) / int64(workers)
	blocks := int((n + per - 1) / per)
	for b := 0; b < blocks; b++ {
		setup(b)
	}
	run := func(b int) {
		start := int64(b) * per
		body(b, start, min(start+per, n))
	}
	if blocks == 1 {
		run(0)
		return
	}
	c := &claims{}
	c.next.Store(uint64(blocks))
	c.wg.Add(blocks)
	help := func() {
		for b := c.take(false); b >= 0; b = c.take(false) {
			run(b)
			c.wg.Done()
		}
	}
	for i := 0; i < blocks; i++ {
		go help()
	}
	for b := c.take(true); b >= 0; b = c.take(true) {
		run(b)
		c.wg.Done()
	}
	c.wg.Wait()
}

// claims hands out the blocks of one region, each exactly once, and
// counts the blocks not yet finished.
type claims struct {
	// next packs the lowest unclaimed block in its high 32 bits and one
	// past the highest in its low 32 bits; they meet when every block is
	// claimed.
	next atomic.Uint64
	wg   sync.WaitGroup
}

// take claims the highest unclaimed block if top is set, else the
// lowest, and returns -1 when none is left.
func (c *claims) take(top bool) int {
	for {
		v := c.next.Load()
		lo, hi := int(v>>32), int(uint32(v))
		if lo >= hi {
			return -1
		}
		b, claimed := lo, v+1<<32
		if top {
			b, claimed = hi-1, v-1
		}
		if c.next.CompareAndSwap(v, claimed) {
			return b
		}
	}
}
