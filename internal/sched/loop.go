package sched

// The file imports only runtime, sync, sync/atomic and time:
// internal/codegen copies it, package clause rewritten, into every
// emitted Go module, so the native code fans its parallel loops out with
// the same blocks and helpers as the interpreter engines. The emitter
// reserves every name the file declares or imports (genReserved).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ParallelLoop is the one parallel-for. It splits [0,n) into contiguous
// blocks of ceil(n/workers) iterations and calls body(b, start, end)
// exactly once for each non-empty block b; an empty tail block gets no
// call. It deliberately does NOT clamp workers to n — callers clamp
// first, because the block count is observable (per-block reduction
// cells combine in block order).
//
// setup(b) runs for every non-empty block, in block order, on the
// caller's goroutine before any body runs. Each block then runs on
// whichever goroutine claims it first: the caller claims from the last
// block down, helper goroutines from block 0 up. A helper that runs out
// of blocks spins for helperWindow on the region a later caller offers,
// and exits when none comes; at most GOMAXPROCS-1 helpers spin, so none
// does on one processor. The caller offers its region to the spinning
// helpers and spawns a helper per block only when too few spin. Once it
// has no block left to claim, the caller spins for up to joinWindow on
// the blocks still running, then parks until they finish. A helper may
// still run, or spin, after ParallelLoop has returned. A single block
// runs on the caller, and no helper takes part.
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
	if blocks == 1 {
		body(0, 0, n)
		return
	}
	c := &claims{n: n, per: per, body: body}
	c.next.Store(uint64(blocks))
	c.running.Store(int32(blocks))
	c.wg.Add(blocks)
	// The region is offered before the spinning helpers are counted, so a
	// helper counted here finds it offered even if its window passes
	// first (await). Without enough of them, one helper is spawned per
	// block not covered, the caller's own included: Go runs the last
	// goroutine spawned next on this processor, and another processor
	// can take only the others at once.
	offer, spinning := spinners.Load() > 0, 0
	if offer {
		offered.Store(c)
		spinning = int(spinners.Load())
	}
	if spinning < blocks-1 {
		for i := spinning; i < blocks; i++ {
			go help(c)
		}
	}
	for b := c.take(true); b >= 0; b = c.take(true) {
		c.run(b)
	}
	if offer {
		offered.CompareAndSwap(c, nil)
	}
	if c.running.Load() > 0 && runtime.GOMAXPROCS(0) > 1 {
		for t0 := time.Now(); c.running.Load() > 0 && time.Since(t0) < joinWindow; {
		}
	}
	c.wg.Wait()
}

const (
	// helperWindow is how long a helper with no block left spins for the
	// next region before it exits. Regions that follow one another within
	// the window pay no goroutine spawn and no wake of an idle processor.
	helperWindow = time.Millisecond
	// joinWindow is how long the caller spins on the blocks other
	// goroutines still run before it parks, and so pays a wake when they
	// finish.
	joinWindow = 100 * time.Microsecond
)

var (
	// offered holds the region a caller offers to the spinning helpers,
	// nil when none does. A later offer replaces an earlier one, whose
	// caller then runs the blocks no helper claimed.
	offered atomic.Pointer[claims]
	// spinners counts the helpers spinning on offered.
	spinners atomic.Int32
)

// help runs blocks of c from block 0 up, and then of each region await
// returns, until it returns none.
func help(c *claims) {
	for ; c != nil; c = await() {
		for b := c.take(false); b >= 0; b = c.take(false) {
			c.run(b)
		}
	}
}

// await spins until a region with an unclaimed block is offered, and
// returns it. It returns nil when helperWindow passes without one, or at
// once when GOMAXPROCS-1 helpers spin already.
func await() *claims {
	if !enlist() {
		return nil
	}
	c := offered.Load()
	for t0 := time.Now(); !c.open() && time.Since(t0) < helperWindow; {
		c = offered.Load()
	}
	spinners.Add(-1)
	if !c.open() {
		// A caller that counted this helper offered its region first.
		c = offered.Load()
	}
	if !c.open() {
		return nil
	}
	return c
}

// enlist counts one more spinning helper, unless GOMAXPROCS-1 spin
// already: a spinning helper holds its processor, and there must be one
// for everything else.
func enlist() bool {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		k := spinners.Load()
		if k >= limit {
			return false
		}
		if spinners.CompareAndSwap(k, k+1) {
			return true
		}
	}
}

// claims is one region: its body and blocks, which it hands out each
// exactly once, and the count of blocks not yet finished.
type claims struct {
	n, per int64
	body   func(b int, start, end int64)
	// next packs the lowest unclaimed block in its high 32 bits and one
	// past the highest in its low 32 bits; they meet when every block is
	// claimed.
	next atomic.Uint64
	// running counts the blocks not yet finished, and wg parks the
	// caller until they are.
	running atomic.Int32
	wg      sync.WaitGroup
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

// open reports whether c is a region with a block left to claim.
func (c *claims) open() bool {
	if c == nil {
		return false
	}
	v := c.next.Load()
	return v>>32 < uint64(uint32(v))
}

// run runs block b and marks it finished.
func (c *claims) run(b int) {
	start := int64(b) * c.per
	c.body(b, start, min(start+c.per, c.n))
	c.wg.Done()
	c.running.Add(-1)
}
