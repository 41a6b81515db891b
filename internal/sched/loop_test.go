package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The block contract of ParallelLoop's static schedule, which every
// engine's end state depends on: the partition, the block index body
// receives, setup before body, and the return only after every block.

// blockCall is one body call: the block index and its range.
type blockCall struct {
	b          int
	start, end int64
}

// TestParallelLoopBlocks: with per = ceil(n/workers), body runs exactly
// once for each non-empty block b, over [b*per, min((b+1)*per, n)), and
// setup(b) runs once for each such block, before any body. An empty tail
// block gets neither.
func TestParallelLoopBlocks(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 10, 999, 1000} {
		for _, workers := range []int{1, 2, 3, 7, 100} {
			per := (n + int64(workers) - 1) / int64(workers)
			blocks := int((n + per - 1) / per)
			setups := make([]int, workers)
			var mu sync.Mutex
			var calls []blockCall
			var early []int
			ParallelLoop(n, workers, func(b int) { setups[b]++ },
				func(b int, start, end int64) {
					mu.Lock()
					defer mu.Unlock()
					calls = append(calls, blockCall{b, start, end})
					for k := 0; k < blocks; k++ {
						if setups[k] != 1 {
							early = append(early, k)
						}
					}
				})
			if len(early) > 0 {
				t.Errorf("n=%d workers=%d: blocks %v had not run their setup when a body ran", n, workers, early)
			}
			got := map[int]blockCall{}
			for _, c := range calls {
				if _, dup := got[c.b]; dup {
					t.Errorf("n=%d workers=%d: block %d ran its body twice", n, workers, c.b)
				}
				got[c.b] = c
			}
			for b := 0; b < workers; b++ {
				start, end := int64(b)*per, min(int64(b+1)*per, n)
				c, ran := got[b]
				switch {
				case start >= end && (ran || setups[b] != 0):
					t.Errorf("n=%d workers=%d: empty block %d ran setup %d times, body %v", n, workers, b, setups[b], ran)
				case start < end && !ran:
					t.Errorf("n=%d workers=%d: block %d [%d,%d) never ran", n, workers, b, start, end)
				case start < end && (c.start != start || c.end != end):
					t.Errorf("n=%d workers=%d: block %d ran [%d,%d), want [%d,%d)", n, workers, b, c.start, c.end, start, end)
				case start < end && setups[b] != 1:
					t.Errorf("n=%d workers=%d: block %d setup ran %d times, want once", n, workers, b, setups[b])
				}
			}
		}
	}
}

// waitOrFail waits for ch to close, failing the test after a timeout
// instead of hanging it. It may run on any goroutine.
func waitOrFail(t *testing.T, ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Errorf("timed out waiting for %s", what)
	}
}

// TestParallelLoopWaitsForEveryBlock: ParallelLoop returns only after
// every block has finished, including block 0, which sleeps on another
// goroutine while the blocks above it have long finished.
func TestParallelLoopWaitsForEveryBlock(t *testing.T) {
	const workers = 4
	var done [workers]atomic.Bool
	started := make(chan struct{})
	ParallelLoop(workers, workers, func(int) {}, func(b int, _, _ int64) {
		if b == 0 {
			close(started)
			time.Sleep(20 * time.Millisecond)
		} else {
			// Hold the other blocks until block 0 has been taken, so it
			// runs on some goroutine other than theirs.
			waitOrFail(t, started, "block 0 to start")
		}
		done[b].Store(true)
	})
	for b := range done {
		if !done[b].Load() {
			t.Errorf("ParallelLoop returned before block %d finished", b)
		}
	}
}

// TestParallelLoopBlocksOverlap: with two workers, block 1 waits on a
// channel that block 0 closes, so one block must be taken by another
// goroutine while the first is still inside the other one.
func TestParallelLoopBlocksOverlap(t *testing.T) {
	unblock := make(chan struct{})
	var ran [2]atomic.Bool
	ParallelLoop(10, 2, func(int) {}, func(b int, _, _ int64) {
		if b == 0 {
			close(unblock)
		} else {
			waitOrFail(t, unblock, "block 0 to close the channel")
		}
		ran[b].Store(true)
	})
	if !ran[0].Load() || !ran[1].Load() {
		t.Errorf("blocks ran: %v %v, want both", ran[0].Load(), ran[1].Load())
	}
}
