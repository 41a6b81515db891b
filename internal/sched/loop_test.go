package sched

import (
	"runtime"
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
func TestParallelLoopWaitsForEveryBlock(t *testing.T) { waitsForEveryBlock(t) }

func waitsForEveryBlock(t *testing.T) {
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
func TestParallelLoopBlocksOverlap(t *testing.T) { blocksOverlap(t) }

func blocksOverlap(t *testing.T) {
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

// TestParallelLoopBackToBack: the two tests above also hold while a
// helper of an earlier region spins, so that the region is offered to it.
func TestParallelLoopBackToBack(t *testing.T) {
	for r := 0; r < 5; r++ {
		awaitSpinner(t)
		waitsForEveryBlock(t)
		awaitSpinner(t)
		blocksOverlap(t)
	}
}

// awaitSpinner runs regions until a helper spins, watching each time
// for longer than a helper's window. On one processor no helper spins,
// and it returns at once.
func awaitSpinner(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		runLoop(64, 2, func(int64) {})
		for watch := time.Now(); time.Since(watch) < 5*helperWindow; {
			if spinners.Load() > 0 {
				return
			}
		}
	}
	t.Fatal("no helper spins after a region")
}

// eventually polls cond until it holds, failing the test after a
// deadline.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestParallelLoopGoroutinesExit: once regions stop, no helper spins
// after its window, and every goroutine ParallelLoop started exits.
// Goroutines left by earlier tests only lower the count, so it must come
// back to at most its value at the start.
func TestParallelLoopGoroutinesExit(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for r := 0; r < 50; r++ {
		runLoop(100, 2+r%3, func(int64) {})
	}
	eventually(t, "ParallelLoop's helpers to stop spinning and exit", func() bool {
		return spinners.Load() == 0 && runtime.NumGoroutine() <= baseline
	})
}

// checkRegion runs one region of n iterations on workers blocks, calling
// inner from every block, and reports each block that did not run
// exactly once over its range. It may run on any goroutine.
func checkRegion(t *testing.T, n int64, workers int, inner func()) {
	per := (n + int64(workers) - 1) / int64(workers)
	ran := make([]atomic.Int32, workers)
	var wrong atomic.Int32
	ParallelLoop(n, workers, func(int) {}, func(b int, start, end int64) {
		if start != int64(b)*per || end != min(start+per, n) {
			wrong.Add(1)
		}
		ran[b].Add(1)
		inner()
	})
	if wrong.Load() != 0 {
		t.Errorf("n=%d workers=%d: %d blocks ran over the wrong range", n, workers, wrong.Load())
	}
	for b := range ran {
		want := int32(0)
		if int64(b)*per < n {
			want = 1
		}
		if got := ran[b].Load(); got != want {
			t.Errorf("n=%d workers=%d: block %d ran %d times, want %d", n, workers, b, got, want)
		}
	}
}

// TestParallelLoopConcurrentRegions: several goroutines each open many
// regions at once, and every third region's blocks open a region of
// their own. Every block of every region runs exactly once over its
// range.
func TestParallelLoopConcurrentRegions(t *testing.T) {
	const callers, regions = 4, 60
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < regions; r++ {
				inner := func() {}
				if r%3 == 0 {
					inner = func() { checkRegion(t, 10, 3, func() {}) }
				}
				checkRegion(t, int64(1+(g*regions+r)%37), 1+r%5, inner)
				if k, limit := spinners.Load(), runtime.GOMAXPROCS(0)-1; int(k) > limit {
					t.Errorf("%d helpers spin, at most %d may", k, limit)
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelLoopOneProc: on one processor every region still
// completes, with every block run once, and no helper spins: it would
// hold the only processor.
func TestParallelLoopOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eventually(t, "the helpers of earlier tests to stop spinning", func() bool { return spinners.Load() == 0 })
	if enlist() {
		t.Fatal("a helper may spin on one processor")
	}
	for r := 0; r < 100; r++ {
		checkRegion(t, int64(1+r%29), 1+r%4, func() {})
		if k := spinners.Load(); k != 0 {
			t.Fatalf("%d helpers spin on one processor", k)
		}
	}
	blocksOverlap(t)
}
