package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// runLoop runs body(i) for i in [0,n) on ParallelLoop, one call per
// iteration, the way the engines drive it.
func runLoop(n int64, workers, chunk int, body func(i int64)) {
	ParallelLoop(n, workers, chunk, func(int) {}, func(_ int, start, end int64) bool {
		for i := start; i < end; i++ {
			body(i)
		}
		return true
	})
}

// TestForCoversAllIterations: the parallel-for runs every iteration
// exactly once, static and dynamic, on 1/2/3/7 workers and several chunk
// sizes.
func TestForCoversAllIterations(t *testing.T) {
	for _, chunk := range []int{0, 1, 4, 7, 64} {
		for _, workers := range []int{1, 2, 3, 7} {
			for _, n := range []int64{1, 2, 10, 999, 1000} {
				hits := make([]int32, n)
				runLoop(n, workers, chunk, func(i int64) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("chunk %d, %d workers, n=%d: iteration %d hit %d times", chunk, workers, n, i, h)
					}
				}
			}
		}
	}
}

// TestForEdgeCases: an empty range or no worker runs nothing, not even
// setup, and surplus workers (ParallelLoop does not clamp) get no
// iterations.
func TestForEdgeCases(t *testing.T) {
	for _, chunk := range []int{0, 1} {
		ran := false
		ParallelLoop(0, 4, chunk, func(int) { ran = true }, func(int, int64, int64) bool { ran = true; return true })
		ParallelLoop(5, 0, chunk, func(int) { ran = true }, func(int, int64, int64) bool { ran = true; return true })
		if ran {
			t.Errorf("chunk %d: n=0 or workers=0 must run neither setup nor body", chunk)
		}
		var count int32
		runLoop(3, 100, chunk, func(int64) { atomic.AddInt32(&count, 1) })
		if count != 3 {
			t.Errorf("chunk %d, workers > n: ran %d iterations, want 3", chunk, count)
		}
	}
}

// TestQuickForSum: every schedule sums [0,n) exactly.
func TestQuickForSum(t *testing.T) {
	f := func(nRaw uint16, wRaw, cRaw uint8) bool {
		n := int64(nRaw % 500)
		workers := int(wRaw%8) + 1
		chunk := int(cRaw % 17) // 0 is the static schedule
		var sum int64
		runLoop(n, workers, chunk, func(i int64) { atomic.AddInt64(&sum, i) })
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParallelLoopSetup: setup(w) runs once, before worker w's first
// body call, for every worker with iterations to run, and never for a
// static empty tail block. The emitted Go's reduction combine relies on
// this: it skips the workers whose setup did not run.
func TestParallelLoopSetup(t *testing.T) {
	for _, tc := range []struct {
		n       int64
		workers int
		chunk   int
		ran     []bool // workers expected to run setup and body
	}{
		{10, 4, 0, []bool{true, true, true, true}}, // blocks 3,3,3,1
		{9, 4, 0, []bool{true, true, true, false}}, // blocks 3,3,3: w3 empty
		{5, 4, 0, []bool{true, true, true, false}}, // blocks 2,2,1: w3 empty
		{4, 3, 0, []bool{true, true, false}},       // blocks 2,2: w2 empty
		{7, 1, 0, []bool{true}},
		{10, 3, 1, []bool{true, true, true}}, // dynamic: every worker starts
	} {
		setups := make([]int, tc.workers)
		bodies := make([]int32, tc.workers)
		early := make([]int32, tc.workers)
		ParallelLoop(tc.n, tc.workers, tc.chunk, func(w int) { setups[w]++ },
			func(w int, start, end int64) bool {
				// setup(w) happens before worker w's goroutine starts.
				if setups[w] != 1 {
					atomic.AddInt32(&early[w], 1)
				}
				atomic.AddInt32(&bodies[w], 1)
				return true
			})
		for w, want := range tc.ran {
			switch {
			case early[w] != 0:
				t.Errorf("n=%d workers=%d chunk=%d: worker %d ran its body before its setup", tc.n, tc.workers, tc.chunk, w)
			case want && setups[w] != 1:
				t.Errorf("n=%d workers=%d chunk=%d: worker %d setup ran %d times, want once", tc.n, tc.workers, tc.chunk, w, setups[w])
			case !want && (setups[w] != 0 || bodies[w] != 0):
				t.Errorf("n=%d workers=%d chunk=%d: empty worker %d ran setup %d and body %d times", tc.n, tc.workers, tc.chunk, w, setups[w], bodies[w])
			case want && tc.chunk == 0 && bodies[w] != 1:
				t.Errorf("n=%d workers=%d: static worker %d body ran %d times, want once", tc.n, tc.workers, w, bodies[w])
			}
		}
	}
}

func TestMeasureForkJoinPositive(t *testing.T) {
	d := MeasureForkJoin(2, 8)
	if d <= 0 {
		t.Errorf("fork-join measurement should be positive, got %v", d)
	}
}
