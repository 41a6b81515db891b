package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// runLoop runs body(i) for i in [0,n) on ParallelLoop, one call per
// iteration, the way the engines drive it.
func runLoop(n int64, workers int, body func(i int64)) {
	ParallelLoop(n, workers, func(int) {}, func(_ int, start, end int64) {
		for i := start; i < end; i++ {
			body(i)
		}
	})
}

// TestForCoversAllIterations: the parallel-for runs every iteration
// exactly once on 1/2/3/7 workers.
func TestForCoversAllIterations(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, n := range []int64{1, 2, 10, 999, 1000} {
			hits := make([]int32, n)
			runLoop(n, workers, func(i int64) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%d workers, n=%d: iteration %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestForEdgeCases: an empty range or no worker runs nothing, not even
// setup, and surplus workers (ParallelLoop does not clamp) get no
// iterations.
func TestForEdgeCases(t *testing.T) {
	ran := false
	ParallelLoop(0, 4, func(int) { ran = true }, func(int, int64, int64) { ran = true })
	ParallelLoop(5, 0, func(int) { ran = true }, func(int, int64, int64) { ran = true })
	if ran {
		t.Error("n=0 or workers=0 must run neither setup nor body")
	}
	var count int32
	runLoop(3, 100, func(int64) { atomic.AddInt32(&count, 1) })
	if count != 3 {
		t.Errorf("workers > n: ran %d iterations, want 3", count)
	}
}

// TestQuickForSum: every schedule sums [0,n) exactly.
func TestQuickForSum(t *testing.T) {
	f := func(nRaw uint16, wRaw uint8) bool {
		n := int64(nRaw % 500)
		workers := int(wRaw%8) + 1
		var sum int64
		runLoop(n, workers, func(i int64) { atomic.AddInt64(&sum, i) })
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParallelLoopSetup: setup(w) runs once, before worker w's body,
// for every worker with iterations to run, and never for an empty tail
// block. The emitted Go's reduction combine relies on this: it skips
// the workers whose setup did not run.
func TestParallelLoopSetup(t *testing.T) {
	for _, tc := range []struct {
		n       int64
		workers int
		ran     []bool // workers expected to run setup and body
	}{
		{10, 4, []bool{true, true, true, true}}, // blocks 3,3,3,1
		{9, 4, []bool{true, true, true, false}}, // blocks 3,3,3: w3 empty
		{5, 4, []bool{true, true, true, false}}, // blocks 2,2,1: w3 empty
		{4, 3, []bool{true, true, false}},       // blocks 2,2: w2 empty
		{7, 1, []bool{true}},
	} {
		setups := make([]int, tc.workers)
		bodies := make([]int32, tc.workers)
		early := make([]int32, tc.workers)
		ParallelLoop(tc.n, tc.workers, func(w int) { setups[w]++ },
			func(w int, start, end int64) {
				// setup(w) happens before worker w's body.
				if setups[w] != 1 {
					atomic.AddInt32(&early[w], 1)
				}
				atomic.AddInt32(&bodies[w], 1)
			})
		for w, want := range tc.ran {
			switch {
			case early[w] != 0:
				t.Errorf("n=%d workers=%d: worker %d ran its body before its setup", tc.n, tc.workers, w)
			case want && setups[w] != 1:
				t.Errorf("n=%d workers=%d: worker %d setup ran %d times, want once", tc.n, tc.workers, w, setups[w])
			case !want && (setups[w] != 0 || bodies[w] != 0):
				t.Errorf("n=%d workers=%d: empty worker %d ran setup %d and body %d times", tc.n, tc.workers, w, setups[w], bodies[w])
			case want && bodies[w] != 1:
				t.Errorf("n=%d workers=%d: worker %d body ran %d times, want once", tc.n, tc.workers, w, bodies[w])
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
