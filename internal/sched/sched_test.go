package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIterations(t *testing.T) {
	for _, policy := range []Policy{Static, Dynamic} {
		for _, workers := range []int{1, 2, 3, 7} {
			n := 1000
			hits := make([]int32, n)
			For(n, Options{Workers: workers, Policy: policy, Chunk: 4}, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%s/%d workers: iteration %d hit %d times", policy, workers, i, h)
				}
			}
		}
	}
}

func TestForEdgeCases(t *testing.T) {
	ran := false
	For(0, Options{Workers: 4}, func(i int) { ran = true })
	if ran {
		t.Error("n=0 must not run the body")
	}
	count := int32(0)
	For(3, Options{Workers: 100}, func(i int) { atomic.AddInt32(&count, 1) })
	if count != 3 {
		t.Errorf("workers > n: ran %d", count)
	}
}

func TestQuickForSum(t *testing.T) {
	f := func(nRaw uint16, wRaw, cRaw uint8) bool {
		n := int(nRaw % 500)
		workers := int(wRaw%8) + 1
		chunk := int(cRaw%16) + 1
		var sum int64
		For(n, Options{Workers: workers, Policy: Dynamic, Chunk: chunk}, func(i int) {
			atomic.AddInt64(&sum, int64(i))
		})
		return sum == int64(n)*int64(n-1)/2 || n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeasureForkJoinPositive(t *testing.T) {
	d := MeasureForkJoin(2, 8)
	if d <= 0 {
		t.Errorf("fork-join measurement should be positive, got %v", d)
	}
}

func TestPolicyString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Error("policy names")
	}
}
