package sched

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestForTracedParallelLinkage checks that the parallel path opens one
// "worker" span per block, parented to the caller's span, and hands
// each body that block's span id so pipeline spans recorded inside the
// body nest under the correct lane.
func TestForTracedParallelLinkage(t *testing.T) {
	r := trace.NewRecorder()
	parent := r.Start(0, "pass1")
	const n = 64
	var mu sync.Mutex
	hits := make([]int, n)
	bodySpan := make([]trace.SpanID, n)
	ForTraced(n, 4, r, parent, func(i int, sp trace.SpanID) {
		mu.Lock()
		hits[i]++
		bodySpan[i] = sp
		mu.Unlock()
	})
	r.End(parent)
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d hit %d times", i, h)
		}
	}
	workers := map[trace.SpanID]trace.Span{}
	for _, s := range r.Spans() {
		if s.Stage == "worker" {
			if s.Parent != parent {
				t.Fatalf("worker span parent %d, want %d", s.Parent, parent)
			}
			if s.Open {
				t.Fatal("worker span left open")
			}
			workers[s.ID] = s
		}
	}
	if len(workers) == 0 || len(workers) > 4 {
		t.Fatalf("%d worker spans, want 1..4", len(workers))
	}
	for i, sp := range bodySpan {
		if _, ok := workers[sp]; !ok {
			t.Fatalf("iteration %d got span %d, not a worker span", i, sp)
		}
	}
}

// TestForTracedSerialPassesParent: with one worker no goroutines are
// spawned, no worker spans are recorded, and the body sees the caller's
// own span.
func TestForTracedSerialPassesParent(t *testing.T) {
	r := trace.NewRecorder()
	parent := r.Start(0, "pass2")
	ForTraced(3, 1, r, parent, func(i int, sp trace.SpanID) {
		if sp != parent {
			t.Fatalf("serial body got span %d, want parent %d", sp, parent)
		}
	})
	r.End(parent)
	if got := r.Len(); got != 1 {
		t.Fatalf("serial ForTraced recorded %d spans, want just the parent", got)
	}
}

// TestForTracedNilRecorder: a nil recorder must still fan the work out
// and pass a zero span through without panicking.
func TestForTracedNilRecorder(t *testing.T) {
	var mu sync.Mutex
	sum := 0
	ForTraced(10, 3, nil, 0, func(i int, sp trace.SpanID) {
		if sp != 0 {
			t.Errorf("nil recorder body got span %d", sp)
		}
		mu.Lock()
		sum += i
		mu.Unlock()
	})
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
}
