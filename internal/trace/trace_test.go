package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	id := r.Start(0, "parse")
	if id != 0 {
		t.Fatalf("nil Start returned %d, want 0", id)
	}
	// None of these may panic.
	r.End(id)
	r.AddCounter(id, CounterSteps, 5)
	if r.Spans() != nil {
		t.Fatal("nil Spans() not nil")
	}
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder has nonzero Len/Dropped")
	}
}

func TestSpanZeroIsNoOp(t *testing.T) {
	r := NewRecorder()
	r.End(0)
	r.AddCounter(0, CounterSteps, 1)
	if r.Len() != 0 {
		t.Fatalf("Len = %d after span-0 ops, want 0", r.Len())
	}
	// Out-of-range ids must also be ignored.
	r.End(SpanID(99))
	r.AddCounter(SpanID(99), CounterSteps, 1)
}

func TestSerialNestingSharesLane(t *testing.T) {
	r := NewRecorder()
	root := r.Start(0, "analyze")
	child := r.Start(root, "pass1")
	grand := r.StartFunc(child, "function", "f")
	r.End(grand)
	r.End(child)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.Lane != 0 {
			t.Errorf("span %s on lane %d, want 0 (perfect nesting)", s.Stage, s.Lane)
		}
		if s.Open {
			t.Errorf("span %s still open", s.Stage)
		}
	}
	if spans[1].Parent != root || spans[2].Parent != child {
		t.Fatalf("parent linkage wrong: %+v", spans)
	}
}

func TestConcurrentSiblingsGetOwnLanes(t *testing.T) {
	r := NewRecorder()
	root := r.Start(0, "pass1")
	a := r.Start(root, "function") // joins root's lane (root is innermost)
	b := r.Start(root, "function") // root no longer innermost on lane 0
	if sa, sb := r.Spans()[1], r.Spans()[2]; sa.Lane == sb.Lane {
		t.Fatalf("concurrent siblings share lane %d", sa.Lane)
	}
	r.End(a)
	// a's lane is free again and root's lane has a on top removed; a new
	// child of b nests on b's lane.
	c := r.Start(b, "phase1")
	if sb, sc := r.Spans()[2], r.Spans()[3]; sb.Lane != sc.Lane {
		t.Fatalf("child of open span on lane %d placed on lane %d", sb.Lane, sc.Lane)
	}
	r.End(c)
	r.End(b)
	r.End(root)
}

func TestOpenSpanSnapshot(t *testing.T) {
	r := NewRecorder()
	id := r.Start(0, "depend")
	time.Sleep(time.Millisecond)
	spans := r.Spans()
	if !spans[0].Open {
		t.Fatal("span not reported Open")
	}
	if spans[0].Dur <= 0 {
		t.Fatalf("open span Dur = %v, want elapsed > 0", spans[0].Dur)
	}
	r.End(id)
	d1 := r.Spans()[0].Dur
	r.End(id) // double End is a no-op
	if d2 := r.Spans()[0].Dur; d2 != d1 {
		t.Fatalf("double End changed Dur: %v -> %v", d1, d2)
	}
}

func TestCounters(t *testing.T) {
	r := NewRecorder()
	id := r.Start(0, "phase1")
	r.AddCounter(id, CounterSteps, 7)
	r.AddCounter(id, CounterSteps, 3)
	r.AddCounter(id, CounterProofs, 2)
	r.AddCounter(id, NumCounters, 99) // out of range: ignored
	r.End(id)
	s := r.Spans()[0]
	if s.Counters[CounterSteps] != 10 || s.Counters[CounterProofs] != 2 {
		t.Fatalf("counters = %v", s.Counters)
	}
}

func TestCounterStrings(t *testing.T) {
	want := []string{"steps", "proofs", "pairs", "simplified", "cache_hits", "cache_misses"}
	for c := Counter(0); c < NumCounters; c++ {
		if got := c.String(); got != want[c] {
			t.Errorf("Counter(%d).String() = %q, want %q", c, got, want[c])
		}
	}
	if NumCounters.String() != "unknown" {
		t.Error("out-of-range counter name")
	}
}

// TestConcurrentRecording drives the recorder from many goroutines, as
// the sched worker pool does, and checks parent linkage and counter
// totals survive (run under -race).
func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	root := r.Start(0, "pass1")
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsp := r.StartFunc(root, "worker", fmt.Sprintf("w%d", w))
			for i := 0; i < perWorker; i++ {
				sp := r.StartFunc(wsp, "function", "f")
				r.AddCounter(sp, CounterSteps, 1)
				r.AddCounter(root, CounterProofs, 1)
				r.End(sp)
			}
			r.End(wsp)
		}(w)
	}
	wg.Wait()
	r.End(root)
	spans := r.Spans()
	if len(spans) != 1+workers+workers*perWorker {
		t.Fatalf("got %d spans", len(spans))
	}
	byID := map[SpanID]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var steps int64
	for _, s := range spans {
		switch s.Stage {
		case "worker":
			if s.Parent != root {
				t.Fatalf("worker span parent %d, want root %d", s.Parent, root)
			}
		case "function":
			if byID[s.Parent].Stage != "worker" {
				t.Fatalf("function span parent is %q, want worker", byID[s.Parent].Stage)
			}
			steps += s.Counters[CounterSteps]
		}
	}
	if steps != workers*perWorker {
		t.Fatalf("summed steps = %d, want %d", steps, workers*perWorker)
	}
	if got := byID[root].Counters[CounterProofs]; got != workers*perWorker {
		t.Fatalf("root proofs = %d, want %d", got, workers*perWorker)
	}
}

func TestAggregateSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Stage: "analyze", Dur: ms(10)},
		{ID: 2, Parent: 1, Stage: "phase1", Dur: ms(4)},
		{ID: 3, Parent: 1, Stage: "phase2", Dur: ms(3), Counters: [NumCounters]int64{5, 2, 0, 0, 0, 0}},
		{ID: 4, Parent: 3, Stage: "phase2", Dur: ms(1)},
	}
	aggs := Aggregate(spans)
	byStage := map[string]StageAgg{}
	for _, a := range aggs {
		byStage[a.Stage] = a
	}
	if a := byStage["analyze"]; a.Total != ms(10) || a.Self != ms(3) || a.Count != 1 {
		t.Fatalf("analyze agg = %+v", a)
	}
	if a := byStage["phase2"]; a.Total != ms(4) || a.Self != ms(3) || a.Count != 2 || a.Max != ms(3) {
		t.Fatalf("phase2 agg = %+v", a)
	}
	if a := byStage["phase2"]; a.Counters[CounterSteps] != 5 || a.Counters[CounterProofs] != 2 {
		t.Fatalf("phase2 counters = %v", a.Counters)
	}
	// Sorted by Total descending: analyze (10) first.
	if aggs[0].Stage != "analyze" {
		t.Fatalf("first agg is %q, want analyze", aggs[0].Stage)
	}
	if Aggregate(nil) != nil {
		t.Fatal("Aggregate(nil) != nil")
	}
	if tbl := Table(aggs); tbl == "" {
		t.Fatal("empty table")
	}
}

// TestAggregateClampsConcurrentChildren: child spans running in parallel
// can sum past their parent's wall time; self time must clamp at zero
// rather than go negative.
func TestAggregateClampsConcurrentChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Stage: "pass1", Dur: ms(5)},
		{ID: 2, Parent: 1, Stage: "worker", Dur: ms(5)},
		{ID: 3, Parent: 1, Stage: "worker", Dur: ms(5)},
	}
	byStage := map[string]StageAgg{}
	for _, a := range Aggregate(spans) {
		byStage[a.Stage] = a
	}
	if self := byStage["pass1"].Self; self != 0 {
		t.Fatalf("pass1 self = %v, want 0 (clamped)", self)
	}
}

func TestChromeExportValidates(t *testing.T) {
	r := NewRecorder()
	root := r.Start(0, "analyze")
	sp := r.StartLoop(root, "phase1", "kernel", "L1")
	r.AddCounter(sp, CounterSteps, 42)
	r.End(sp)
	r.End(root)
	data, err := MarshalChrome(r.Spans(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(data); err != nil {
		t.Fatalf("generated trace failed validation: %v", err)
	}
	var tr ChromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	// Metadata event + two duration events.
	if len(tr.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(tr.TraceEvents))
	}
	var phase1 *ChromeEvent
	for i := range tr.TraceEvents {
		if tr.TraceEvents[i].Cat == "phase1" {
			phase1 = &tr.TraceEvents[i]
		}
	}
	if phase1 == nil {
		t.Fatal("no phase1 event")
	}
	if phase1.Name != "phase1 kernel/L1" {
		t.Fatalf("event name %q", phase1.Name)
	}
	if phase1.Args["steps"] != float64(42) || phase1.Args["func"] != "kernel" || phase1.Args["loop"] != "L1" {
		t.Fatalf("event args %v", phase1.Args)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not JSON":      "][",
		"no events":     `{"traceEvents":[]}`,
		"no durations":  `{"traceEvents":[{"name":"m","ph":"M","ts":0,"pid":1,"tid":0}]}`,
		"unknown phase": `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":0}]}`,
		"negative ts":   `{"traceEvents":[{"name":"x","ph":"X","ts":-1,"pid":1,"tid":0}]}`,
		"nameless X":    `{"traceEvents":[{"name":"","ph":"X","ts":0,"pid":1,"tid":0}]}`,
	}
	for name, data := range cases {
		if err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestFlightRecorderEviction(t *testing.T) {
	f := NewFlightRecorder(2)
	add := func(id string) { f.Add(RequestTrace{ID: id, Dur: time.Millisecond}) }
	add("a")
	add("b")
	add("c") // evicts a
	if f.Len() != 2 || f.Total() != 3 {
		t.Fatalf("Len=%d Total=%d, want 2/3", f.Len(), f.Total())
	}
	snap := f.Snapshot()
	if len(snap) != 2 || snap[0].ID != "c" || snap[1].ID != "b" {
		t.Fatalf("snapshot order: %v", []string{snap[0].ID, snap[1].ID})
	}
	if _, ok := f.Get("a"); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if rt, ok := f.Get("b"); !ok || rt.ID != "b" {
		t.Fatal("retained trace not retrievable")
	}
	var nilF *FlightRecorder
	nilF.Add(RequestTrace{})
	if nilF.Snapshot() != nil || nilF.Len() != 0 || nilF.Total() != 0 {
		t.Fatal("nil flight recorder not inert")
	}
	if _, ok := nilF.Get("x"); ok {
		t.Fatal("nil Get found something")
	}
}

// TestFlightRecorderConcurrent exercises the ring under contention (for
// the -race run).
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Add(RequestTrace{ID: fmt.Sprintf("%d-%d", g, i)})
				f.Snapshot()
				f.Get(fmt.Sprintf("%d-%d", g, i/2))
			}
		}(g)
	}
	wg.Wait()
	if f.Len() != 4 || f.Total() != 800 {
		t.Fatalf("Len=%d Total=%d", f.Len(), f.Total())
	}
}
