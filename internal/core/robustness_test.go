package core

// Core-facade tests for the PR 4 robustness guarantees: typed budget and
// cancellation errors, per-function panic containment with partial
// results, and batch inheritance of resource bounds.

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/faults"
)

const twoFuncSrc = `
void good(int n, int *idx, double *x) {
    int i;
    for (i = 0; i < n; i++) { x[idx[i]] = x[idx[i]] + 1.0; }
}
void bad(int n, double *y) {
    int i;
    for (i = 0; i < n; i++) { y[i] = y[i] * 2.0; }
}
`

func TestBudgetExhaustionTyped(t *testing.T) {
	_, err := Analyze(twoFuncSrc, Options{Level: New, Budget: 10})
	if !errors.Is(err, budget.ErrBudget) {
		t.Fatalf("got %v, want budget.ErrBudget", err)
	}
	// Unlimited budget on the same source succeeds.
	if _, err := Analyze(twoFuncSrc, Options{Level: New}); err != nil {
		t.Fatal(err)
	}
}

func TestCancellationTyped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Analyze(twoFuncSrc, Options{Level: New, Ctx: ctx})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("got %v, want budget.ErrCanceled", err)
	}
}

// TestPanicContainment: a panic inside one function's analysis degrades
// that function and surfaces as a structured diagnostic; the other
// function's analysis completes, and the JSON view carries it all.
func TestPanicContainment(t *testing.T) {
	defer faults.Reset()
	faults.Set("phase2.AnalyzeFunc", faults.Panic("synthetic crash").For("bad"))

	res, err := Analyze(twoFuncSrc, Options{Level: New})
	if err != nil {
		t.Fatalf("contained panic escaped as error: %v", err)
	}
	if len(res.Plan.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %+v, want exactly one", res.Plan.Diagnostics)
	}
	d := res.Plan.Diagnostics[0]
	if d.Func != "bad" || d.Stage != "analyze" {
		t.Fatalf("diagnostic = %+v, want func bad, stage analyze", d)
	}
	if !strings.Contains(d.Message(), "synthetic crash") {
		t.Fatalf("message %q lacks the panic value", d.Message())
	}
	// The healthy function still produced a plan.
	if res.Plan.Funcs["good"] == nil || len(res.Plan.Funcs["good"].Loops) == 0 {
		t.Fatal("healthy function lost its analysis")
	}
	// And the wire format carries the diagnostic.
	out, err := MarshalBatch([]*BatchResult{{Name: "mix.c", Res: res}}, false)
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchJSON
	if err := json.Unmarshal(out, &batch); err != nil {
		t.Fatal(err)
	}
	if j := batch.Results[0]; len(j.Diagnostics) != 1 || j.Diagnostics[0].Func != "bad" {
		t.Fatalf("wire diagnostics = %+v", j.Diagnostics)
	}
	// The summary mentions the contained crash.
	if !strings.Contains(res.Summary(), "synthetic crash") {
		t.Fatal("summary omits the contained crash")
	}
}

// TestBatchInheritsBounds: a per-source Opt override must not drop the
// batch-level budget.
func TestBatchInheritsBounds(t *testing.T) {
	lvl := Options{Level: Base}
	results := AnalyzeBatch([]Source{
		{Name: "a.c", Src: twoFuncSrc, Opt: &lvl},
	}, Options{Level: New, Budget: 10})
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if !errors.Is(results[0].Err, budget.ErrBudget) {
		t.Fatalf("override dropped the batch budget: err = %v", results[0].Err)
	}
}

// TestStallAbortsOnDeadline: the stall failpoint parks inside the
// analysis until the deadline, then the abort propagates as a typed
// cancellation — the pipeline never hangs past its bound.
func TestStallAbortsOnDeadline(t *testing.T) {
	defer faults.Reset()
	faults.Set("phase2.AnalyzeFunc", faults.Stall(30e9))

	_, err := Analyze(twoFuncSrc, Options{Level: New, Timeout: 50e6}) // 50ms
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("got %v, want budget.ErrCanceled", err)
	}
}
