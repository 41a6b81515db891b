package interp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/budget"
	"repro/internal/trace"
)

// TestUnknownEngineError: satellite regression test for engine-selection
// hardening — an unknown Machine.Interp is rejected with the available
// engine list, so a typo'd -engine flag fails loudly instead of
// silently falling back.
func TestUnknownEngineError(t *testing.T) {
	m := machineFor(t, `int g; void f(int n) { g = n; }`, "llvm")
	err := m.Call("f", 1)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	want := `interp: unknown engine "llvm" (available: vm, tree)`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestVMBudgetExhaustion: the VM bills one Step(vmQuantum) per quantum
// of executed instructions, so an exhausted budget aborts within one
// metering quantum of the limit — and at exactly the same instruction
// every run (deterministic abort point).
func TestVMBudgetExhaustion(t *testing.T) {
	src := `
void spin(int n) {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < n; i++) { acc = acc + i; }
}
`
	const limit = 4096
	run := func() (error, int64) {
		m := machineFor(t, src, "vm")
		m.Budget = budget.New(context.Background(), limit)
		err := m.Call("spin", 1<<30)
		return err, m.Budget.Steps()
	}
	err1, steps1 := run()
	if !errors.Is(err1, budget.ErrBudget) {
		t.Fatalf("err = %v, want budget.ErrBudget", err1)
	}
	if steps1 > limit+vmQuantum {
		t.Fatalf("billed %d steps before aborting, want <= limit+quantum = %d", steps1, limit+vmQuantum)
	}
	err2, steps2 := run()
	if !errors.Is(err2, budget.ErrBudget) {
		t.Fatalf("second run: err = %v, want budget.ErrBudget", err2)
	}
	if steps2 != steps1 {
		t.Fatalf("abort point not deterministic: %d vs %d billed steps", steps1, steps2)
	}

	// The tree walker does not consume the budget: the same machine
	// budget survives a full run untouched.
	m := machineFor(t, src, "tree")
	m.Budget = budget.New(context.Background(), limit)
	if err := m.Call("spin", 1000); err != nil {
		t.Fatalf("tree: %v", err)
	}
	if got := m.Budget.Steps(); got != 0 {
		t.Fatalf("tree billed %d steps, want 0", got)
	}
}

// TestVMSteadyStateAllocs: after the bytecode is compiled and the frame
// pool is warm, a serial VM call allocates nothing — values live in
// typed columns indexed by compile-time slots, so the dispatch loop
// never boxes.
func TestVMSteadyStateAllocs(t *testing.T) {
	src := `
void kernel(int a[], int n) {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < n; i++) {
		acc = acc + a[i];
		a[i] = acc % 1024;
	}
}
`
	m := machineFor(t, src, "vm")
	a := NewIntArray("a", 256)
	// Pre-boxed argument slice: the steady-state claim is about the VM,
	// not about the host's interface conversions at the Call boundary.
	args := []Arg{a, 255}
	for i := 0; i < 3; i++ {
		if err := m.Call("kernel", args...); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := m.Call("kernel", args...); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("vm Call allocates %.1f allocs/run at steady state, want 0", avg)
	}
}

// TestVMTraceSpans: with a recording tracer the VM attributes bytecode
// compilation to a compile-bc span and execution to an exec-vm span.
func TestVMTraceSpans(t *testing.T) {
	m := machineFor(t, `int g; void f(int n) { g = n * 2; }`, "vm")
	m.Trace = trace.NewRecorder()
	if err := m.Call("f", 21); err != nil {
		t.Fatal(err)
	}
	if got := m.Globals["g"].AsInt(); got != 42 {
		t.Fatalf("g = %d, want 42", got)
	}
	stages := map[string]int{}
	for _, sp := range m.Trace.Spans() {
		stages[sp.Stage]++
	}
	if stages["compile-bc"] != 1 || stages["exec-vm"] != 1 {
		t.Fatalf("spans = %v, want one compile-bc and one exec-vm", stages)
	}
	// The bytecode cache is keyed on the plan: a second call must not
	// recompile.
	if err := m.Call("f", 21); err != nil {
		t.Fatal(err)
	}
	stages = map[string]int{}
	for _, sp := range m.Trace.Spans() {
		stages[sp.Stage]++
	}
	if stages["compile-bc"] != 1 || stages["exec-vm"] != 2 {
		t.Fatalf("after second call spans = %v, want compile-bc:1 exec-vm:2", stages)
	}
}
