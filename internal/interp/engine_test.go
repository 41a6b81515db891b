package interp

import (
	"context"
	"testing"

	"repro/internal/budget"
	"repro/internal/cminus"
)

func machineFor(t *testing.T, src, engine string) *Machine {
	t.Helper()
	prog, err := cminus.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := New(prog)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	m.Interp = engine
	return m
}

var engines = Engines()

// TestArrayParamBindingScoped is the regression test for the array
// binding leak: array arguments used to be bound into the global
// m.Arrays under the parameter name and never removed, so repeated or
// nested calls with different arrays under the same parameter name
// silently aliased the stale binding.
func TestArrayParamBindingScoped(t *testing.T) {
	src := `
void fill(int buf[], int n, int v) {
	int i;
	for (i = 0; i < n; i++) { buf[i] = v; }
}
`
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			m := machineFor(t, src, eng)
			a := NewIntArray("a", 4)
			b := NewIntArray("b", 4)
			if err := m.Call("fill", a, 4, 7); err != nil {
				t.Fatal(err)
			}
			if err := m.Call("fill", b, 4, 9); err != nil {
				t.Fatal(err)
			}
			if _, leaked := m.Arrays["buf"]; leaked {
				t.Fatalf("parameter binding %q leaked into m.Arrays", "buf")
			}
			for i := int64(0); i < 4; i++ {
				av, _ := a.Get([]int64{i})
				bv, _ := b.Get([]int64{i})
				if av.AsInt() != 7 || bv.AsInt() != 9 {
					t.Fatalf("i=%d: a=%d b=%d, want 7/9 (stale alias?)", i, av.AsInt(), bv.AsInt())
				}
			}
		})
	}
}

// TestNestedCallParamScoping: a callee's parameter shadowing a caller's
// array of the same name must not clobber the caller's binding after
// the callee returns.
func TestNestedCallParamScoping(t *testing.T) {
	src := `
void bump(int v[], int n) {
	int i;
	for (i = 0; i < n; i++) { v[i] = v[i] + 100; }
}
void driver(int v[], int w[], int n) {
	int i;
	bump(w, n);
	for (i = 0; i < n; i++) { v[i] = v[i] + 1; }
}
`
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			m := machineFor(t, src, eng)
			v := NewIntArray("v", 3)
			w := NewIntArray("w", 3)
			if err := m.Call("driver", v, w, 3); err != nil {
				t.Fatal(err)
			}
			v0, _ := v.Get([]int64{0})
			w0, _ := w.Get([]int64{0})
			if v0.AsInt() != 1 {
				t.Fatalf("v[0] = %d, want 1 (callee param shadow leaked)", v0.AsInt())
			}
			if w0.AsInt() != 100 {
				t.Fatalf("w[0] = %d, want 100", w0.AsInt())
			}
		})
	}
}

// TestLocalArrayScoped: a local array declaration must not leak into
// m.Arrays after the call finishes.
func TestLocalArrayScoped(t *testing.T) {
	src := `
void f(int out[], int n) {
	int tmp[8];
	int i;
	for (i = 0; i < n; i++) { tmp[i] = i * i; }
	for (i = 0; i < n; i++) { out[i] = tmp[i]; }
}
`
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			m := machineFor(t, src, eng)
			out := NewIntArray("out", 8)
			if err := m.Call("f", out, 8); err != nil {
				t.Fatal(err)
			}
			if _, leaked := m.Arrays["tmp"]; leaked {
				t.Fatal("local array declaration leaked into m.Arrays")
			}
			v, _ := out.Get([]int64{5})
			if v.AsInt() != 25 {
				t.Fatalf("out[5] = %d, want 25", v.AsInt())
			}
		})
	}
}

// TestEngineSelection: the empty engine name runs the VM — a set Budget
// gets billed, and only the VM bills it; both engines compute the same
// result; top-level return is a normal completion; unknown names,
// including the retired "compiled", are rejected.
func TestEngineSelection(t *testing.T) {
	src := `
int g;
void f(int n) {
	int i;
	g = 0;
	for (i = 0; i < n; i++) { g = g + 2; }
	return;
	g = 0;
}
`
	for _, eng := range []string{"", "vm", "tree"} {
		m := machineFor(t, src, eng)
		m.Budget = budget.New(context.Background(), 1<<20)
		if err := m.Call("f", 1000); err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		if got := m.Globals["g"].AsInt(); got != 2000 {
			t.Fatalf("engine %q: g = %d, want 2000", eng, got)
		}
		if billed := m.Budget.Steps() > 0; billed != (eng != "tree") {
			t.Fatalf("engine %q billed %d steps; only the VM bills the budget", eng, m.Budget.Steps())
		}
	}
	for _, eng := range []string{"llvm", "compiled"} {
		m := machineFor(t, src, eng)
		if err := m.Call("f", 1); err == nil {
			t.Fatalf("unknown engine %q accepted", eng)
		}
	}
}

// TestCompiledRecursion: bytecode compilation registers every function
// shell before any body compiles, so self-recursion resolves.
func TestCompiledRecursion(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
void f(int out[]) {
	out[0] = fib(10);
}
`
	for _, eng := range engines {
		m := machineFor(t, src, eng)
		out := NewIntArray("out", 1)
		if err := m.Call("f", out); err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		v, _ := out.Get([]int64{0})
		if v.AsInt() != 55 {
			t.Fatalf("engine %q: fib(10) = %d, want 55", eng, v.AsInt())
		}
	}
}
