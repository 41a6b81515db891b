package interp

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cminus"
)

// TestCancelInfiniteLoop proves both engines abort a non-terminating
// program once the machine's context is canceled, returning an error
// that wraps budget.ErrCanceled instead of hanging.
func TestCancelInfiniteLoop(t *testing.T) {
	progs := map[string]string{
		"while": `void spin(void) { int x; x = 0; while (1) { x = x + 1; } }`,
		"for":   `void spin(void) { int i; int x; x = 0; for (i = 0; i < 10; i = i) { x = x + 1; } }`,
		// Each call restarts the VM's metering quantum, so this loop
		// reaches cancellation only through the call boundary.
		"call": `int g(int x) { return x + 1; } void spin(void) { int x; x = 0; while (1) { x = g(x); } }`,
	}
	for _, engine := range []string{"tree", "vm"} {
		for shape, src := range progs {
			t.Run(engine+"/"+shape, func(t *testing.T) {
				m, err := New(cminus.MustParse(src))
				if err != nil {
					t.Fatal(err)
				}
				m.Interp = engine
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				m.Ctx = ctx

				done := make(chan error, 1)
				go func() { done <- m.Call("spin") }()
				select {
				case err := <-done:
					if !errors.Is(err, budget.ErrCanceled) {
						t.Fatalf("got %v, want budget.ErrCanceled", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("canceled program did not stop")
				}
			})
		}
	}
}

// TestCancelNilCtxNoop: without a context the machine runs to completion
// exactly as before.
func TestCancelNilCtxNoop(t *testing.T) {
	src := `void sum(int *out) { int i; int s; s = 0; for (i = 0; i < 100000; i++) { s = s + 1; } out[0] = s; }`
	for _, engine := range []string{"tree", "vm"} {
		m, err := New(cminus.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		m.Interp = engine
		out := NewIntArray("out", 1)
		if err := m.Call("sum", out); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if out.Ints[0] != 100000 {
			t.Fatalf("%s: got %d", engine, out.Ints[0])
		}
	}
}
