package codegen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// TestCodegenDifferentialScope emits the scope agreement rows of the
// interp tests (internal/interp/testdata/scope). A row the interpreters
// reject with a diagnostic must fail EmitPackage, unless the diagnostic
// is a subscript out of range: such a row is a valid program that fails
// at run time, and the emitted Go checks only the flattened offset, so
// it must emit but does not run. The other rows emit
// as one program, on the plan with its estimates cleared (openPlan),
// which builds with -race and runs every row at 1 and 2 workers, and on
// the plan itself, whose regions at n = 7 decline, which runs at 2
// workers; each must end in the VM's state, with the VM's region
// counters.
func TestCodegenDifferentialScope(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a native binary")
	}
	files, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "scope", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("scope rows: %v (%d files)", err, len(files))
	}
	var names []string
	var src strings.Builder
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".c")
		if _, diag, ok := strings.Cut(string(b), "// error: "); ok {
			plan := parallelize.Run(cminus.MustParse(string(b)), phase2.LevelNew, nil)
			_, err := EmitPackage(plan, "subsubgen/scope")
			diag, _, _ = strings.Cut(diag, "\n")
			switch bounds := strings.Contains(diag, " out of range "); {
			case bounds && err != nil:
				t.Errorf("%s: the row fails at run time, EmitPackage rejects it: %v", name, err)
			case !bounds && err == nil:
				t.Errorf("%s: the interpreters reject the row, EmitPackage does not", name)
			}
			continue
		}
		names = append(names, name)
		src.Write(b)
	}
	plan := parallelize.Run(cminus.MustParse(src.String()), phase2.LevelNew, nil)
	open := openPlan(parallelize.Run(cminus.MustParse(src.String()), phase2.LevelNew, nil))
	_, openBin := buildKernel(t, open, "subsubgen/scope", true)
	_, planBin := buildKernel(t, plan, "subsubgen/scope", false)
	work := func() *corpus.Work {
		w := &corpus.Work{Arrays: map[string]*interp.Array{}}
		for _, name := range names {
			out := interp.NewFloatArray(name, 4)
			w.Arrays[name] = out
			w.Calls = append(w.Calls, corpus.Call{Fn: name, Args: []interp.Arg{7, out}})
		}
		return w
	}
	for _, run := range []struct {
		plan    *parallelize.Plan
		bin     string
		workers int
	}{{open, openBin, 1}, {open, openBin, 2}, {plan, planBin, 2}} {
		ref := work()
		m, err := interp.New(run.plan.Program())
		if err != nil {
			t.Fatal(err)
		}
		m.Plan, m.Workers, m.Interp = run.plan, run.workers, "vm"
		if err := ref.Run(m); err != nil {
			t.Fatalf("vm@%d: %v", run.workers, err)
		}
		res := runNative(t, run.bin, work(), run.workers, nil)
		label := fmt.Sprintf("workers=%d open=%v", run.workers, run.plan == open)
		if d := DiffArrays(ref.Arrays, res.Arrays); d != "" {
			t.Errorf("%s: %s", label, d)
		}
		if st := nativeStats(res); st != m.Stats {
			t.Errorf("%s: stats %+v, want %+v (vm)", label, st, m.Stats)
		}
	}
}
