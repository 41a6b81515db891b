package codegen

import (
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
// reject with a diagnostic must fail EmitPackage. The other rows emit
// as one program, which builds once with -race and runs every row at 1
// and 2 workers; each must end in the VM's state, with the VM's region
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
		if strings.Contains(string(b), "// error: ") {
			plan := parallelize.Run(cminus.MustParse(string(b)), phase2.LevelNew, nil)
			if _, err := EmitPackage(plan, "subsubgen/scope"); err == nil {
				t.Errorf("%s: the interpreters reject the row, EmitPackage does not", name)
			}
			continue
		}
		names = append(names, name)
		src.Write(b)
	}
	plan := parallelize.Run(cminus.MustParse(src.String()), phase2.LevelNew, nil)
	pkg, err := EmitPackage(plan, "subsubgen/scope")
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	dir := t.TempDir()
	if err := pkg.WritePackage(dir); err != nil {
		t.Fatal(err)
	}
	bin, err := BuildBinary(dir, true)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	work := func() *corpus.Work {
		w := &corpus.Work{Arrays: map[string]*interp.Array{}}
		for _, name := range names {
			out := interp.NewFloatArray(name, 4)
			w.Arrays[name] = out
			w.Calls = append(w.Calls, corpus.Call{Fn: name, Args: []interp.Arg{7, out}})
		}
		return w
	}
	for _, workers := range []int{1, 2} {
		ref := work()
		m, err := interp.New(plan.Program())
		if err != nil {
			t.Fatal(err)
		}
		m.Plan, m.Workers, m.Interp = plan, workers, "vm"
		if err := ref.Run(m); err != nil {
			t.Fatalf("vm@%d: %v", workers, err)
		}
		res := runNative(t, bin, work(), workers, nil)
		if d := DiffArrays(ref.Arrays, res.Arrays); d != "" {
			t.Errorf("workers=%d: %s", workers, d)
		}
		if res.Parallel != int64(m.Stats.ParallelRegions) || res.Fallback != int64(m.Stats.RuntimeFallback) {
			t.Errorf("workers=%d: stats %d/%d, want %d/%d (vm)", workers, res.Parallel, res.Fallback,
				m.Stats.ParallelRegions, m.Stats.RuntimeFallback)
		}
	}
}
