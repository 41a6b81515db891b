package codegen

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// TestCounterMaxAlias runs the one-function AMG program of the interp
// tests, whose runtime check -1+irownnz<=irownnz_max names no program
// variable, on all three engines at 8 workers: each must run the matvec
// as one parallel region and reach the serial end state bit for bit.
func TestCounterMaxAlias(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a native binary")
	}
	src, err := os.ReadFile(filepath.Join("..", "interp", "testdata", "counter_alias.c"))
	if err != nil {
		t.Fatal(err)
	}
	plan := parallelize.Run(cminus.MustParse(string(src)), phase2.LevelNew, nil)
	pkg, err := EmitPackage(plan, "subsubgen/counteralias")
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

	// A CSR matrix of 200 rows, every fourth one empty.
	const rows = 200
	newWork := func() *corpus.Work {
		ai := interp.NewIntArray("A_i", rows+1)
		for i := 0; i < rows; i++ {
			ai.Ints[i+1] = ai.Ints[i] + int64(i%4*(1+i%3))
		}
		nnz := ai.Ints[rows]
		aj, ad := interp.NewIntArray("A_j", nnz), interp.NewFloatArray("A_data", nnz)
		for k := range aj.Ints {
			aj.Ints[k] = int64(k * 7 % rows)
			ad.Flts[k] = 1.0 / float64(k+3)
		}
		x, y := interp.NewFloatArray("x_data", rows), interp.NewFloatArray("y_data", rows)
		for i := 0; i < rows; i++ {
			x.Flts[i], y.Flts[i] = float64(i%9)-4, 1.0/float64(i+1)
		}
		rownnz := interp.NewIntArray("A_rownnz", rows)
		return &corpus.Work{
			Calls: []corpus.Call{{Fn: "amg", Args: []interp.Arg{rows, ai, rownnz, aj, ad, x, y}}},
			Arrays: map[string]*interp.Array{"A_i": ai, "A_j": aj, "A_data": ad,
				"x_data": x, "y_data": y, "A_rownnz": rownnz},
		}
	}
	interpRun := func(engine string, workers int) (map[string]*interp.Array, interp.Stats) {
		w := newWork()
		m, err := interp.New(plan.Program())
		if err != nil {
			t.Fatal(err)
		}
		m.Plan, m.Workers, m.Interp = plan, workers, engine
		if err := w.Run(m); err != nil {
			t.Fatalf("%s@%d: %v", engine, workers, err)
		}
		return w.Arrays, m.Stats
	}

	serial, _ := interpRun("vm", 1)
	one := interp.Stats{ParallelRegions: 1}
	for _, engine := range []string{"vm", "tree"} {
		got, st := interpRun(engine, 8)
		if st != one {
			t.Errorf("%s@8: stats %+v, want one parallel region", engine, st)
		}
		if d := DiffArrays(serial, got); d != "" {
			t.Errorf("%s@8: %s", engine, d)
		}
	}
	in, err := InputFromWork(newWork(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBinary(bin, in)
	if err != nil {
		t.Fatalf("native@8: %v", err)
	}
	if res.Parallel != 1 || res.Fallback != 0 {
		t.Errorf("native@8: stats %d/%d, want one parallel region", res.Parallel, res.Fallback)
	}
	if d := DiffArrays(serial, res.Arrays); d != "" {
		t.Errorf("native@8: %s", d)
	}
}
