package corpus

import (
	"math/rand"
	"testing"

	"repro/internal/cminus"
	"repro/internal/inline"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
	"repro/internal/ranges"
	"repro/internal/symbolic"
)

// TestInlineExpansionPreservesMatrix: wrapping each benchmark's functions
// in a driver that calls them, inline-expanding, and re-running the
// analysis must find the same parallelism inside the driver's copy of the
// kernel nest (the paper's inline-expansion workflow, automated).
func TestInlineExpansionPreservesMatrix(t *testing.T) {
	for _, b := range []*Benchmark{AMGmk, SDDMM, UATransf, CHOLMOD} {
		prog := cminus.MustParse(b.Source)
		expanded := inline.Expand(prog, 4)
		dict := ranges.New()
		for _, sym := range b.AssumePositive {
			dict.Set(sym, symbolic.One, nil)
		}
		plan := parallelize.Run(expanded, phase2.LevelNew, &parallelize.Options{Assume: dict})
		if got := Achieved(plan, b.KernelFunc); got != Outer {
			t.Errorf("%s: inlined program achieves %s, want outer\n%s", b.Name, got, plan.Summary())
		}
	}
}

// TestSDDMMInterpValidation: the SDDMM corpus program executes under the
// plan with real parallel column windows and matches serial execution.
func TestSDDMMInterpValidation(t *testing.T) {
	plan := PlanFor(SDDMM, phase2.LevelNew)
	prog := plan.Program()

	run := func(workers int) []float64 {
		m, err := interp.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		m.Plan = plan
		m.Workers = workers

		rng := rand.New(rand.NewSource(5))
		// Build a sorted col_val stream (nonzeros grouped by column).
		nCols := int64(40)
		var colVals []int64
		for c := int64(0); c < nCols; c++ {
			for k := 0; k <= rng.Intn(4); k++ {
				colVals = append(colVals, c)
			}
		}
		nnz := int64(len(colVals))
		colVal := interp.NewIntArray("col_val", nnz)
		copy(colVal.Ints, colVals)
		colPtr := interp.NewIntArray("col_ptr", nCols+1)
		outHolder := interp.NewIntArray("out_holder", 1)
		if err := m.Call("sddmm_fill", nnz, colVal, colPtr, outHolder); err != nil {
			t.Fatal(err)
		}
		holder := outHolder.Ints[0]
		colPtr.Ints[holder] = nnz // close the last window (as the app does)

		k := int64(6)
		rowInd := interp.NewIntArray("row_ind", nnz)
		for i := range rowInd.Ints {
			rowInd.Ints[i] = int64(rng.Intn(30))
		}
		w := interp.NewFloatArray("W", nCols*k)
		h := interp.NewFloatArray("H", 30*k)
		for i := range w.Flts {
			w.Flts[i] = rng.Float64()
		}
		for i := range h.Flts {
			h.Flts[i] = rng.Float64()
		}
		nnzVal := interp.NewFloatArray("nnz_val", nnz)
		for i := range nnzVal.Flts {
			nnzVal.Flts[i] = rng.Float64()
		}
		p := interp.NewFloatArray("p", nnz)
		if err := m.Call("sddmm", holder, k, holder, colPtr, rowInd, w, h, nnzVal, p); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), p.Flts...)
	}
	serial := run(1)
	par := run(4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("p[%d]: %g vs %g", i, serial[i], par[i])
		}
	}
}

// TestCGInterpValidation: the classical CG matvec parallelizes and
// matches serial execution.
func TestCGInterpValidation(t *testing.T) {
	plan := PlanFor(CG, phase2.LevelClassical)
	if Achieved(plan, "cg_matvec") != Outer {
		t.Fatalf("CG should be outer-parallel classically:\n%s", plan.Summary())
	}
	prog := plan.Program()
	run := func(workers int) []float64 {
		m, err := interp.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		m.Plan = plan
		m.Workers = workers
		rng := rand.New(rand.NewSource(9))
		n := int64(60)
		rowstr := interp.NewIntArray("rowstr", n+1)
		var cols []int64
		for i := int64(0); i < n; i++ {
			for k := 0; k < 1+rng.Intn(5); k++ {
				cols = append(cols, int64(rng.Intn(int(n))))
			}
			rowstr.Ints[i+1] = int64(len(cols))
		}
		colidx := interp.NewIntArray("colidx", int64(len(cols)))
		copy(colidx.Ints, cols)
		a := interp.NewFloatArray("a", int64(len(cols)))
		for i := range a.Flts {
			a.Flts[i] = rng.Float64()
		}
		pv := interp.NewFloatArray("p", n)
		for i := range pv.Flts {
			pv.Flts[i] = rng.Float64()
		}
		w := interp.NewFloatArray("w", n)
		if err := m.Call("cg_matvec", n, rowstr, colidx, a, pv, w); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), w.Flts...)
	}
	serial := run(1)
	par := run(3)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("w[%d]: %g vs %g", i, serial[i], par[i])
		}
	}
}

// TestParametricMultiDim: LEMMA 2 with a *symbolic* α (parametric element
// size): idel[iel][...] = esize*iel + [0:esize-1] is strictly monotonic
// because α+rl = esize > esize-1 = ru is provable symbolically.
func TestParametricMultiDim(t *testing.T) {
	src := `
void fill(int n, int esize, int a[][16]) {
    int iel, p;
    for (iel = 0; iel < n; iel++) {
        for (p = 0; p < esize; p++) {
            a[iel][p] = esize*iel + p;
        }
    }
}
`
	prog := cminus.MustParse(src)
	dict := ranges.New()
	dict.Set("esize", symbolic.One, nil)
	plan := parallelize.Run(prog, phase2.LevelNew, &parallelize.Options{Assume: dict})
	p := plan.Props.BestMonotone("a")
	if p == nil {
		t.Fatalf("no property for parametric multi-dim:\n%s", plan.Summary())
	}
	if !p.Strict || p.Dim != 0 {
		t.Errorf("want strict dim-0, got %s", p)
	}
}
