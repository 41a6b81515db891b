package core

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/symbolic"
)

const cholSrc = `
void chol_fill(int nsuper, int bs, int *Lpx) {
    int s;
    Lpx[0] = 0;
    for (s = 1; s <= nsuper; s++) {
        Lpx[s] = Lpx[s-1] + bs;
    }
}
void chol_scale(int nsuper, int *Lpx, double *Lx, double *diag) {
    int s, p;
    for (s = 0; s < nsuper; s++) {
        for (p = Lpx[s]; p < Lpx[s+1]; p++) {
            Lx[p] = Lx[p] / diag[s];
        }
    }
}
`

// TestLevelsAndAssumptions: the CHOLMOD pattern needs both the Base
// algorithm and the bs >= 1 assumption.
func TestLevelsAndAssumptions(t *testing.T) {
	// Base without the assumption: prefix-sum increment sign unknown.
	res, err := Analyze(cholSrc, Options{Level: Base})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Properties()) != 0 {
		t.Errorf("no property should hold without the assumption: %v", res.Properties())
	}
	// Base with the assumption: Lpx strictly monotonic, outer loop
	// parallel.
	res, err = Analyze(cholSrc, Options{Level: Base, AssumePositive: []string{"bs"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Properties()) == 0 {
		t.Fatal("expected the Lpx property")
	}
	loops := res.ParallelLoops()
	if len(loops["chol_scale"]) == 0 {
		t.Errorf("chol_scale should be parallelized: %s", res.Summary())
	}
	// Classical never parallelizes the outer loop.
	resC, _ := Analyze(cholSrc, Options{Level: Classical, AssumePositive: []string{"bs"}})
	for _, lbl := range resC.ParallelLoops()["chol_scale"] {
		if fp := resC.Plan.Funcs["chol_scale"]; fp.Loops[lbl].Depth == 1 {
			t.Error("classical must not parallelize the outer supernode loop")
		}
	}
}

func TestAnalyzeParseError(t *testing.T) {
	if _, err := Analyze("void f( {", Options{}); err == nil {
		t.Error("expected parse error")
	}
}

func TestAnnotatedSourceReparses(t *testing.T) {
	res, err := Analyze(cholSrc, Options{Level: New, AssumePositive: []string{"bs"}})
	if err != nil {
		t.Fatal(err)
	}
	src := res.AnnotatedSource()
	if !strings.Contains(src, "#pragma omp parallel for") {
		t.Errorf("missing pragma:\n%s", src)
	}
	if _, err := Analyze(src, Options{Level: New}); err != nil {
		t.Errorf("annotated source should reparse: %v", err)
	}
}

// TestVerifyCHOLMOD: end-to-end soundness via the Verify helper.
func TestVerifyCHOLMOD(t *testing.T) {
	res, err := Analyze(cholSrc, Options{Level: New, AssumePositive: []string{"bs"}})
	if err != nil {
		t.Fatal(err)
	}
	nsuper := int64(64)
	bs := int64(16)
	lpx := interp.NewIntArray("Lpx", nsuper+1)
	m, err := res.NewMachine(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Call("chol_fill", nsuper, bs, lpx); err != nil {
		t.Fatal(err)
	}
	lx := interp.NewFloatArray("Lx", nsuper*bs)
	for i := range lx.Flts {
		lx.Flts[i] = 1 + float64(i%9)
	}
	diag := interp.NewFloatArray("diag", nsuper)
	for i := range diag.Flts {
		diag.Flts[i] = 2 + float64(i%3)
	}
	worst, err := res.Verify("chol_scale", 4,
		[]interp.Arg{nsuper, lpx, lx, diag}, []string{"Lx"})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-12 {
		t.Errorf("divergence %g", worst)
	}
}

func TestVerifyUnknownOutput(t *testing.T) {
	res, err := Analyze(cholSrc, Options{Level: New})
	if err != nil {
		t.Fatal(err)
	}
	lpx := interp.NewIntArray("Lpx", 10)
	_, err = res.Verify("chol_fill", 2, []interp.Arg{int64(4), int64(2), lpx}, []string{"nope"})
	if err == nil {
		t.Error("expected unknown-output error")
	}
}

// nonlinearFillSrc fills idx with a value cubic in the loop index,
// 6*i - i*(i-1)*(i-2): 0, 6, 12, 12, 0 at i = 0..4, neither monotone nor
// injective, though its values at i = 0, 1 and 2 lie on the line 6*i.
const nonlinearFillSrc = `
void f(int n, int *idx, double *x, double *y) {
    int i, j;
    for (i = 0; i < n; i++) {
        idx[i] = 6*i - i*(i-1)*(i-2);
    }
    for (j = 0; j < n; j++) {
        y[idx[j]] = x[j];
    }
}
`

// TestNonlinearFillNoFact: the fill records no fact about idx, and the
// scatter through idx stays serial.
func TestNonlinearFillNoFact(t *testing.T) {
	for _, level := range []Level{Base, New} {
		res, err := Analyze(nonlinearFillSrc, Options{Level: level, AssumePositive: []string{"n"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Properties() {
			if p.Array == "idx" {
				t.Errorf("%s: fact %s names idx", level, p)
			}
		}
		use := res.Plan.Funcs["f"].Loops["L2"]
		if use == nil {
			t.Fatalf("%s: no loop L2:\n%s", level, res.Summary())
		}
		if use.Decision.Parallel {
			t.Errorf("%s: the scatter y[idx[j]] is parallel, want serial", level)
		}
	}
}

// condDecrementSrc fills a[i] = m + i while an inner loop's condition
// lowers m on every test, so a[i] is the constant m whenever m <= 100
// and a has no monotone section. The second loop scatters through
// a[i + 1], which no guard scan covers.
const condDecrementSrc = `
void f(int n, int m, int *a, double *y, double *x) {
    int i, j;
    for (i = 0; i < n; i++) { a[i] = m + i; for (j = 0; m-- > 100; j++) { } }
    for (i = 0; i < n - 1; i++) { y[a[i + 1]] = x[i]; }
}
`

// TestWritesConditionNoFact: Phase 1 sees the m-- in the inner loop's
// condition, so no level records a fact on a, and the scatter through
// it stays serial.
func TestWritesConditionNoFact(t *testing.T) {
	for _, level := range []Level{Base, New} {
		res, err := Analyze(condDecrementSrc, Options{Level: level})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Properties() {
			if p.Array == "a" {
				t.Errorf("%s: fact %s names a", level, p)
			}
		}
		if use := res.Plan.Funcs["f"].Loops["L3"]; use == nil || use.Decision.Parallel {
			t.Errorf("%s: the scatter y[a[i + 1]] is not serial:\n%s", level, res.Summary())
		}
	}
}

// seamSrc is SDDMM with a fill whose head col_ptr[0] = m is unrelated to
// the entries the loop writes: for m > 1, col_ptr[0] exceeds col_ptr[1].
const seamSrc = `
void fill(int nonzeros, int m, int *col_val, int *col_ptr, int *out_holder) {
    int holder = 1; int i, r;
    col_ptr[0] = m; r = col_val[0];
    for (i = 0; i < nonzeros; i++)
        if (col_val[i] != r) { col_ptr[holder++] = i + 1; r = col_val[i]; }
    out_holder[0] = holder;
}
void sddmm(int n_cols, int k, int holder_max, int *col_ptr, int *row_ind,
           double *W, double *H, double *nnz_val, double *p) {
    int r, ind, t;
    double sm;
    for (r = 0; r < n_cols; r++) {
        for (ind = col_ptr[r]; ind < col_ptr[r+1]; ind++) {
            sm = 0.0;
            for (t = 0; t < k; t++)
                sm += W[r*k + t] * H[row_ind[ind]*k + t];
            p[ind] = sm * nnz_val[ind];
        }
    }
}
`

// TestSeamFactUnprovenHead: the fill's loop makes col_ptr[1:holder_max]
// monotone, and nothing relates the head col_ptr[0] = m to it (m ≥ 1 is
// all -assume m gives), so no fact may cover col_ptr[0]. Extending the
// fact over the head takes a proof of m ≤ 1, which is false for m = 2.
func TestSeamFactUnprovenHead(t *testing.T) {
	for _, gl := range goldenLevels {
		res, err := Analyze(seamSrc, Options{Level: gl.level, AssumePositive: []string{"m"}})
		if err != nil {
			t.Fatalf("%s: %v", gl.name, err)
		}
		facts := 0
		for _, p := range res.Properties() {
			if p.Array != "col_ptr" {
				continue
			}
			facts++
			if lo, ok := symbolic.AsInt(p.IndexLo); !ok || lo < 1 {
				t.Errorf("%s: %s covers col_ptr[0]", gl.name, p)
			}
		}
		if gl.level == New && facts == 0 {
			t.Errorf("new: no col_ptr fact: %s", res.Summary())
		}
	}
}
