package core

import (
	"strings"
	"testing"

	"repro/internal/interp"
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
