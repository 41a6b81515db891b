package parallelize

import (
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/phase2"
)

const amgProgram = `
void fill(int num_rows, int *A_i, int *A_rownnz) {
    int irownnz = 0;
    int i, adiag;
    for (i = 0; i < num_rows; i++) {
        adiag = A_i[i+1] - A_i[i];
        if (adiag > 0)
            A_rownnz[irownnz++] = i;
    }
}
void kernel(int num_rownnz, int *A_rownnz, int *A_i, int *A_j,
            double *A_data, double *x_data, double *y_data) {
    int i, jj, m;
    double tempx;
    for (i = 0; i < num_rownnz; i++) {
        m = A_rownnz[i];
        tempx = y_data[m];
        for (jj = A_i[m]; jj < A_i[m+1]; jj++)
            tempx += A_data[jj] * x_data[A_j[jj]];
        y_data[m] = tempx;
    }
}
`

// kernelLoops returns (outerLabel, innerLabel) of the kernel function's
// first nest.
func kernelLoops(t *testing.T, plan *Plan) (string, string) {
	t.Helper()
	fp := plan.Funcs["kernel"]
	if fp == nil {
		t.Fatal("no kernel plan")
	}
	var outer, inner string
	for lbl, lp := range fp.Loops {
		if lp.Depth == 1 {
			outer = lbl
		}
		if lp.Depth == 2 {
			inner = lbl
		}
	}
	return outer, inner
}

// chosen reports whether the plan parallelizes the loop with the given
// label.
func chosen(fp *FuncPlan, label string) bool {
	lp := fp.Loops[label]
	return lp != nil && lp.Chosen
}

// TestAMGPlanLevels reproduces the Figure 13/17 decision structure for
// AMGmk: classical parallelizes the inner loop only, the new algorithm
// moves parallelism to the outer loop with the run-time check.
func TestAMGPlanLevels(t *testing.T) {
	prog := cminus.MustParse(amgProgram)

	classical := Run(prog, phase2.LevelClassical, nil)
	outer, inner := kernelLoops(t, classical)
	if outer == "" {
		t.Fatal("no outer loop in plan")
	}
	if chosen(classical.Funcs["kernel"], outer) {
		t.Error("classical must not parallelize the outer loop")
	}
	if inner == "" || !chosen(classical.Funcs["kernel"], inner) {
		t.Error("classical should parallelize the inner reduction loop")
	}

	newAlgo := Run(prog, phase2.LevelNew, nil)
	outer, inner = kernelLoops(t, newAlgo)
	if !chosen(newAlgo.Funcs["kernel"], outer) {
		lp := newAlgo.Funcs["kernel"].Loops[outer]
		t.Fatalf("new algorithm should parallelize the outer loop: %s", lp.Decision.Reason)
	}
	// Once the outer loop is parallel, the inner loop is not separately
	// chosen.
	if inner != "" && chosen(newAlgo.Funcs["kernel"], inner) {
		t.Error("inner loop should not be chosen when outer is parallel")
	}
}

// TestAnnotatedSource: printed through the plan's pragmas, the chosen
// loop carries the OpenMP pragma with the paper's run-time check in the
// if clause.
func TestAnnotatedSource(t *testing.T) {
	prog := cminus.MustParse(amgProgram)
	plan := Run(prog, phase2.LevelNew, nil)
	kernel := plan.Program().Func("kernel")
	src := cminus.PrintAnnotated(&cminus.Program{Funcs: []*cminus.FuncDecl{kernel}}, plan.LoopPragmas)
	if !strings.Contains(src, "#pragma omp parallel for if(-1+num_rownnz<=irownnz_max)") {
		t.Errorf("missing pragma with runtime check:\n%s", src)
	}
	if !strings.Contains(src, "private(") {
		t.Errorf("missing private clause:\n%s", src)
	}
	// The annotated source must still parse.
	if _, err := cminus.Parse(src); err != nil {
		t.Errorf("annotated source does not reparse: %v", err)
	}
}

// TestSummaryMentionsProperties.
func TestSummaryMentionsProperties(t *testing.T) {
	prog := cminus.MustParse(amgProgram)
	plan := Run(prog, phase2.LevelNew, nil)
	sum := plan.Summary()
	if !strings.Contains(sum, "A_rownnz") || !strings.Contains(sum, "#SMA") {
		t.Errorf("summary should list the property:\n%s", sum)
	}
	if !strings.Contains(sum, "PARALLEL") {
		t.Errorf("summary should show a parallel loop:\n%s", sum)
	}
}

// TestPragmaRendering covers clause formatting.
func TestPragmaRendering(t *testing.T) {
	prog := cminus.MustParse(`
void f(int n, double *a, double *b) {
    int i;
    double s;
    for (i = 0; i < n; i++) {
        s = a[i] * 2.0;
        b[i] = s;
    }
}
`)
	plan := Run(prog, phase2.LevelClassical, nil)
	fp := plan.Funcs["f"]
	var lp *LoopPlan
	for _, l := range fp.Loops {
		lp = l
	}
	if lp == nil || !lp.Chosen {
		t.Fatalf("loop should be parallel: %+v", lp)
	}
	pragma := fp.Pragmas[lp.Label]
	if !strings.Contains(pragma, "private(s)") {
		t.Errorf("pragma = %s", pragma)
	}
}
