package phase2_test

import (
	"testing"

	"repro/internal/cminus"
	"repro/internal/parallelize"
	"repro/internal/phase2"
	"repro/internal/property"
)

// The decreasing-monotonicity extension: NPP recurrences produce
// monotonically decreasing sections; strictly decreasing sections are
// injective, so the extended dependence test can still parallelize
// subscripted-subscript loops that gather through them.

const decreasingSrc = `
void fill(int n, int *input, int *ind, int *out) {
    int m = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (input[i] > 0) {
            ind[m++] = n - i;
        }
    }
    out[0] = m;
}
void use(int cnt, int m_max, int *ind, double *y) {
    int j;
    for (j = 0; j < cnt; j++) {
        y[ind[j]] = y[ind[j]] * 0.5;
    }
}
`

func TestDecreasingIntermittentProperty(t *testing.T) {
	prog := cminus.MustParse(decreasingSrc)
	fa := phase2.AnalyzeFunc(prog.Func("fill"), phase2.LevelNew, nil)
	p := fa.Props.BestMonotone("ind")
	if p == nil {
		t.Fatalf("no property; failures: %v", fa.Failures)
	}
	if !p.Decreasing || !p.Strict {
		t.Errorf("want strictly decreasing, got %s", p)
	}
	if p.Kind != property.KindIntermittent {
		t.Errorf("kind: %s", p.Kind)
	}
}

func TestDecreasingStillInjectiveForDepTest(t *testing.T) {
	prog := cminus.MustParse(decreasingSrc)
	plan := parallelize.Run(prog, phase2.LevelNew, nil)
	if len(plan.Funcs["use"].ChosenLabels()) == 0 {
		t.Errorf("strictly decreasing (injective) subscript array should allow parallelization:\n%s",
			plan.Summary())
	}
}

func TestDecreasingSSRScalar(t *testing.T) {
	src := `
void f(int n, int *input, int *out) {
    int sc = 100000;
    int i;
    for (i = 0; i < n; i++) {
        if (input[i] > 0) {
            sc = sc - 3;
        }
    }
    out[0] = sc;
}
`
	prog := cminus.MustParse(src)
	fa := phase2.AnalyzeFunc(prog.Func("f"), phase2.LevelNew, nil)
	info, ok := fa.Loops["L1"].SSR["sc"]
	if !ok || !info.Decreasing {
		t.Fatalf("sc should be a decreasing SSR: %+v ok=%v", info, ok)
	}
	// Aggregate spans [Λ-3N : Λ] = [100000-3n : 100000].
	if got := fa.Loops["L1"].Aggregated["sc"].String(); got != "[-3*n+Λ_sc:Λ_sc]" {
		t.Errorf("aggregate = %s", got)
	}
}

func TestDecreasingSRAClosedForm(t *testing.T) {
	src := `
void f(int n, int *a) {
    int i;
    for (i = 0; i < n; i++) {
        a[i] = 2*n - 3*i;
    }
}
`
	prog := cminus.MustParse(src)
	fa := phase2.AnalyzeFunc(prog.Func("f"), phase2.LevelNew, nil)
	p := fa.Props.BestMonotone("a")
	if p == nil || !p.Decreasing || !p.Strict {
		t.Fatalf("want strictly decreasing SRA, got %v", p)
	}
}

// TestDecreasingWindowsRejected: the disjoint-window pattern requires
// non-decreasing extents; a decreasing pointer array must not enable it.
func TestDecreasingWindowsRejected(t *testing.T) {
	src := `
void fill(int n, int *ptr) {
    int i;
    ptr[0] = 1000000;
    for (i = 1; i <= n; i++) {
        ptr[i] = ptr[i-1] - 4;
    }
}
void use(int n, int *ptr, double *x) {
    int i, p;
    for (i = 0; i < n; i++) {
        for (p = ptr[i]; p < ptr[i+1]; p++) {
            x[p] = 1.0;
        }
    }
}
`
	prog := cminus.MustParse(src)
	plan := parallelize.Run(prog, phase2.LevelNew, nil)
	fp := plan.Funcs["use"]
	for _, lp := range fp.Loops {
		if lp.Chosen && lp.Depth == 1 {
			t.Errorf("decreasing extents must not justify window disjointness:\n%s", plan.Summary())
		}
	}
}
