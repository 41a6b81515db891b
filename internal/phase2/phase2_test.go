package phase2

import (
	"testing"

	"repro/internal/cminus"
	"repro/internal/property"
	"repro/internal/ranges"
	"repro/internal/symbolic"
)

// The three worked examples of Section 3 serve as the primary integration
// tests for Phase 2.

const amgFillSrc = `
void fill(int num_rows, int *A_i, int *A_rownnz) {
    int irownnz = 0;
    int i, adiag;
    for (i = 0; i < num_rows; i++) {
        adiag = A_i[i+1] - A_i[i];
        if (adiag > 0)
            A_rownnz[irownnz++] = i;
    }
}
`

// TestExample1AMG reproduces Section 3.1: A_rownnz[0:irownnz_max] =
// [0:num_rows-1]#SMA with irownnz = [0:num_rows].
func TestExample1AMG(t *testing.T) {
	prog := cminus.MustParse(amgFillSrc)
	fa := AnalyzeFunc(prog.Func("fill"), LevelNew, nil)
	p := fa.Props.BestMonotone("A_rownnz")
	if p == nil {
		t.Fatalf("no property for A_rownnz; failures: %v", fa.Failures)
	}
	if p.Kind != property.KindIntermittent {
		t.Errorf("kind = %s, want intermittent", p.Kind)
	}
	if !p.Strict {
		t.Error("A_rownnz should be strictly monotonic")
	}
	if p.Counter != "irownnz" {
		t.Errorf("counter = %q", p.Counter)
	}
	if got := p.IndexLo.String(); got != "0" {
		t.Errorf("IndexLo = %s, want 0 (Λ_irownnz substituted)", got)
	}
	if got := p.IndexHi.String(); got != "irownnz_max" {
		t.Errorf("IndexHi = %s", got)
	}
	if got := p.CounterFinal.String(); got != "[0:num_rows]" {
		t.Errorf("CounterFinal = %s, want [0:num_rows]", got)
	}
	if got := p.ValueRange.String(); got != "[0:-1+num_rows]" {
		t.Errorf("ValueRange = %s, want [0:-1+num_rows]", got)
	}
}

// TestExample1AMGBaseFails: the Base algorithm (prior approach) must NOT
// find the intermittent property — that is the paper's headline delta.
func TestExample1AMGBaseFails(t *testing.T) {
	prog := cminus.MustParse(amgFillSrc)
	fa := AnalyzeFunc(prog.Func("fill"), LevelBase, nil)
	if p := fa.Props.Lookup("A_rownnz"); len(p) != 0 {
		t.Errorf("Base algorithm should not determine the property, got %s", p)
	}
}

const sddmmFillSrc = `
void fill(int nonzeros, int *col_val, int *col_ptr) {
    int holder = 1;
    int i, r;
    col_ptr[0] = 0;
    r = col_val[0];
    for (i = 0; i < nonzeros; i++) {
        if (col_val[i] != r) {
            col_ptr[holder++] = i;
            r = col_val[i];
        }
    }
}
`

// TestExample2SDDMM reproduces Section 3.2: col_ptr is intermittently
// monotonic; the pre-loop write col_ptr[0] = 0 extends the monotone
// section to index 0 (non-strict at the seam, which suffices — the paper
// notes non-strict monotonicity is enough for SDDMM).
func TestExample2SDDMM(t *testing.T) {
	prog := cminus.MustParse(sddmmFillSrc)
	fa := AnalyzeFunc(prog.Func("fill"), LevelNew, nil)
	p := fa.Props.BestMonotone("col_ptr")
	if p == nil {
		t.Fatalf("no property for col_ptr; failures: %v", fa.Failures)
	}
	if p.Kind != property.KindIntermittent || p.Counter != "holder" {
		t.Errorf("got %s (counter %s)", p.Kind, p.Counter)
	}
	if got := p.IndexLo.String(); got != "0" {
		t.Errorf("IndexLo = %s, want 0 (seam extension)", got)
	}
	if got := p.ValueRange.String(); got != "[0:-1+nonzeros]" {
		t.Errorf("ValueRange = %s", got)
	}
	if got := p.CounterFinal.String(); got != "[1:1+nonzeros]" {
		t.Errorf("CounterFinal = %s", got)
	}
}

const uaTransfSrc = `
void transf(int idel[][6][5][5], int LELT) {
    int iel, j, i, ntemp;
    for (iel = 0; iel < LELT; iel++) {
        ntemp = 125*iel;
        for (j = 0; j < 5; j++) {
            for (i = 0; i < 5; i++) {
                idel[iel][0][j][i] = ntemp + i*5 + j*25 + 4;
                idel[iel][1][j][i] = ntemp + i*5 + j*25;
                idel[iel][2][j][i] = ntemp + i + j*25 + 20;
                idel[iel][3][j][i] = ntemp + i + j*25;
                idel[iel][4][j][i] = ntemp + i + j*5 + 100;
                idel[iel][5][j][i] = ntemp + i + j*5;
            }
        }
    }
}
`

// TestExample3UA reproduces Section 3.3: idel is strictly monotonic w.r.t.
// dimension 0 with values [0 : 125*(LELT-1)+124].
func TestExample3UA(t *testing.T) {
	prog := cminus.MustParse(uaTransfSrc)
	fa := AnalyzeFunc(prog.Func("transf"), LevelNew, nil)
	p := fa.Props.BestMonotone("idel")
	if p == nil {
		t.Fatalf("no property for idel; failures: %v\nloops: %v", fa.Failures, fa.Loops)
	}
	if p.Kind != property.KindMultiDim {
		t.Errorf("kind = %s, want multi-dim", p.Kind)
	}
	if !p.Strict {
		t.Error("idel should be strictly monotonic")
	}
	if p.Dim != 0 || p.NumDims != 4 {
		t.Errorf("dim=%d numdims=%d", p.Dim, p.NumDims)
	}
	// Value range [0 : 124+125*(LELT-1)] = [0 : -1+125*LELT].
	if got := p.ValueRange.String(); got != "[0:-1+125*LELT]" {
		t.Errorf("ValueRange = %s", got)
	}
	if p.IndexLo.String() != "0" || p.IndexHi.String() != "-1+LELT" {
		t.Errorf("index range [%s:%s]", p.IndexLo, p.IndexHi)
	}
}

// TestExample3UAIntermediates checks the per-level aggregation of the UA
// nest matches the paper's printed Phase-2 results.
func TestExample3UAIntermediates(t *testing.T) {
	prog := cminus.MustParse(uaTransfSrc)
	fa := AnalyzeFunc(prog.Func("transf"), LevelNew, nil)

	// Innermost loop (L3): six expressions survive as a set.
	l3 := fa.Loops["L3"]
	if l3 == nil {
		t.Fatal("no L3 aggregate")
	}
	w3 := l3.Collapsed.Arrays["idel"]
	if len(w3) != 1 {
		t.Fatalf("L3 idel writes: %v", w3)
	}
	if _, isSet := w3[0].Value.(symbolic.Set); !isSet {
		t.Errorf("L3 value should remain a set of ranges: %s", w3[0].Value)
	}

	// j-loop (L2): simplification succeeds, a single range [Λ:124+Λ].
	l2 := fa.Loops["L2"]
	w2 := l2.Collapsed.Arrays["idel"]
	if len(w2) != 1 {
		t.Fatalf("L2 idel writes: %v", w2)
	}
	if got := w2[0].Value.String(); got != "[ntemp:124+ntemp]" {
		t.Errorf("L2 aggregated value = %s, want [ntemp:124+ntemp]", got)
	}

	// iel-loop (L1): value 125*iel+[0:124] decomposes with α=125,
	// [rl:ru]=[0:124]; SMA at dim 0.
	if len(fa.Loops["L1"].Props) != 1 {
		t.Fatalf("L1 props: %v", fa.Loops["L1"].Props)
	}
}

// TestFig2aBasePattern: the Figure 2(a) recurrence (array filled with a
// conditionally-incremented scalar in contiguous iterations) is handled by
// the Base algorithm.
func TestFig2aBasePattern(t *testing.T) {
	src := `
void f(int n, int m, int *a, int *c) {
    int i1, in, p;
    p = 0;
    for (i1 = 0; i1 < n; i1 = i1+1) {
        a[i1] = p;
        for (in = 0; in < m; in = in+1) {
            if (c[in] > 0) {
                p = p + 1;
            }
        }
    }
}
`
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelBase, nil)
	p := fa.Props.BestMonotone("a")
	if p == nil {
		t.Fatalf("Base algorithm should handle Fig 2(a); failures: %v", fa.Failures)
	}
	if p.Kind != property.KindSRA || p.Strict {
		t.Errorf("got %s strict=%v, want non-strict SRA", p.Kind, p.Strict)
	}
	if p.IndexLo.String() != "0" || p.IndexHi.String() != "-1+n" {
		t.Errorf("index range [%s:%s]", p.IndexLo, p.IndexHi)
	}
}

// TestFig2bPrefixSum: the Figure 2(b) recurrence a[i+1] = a[i] + k.
func TestFig2bPrefixSum(t *testing.T) {
	src := `
void f(int n, int *a, int k) {
    int i1;
    a[0] = 0;
    for (i1 = 1; i1 < n; i1 = i1+1) {
        a[i1] = a[i1-1] + k;
    }
}
`
	prog := cminus.MustParse(src)
	// k's sign is unknown: no property.
	fa := AnalyzeFunc(prog.Func("f"), LevelBase, nil)
	if p := fa.Props.Lookup("a"); len(p) != 0 {
		t.Errorf("unknown k sign should fail, got %s", p)
	}
	// With the assumption k >= 1 the array is strictly monotonic.
	assume := rangesWith("k", symbolic.One, nil)
	fa = AnalyzeFunc(prog.Func("f"), LevelBase, assume)
	p := fa.Props.BestMonotone("a")
	if p == nil {
		t.Fatalf("prefix sum with positive k should be SMA; failures: %v", fa.Failures)
	}
	if !p.Strict {
		t.Error("want strict")
	}
}

// TestUnconditionalSSRAggregation: p = p + k unconditionally aggregates to
// Λ_p + N*k exactly.
func TestUnconditionalSSRAggregation(t *testing.T) {
	src := `
void f(int n, int *a, int k) {
    int i, p;
    p = 0;
    for (i = 0; i < n; i++) {
        a[i] = p;
        p = p + 3;
    }
}
`
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelBase, nil)
	agg := fa.Loops["L1"]
	if agg == nil {
		t.Fatal("no loop aggregate")
	}
	info, ok := agg.SSR["p"]
	if !ok || !info.Strict || info.Conditional {
		t.Fatalf("p SSR info: %+v ok=%v", info, ok)
	}
	if got := agg.Aggregated["p"].String(); got != "3*n+Λ_p" {
		t.Errorf("aggregated p = %s, want 3*n+Λ_p", got)
	}
	// The array a is a strict SRA (values p, strictly increasing).
	p := fa.Props.BestMonotone("a")
	if p == nil || !p.Strict {
		t.Fatalf("a should be strict SRA, got %v", p)
	}
	// ValueRange = [Λ_p : Λ_p + n*3] with Λ_p = 0.
	if got := p.ValueRange.String(); got != "[0:3*n]" {
		t.Errorf("ValueRange = %s", got)
	}
}

// TestConditionalWriteToContiguousSubscriptFails: a conditional write at
// a[i] leaves gaps of old values; no property may be claimed.
func TestConditionalWriteToContiguousSubscriptFails(t *testing.T) {
	src := `
void f(int n, int *a, int *c) {
    int i;
    for (i = 0; i < n; i++) {
        if (c[i] > 0)
            a[i] = i;
    }
}
`
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelNew, nil)
	if p := fa.Props.Lookup("a"); len(p) != 0 {
		t.Errorf("conditional contiguous write should not be monotonic: %s", p)
	}
}

// TestInputDependentSubscriptFails: values copied from input data (the
// Incomplete Cholesky pattern) defeat the compile-time analysis.
func TestInputDependentSubscriptFails(t *testing.T) {
	src := `
void f(int n, int *a, int *input) {
    int i, m;
    m = 0;
    for (i = 0; i < n; i++) {
        if (input[i] > 0) {
            a[m++] = input[i];
        }
    }
}
`
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelNew, nil)
	if p := fa.Props.Lookup("a"); len(p) != 0 {
		t.Errorf("input-dependent values should not be monotonic: %s", p)
	}
}

// TestDecreasingCounterFails: a counter incremented by -1 is not PNN.
func TestDecreasingCounterFails(t *testing.T) {
	src := `
void f(int n, int *a, int *c) {
    int i, m;
    m = n;
    for (i = 0; i < n; i++) {
        if (c[i] > 0) {
            m = m - 1;
            a[m] = i;
        }
    }
}
`
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelNew, nil)
	if p := fa.Props.Lookup("a"); len(p) != 0 {
		t.Errorf("decreasing counter must fail: %s", p)
	}
}

// TestDifferentTagsFail: LEMMA 1 requires the counter increment and the
// array write to be guarded by the same condition.
func TestDifferentTagsFail(t *testing.T) {
	src := `
void f(int n, int *a, int *c, int *d) {
    int i, m;
    m = 0;
    for (i = 0; i < n; i++) {
        if (c[i] > 0)
            a[m] = i;
        if (d[i] > 0)
            m = m + 1;
    }
}
`
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelNew, nil)
	if p := fa.Props.Lookup("a"); len(p) != 0 {
		t.Errorf("different guard conditions must fail: %s", p)
	}
}

// TestLoopInvariantTagFails: LEMMA 1 requires a loop-variant condition.
func TestLoopInvariantTagFails(t *testing.T) {
	src := `
void f(int n, int flag, int *a) {
    int i, m;
    m = 0;
    for (i = 0; i < n; i++) {
        if (flag > 0) {
            a[m++] = i;
        }
    }
}
`
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelNew, nil)
	if p := fa.Props.Lookup("a"); len(p) != 0 {
		t.Errorf("loop-invariant guard must fail per Algorithm 2 line 15: %s", p)
	}
}

// TestMultiDimViolatedInequality: α+rl < ru means rows can overlap; no
// property.
func TestMultiDimViolatedInequality(t *testing.T) {
	src := `
void f(int n, int a[][10]) {
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < 10; j++) {
            a[i][j] = 5*i + j;
        }
    }
}
`
	// α=5, values 5i+[0:9]: 5+0 < 9 → rows overlap.
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelNew, nil)
	if p := fa.Props.Lookup("a"); len(p) != 0 {
		t.Errorf("overlapping rows must fail LEMMA 2: %s", p)
	}
}

// TestMultiDimNonStrict: α+rl == ru gives non-strict monotonicity.
func TestMultiDimNonStrict(t *testing.T) {
	src := `
void f(int n, int a[][11]) {
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j <= 10; j++) {
            a[i][j] = 10*i + j;
        }
    }
}
`
	// values 10i+[0:10]: 10+0 == 10 → MA, not SMA.
	prog := cminus.MustParse(src)
	fa := AnalyzeFunc(prog.Func("f"), LevelNew, nil)
	p := fa.Props.BestMonotone("a")
	if p == nil {
		t.Fatalf("expected MA property; failures: %v", fa.Failures)
	}
	if p.Strict {
		t.Error("boundary case must be non-strict")
	}
	if p.Kind != property.KindMultiDim {
		t.Errorf("kind: %s", p.Kind)
	}
}

// rangesWith builds an assumption dictionary for tests.
func rangesWith(sym string, lo, hi symbolic.Expr) *ranges.Dict {
	d := ranges.New()
	d.Set(sym, lo, hi)
	return d
}
