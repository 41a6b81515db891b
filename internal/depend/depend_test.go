package depend

import (
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/normalize"
	"repro/internal/phase2"
	"repro/internal/property"
	"repro/internal/ranges"
	"repro/internal/symbolic"
)

// analyzeLoop parses src, runs the array analysis on fillFunc at the given
// level, then dependence-tests the depth-th loop (1 = outermost, 2 = first
// loop nested inside it, ...) of kernFunc.
func analyzeLoop(t *testing.T, src, fillFunc, kernFunc string, depth int, level phase2.Level) *Decision {
	t.Helper()
	prog := cminus.MustParse(src)
	props := property.NewDB()
	dict := ranges.New()
	if fillFunc != "" && level >= phase2.LevelBase {
		fa := phase2.AnalyzeFunc(prog.Func(fillFunc), level, nil)
		for _, arr := range fa.Props.Arrays() {
			for _, p := range fa.Props.Lookup(arr) {
				props.Add(p)
			}
		}
	}
	fn := prog.Func(kernFunc)
	if fn == nil {
		t.Fatalf("no function %s", kernFunc)
	}
	norm := normalize.Func(fn)
	loop := loopAtDepth(norm.Func.Body, depth)
	if loop == nil {
		t.Fatalf("no loop at depth %d in %s", depth, kernFunc)
	}
	tester := NewTester(props, dict)
	return tester.Analyze(loop, norm.Loops[loop.Label])
}

// loopAtDepth returns the first loop chain's loop at the given nesting
// depth (1-based).
func loopAtDepth(blk *cminus.Block, depth int) *cminus.ForStmt {
	var first *cminus.ForStmt
	cminus.WalkStmts(blk, func(s cminus.Stmt) bool {
		if fs, ok := s.(*cminus.ForStmt); ok && first == nil {
			first = fs
			return false
		}
		return true
	})
	if first == nil {
		return nil
	}
	if depth <= 1 {
		return first
	}
	return loopAtDepth(first.Body, depth-1)
}

const amgSrc = `
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

// TestAMGKernel: the outer loop of Figure 8 parallelizes only with the new
// algorithm, guarded by the paper's run-time check
// (-1+num_rownnz <= irownnz_max).
func TestAMGKernel(t *testing.T) {
	// Classical: blocked by y_data[m].
	d := analyzeLoop(t, amgSrc, "fill", "kernel", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("classical must not parallelize the outer AMG loop")
	}
	if !strings.Contains(d.Reason, "y_data") {
		t.Errorf("reason should mention y_data: %s", d.Reason)
	}
	// Base: still blocked (intermittent pattern unsupported).
	d = analyzeLoop(t, amgSrc, "fill", "kernel", 1, phase2.LevelBase)
	if d.Parallel {
		t.Fatal("base algorithm must not parallelize the outer AMG loop")
	}
	// New: parallel with run-time check.
	d = analyzeLoop(t, amgSrc, "fill", "kernel", 1, phase2.LevelNew)
	if !d.Parallel {
		t.Fatalf("new algorithm should parallelize: %s", d.Reason)
	}
	if got := d.CheckString(); got != "-1+num_rownnz<=irownnz_max" {
		t.Errorf("runtime check = %q", got)
	}
	// m and tempx privatized; jj private as an inner index.
	joined := strings.Join(d.Privates, ",")
	for _, want := range []string{"m", "tempx", "jj"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing private %q in %v", want, d.Privates)
		}
	}
	// The inner reduction loop parallelizes classically (the paper's
	// explanation for the Figure 13 anomaly).
	d = analyzeLoop(t, amgSrc, "", "kernel", 2, phase2.LevelClassical)
	if !d.Parallel {
		t.Fatalf("inner loop should parallelize classically: %s", d.Reason)
	}
	if d.Reductions["tempx"] != "+" {
		t.Errorf("tempx should be a + reduction: %v", d.Reductions)
	}
}

const sddmmSrc = `
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
void kernel(int n_cols, int k, int *col_ptr, int *row_ind,
            double *W, double *H, double *nnz_val, double *p) {
    int r, ind, t;
    double sm;
    for (r = 0; r < n_cols; r++) {
        for (ind = col_ptr[r]; ind < col_ptr[r+1]; ind++) {
            sm = 0;
            for (t = 0; t < k; t++) {
                sm += W[r*k + t] * H[row_ind[ind]*k + t];
            }
            p[ind] = sm * nnz_val[ind];
        }
    }
}
`

// TestSDDMMKernel: the outer loop of Figure 10 parallelizes only with the
// new algorithm (disjoint windows via monotone col_ptr).
func TestSDDMMKernel(t *testing.T) {
	d := analyzeLoop(t, sddmmSrc, "fill", "kernel", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("classical must not parallelize the outer SDDMM loop")
	}
	d = analyzeLoop(t, sddmmSrc, "fill", "kernel", 1, phase2.LevelBase)
	if d.Parallel {
		t.Fatal("base must not parallelize the outer SDDMM loop")
	}
	d = analyzeLoop(t, sddmmSrc, "fill", "kernel", 1, phase2.LevelNew)
	if !d.Parallel {
		t.Fatalf("new algorithm should parallelize: %s", d.Reason)
	}
	if got := d.CheckString(); got != "-1+n_cols<=holder_max" {
		t.Errorf("runtime check = %q (paper: -1+n_cols <= holder_max)", got)
	}
	// The innermost t-loop is a classical reduction.
	d = analyzeLoop(t, sddmmSrc, "", "kernel", 3, phase2.LevelClassical)
	if !d.Parallel || d.Reductions["sm"] != "+" {
		t.Fatalf("inner loop should be a classical reduction: %+v", d)
	}
}

const uaSrc = `
void fill(int idel[][6][5][5], int LELT) {
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
void kernel(int nelt, int idel[][6][5][5], double *tx, double *tmort) {
    int iel, iface, j, i;
    for (iel = 0; iel < nelt; iel++) {
        for (iface = 0; iface < 6; iface++) {
            for (j = 0; j < 5; j++) {
                for (i = 0; i < 5; i++) {
                    tx[idel[iel][iface][j][i]] = tx[idel[iel][iface][j][i]] + tmort[iel*150 + iface*25 + j*5 + i];
                }
            }
        }
    }
}
`

// TestUAKernel: the transf gather/scatter loop parallelizes only with the
// new algorithm (multi-dimensional range monotonicity of idel).
func TestUAKernel(t *testing.T) {
	d := analyzeLoop(t, uaSrc, "fill", "kernel", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("classical must not parallelize the UA loop")
	}
	d = analyzeLoop(t, uaSrc, "fill", "kernel", 1, phase2.LevelBase)
	if d.Parallel {
		t.Fatal("base must not parallelize the UA loop")
	}
	d = analyzeLoop(t, uaSrc, "fill", "kernel", 1, phase2.LevelNew)
	if !d.Parallel {
		t.Fatalf("new algorithm should parallelize: %s", d.Reason)
	}
	if len(d.UsedProperties) == 0 || !strings.Contains(d.UsedProperties[0], "SMA") {
		t.Errorf("should use the idel SMA property: %v", d.UsedProperties)
	}
}

const cgSrc = `
void matvec(int n, int *rowstr, int *colidx, double *a, double *p, double *w) {
    int j, k;
    double sum;
    for (j = 0; j < n; j++) {
        sum = 0.0;
        for (k = rowstr[j]; k < rowstr[j+1]; k++) {
            sum += a[k] * p[colidx[k]];
        }
        w[j] = sum;
    }
}
`

// TestCGClassical: the CG sparse matvec gathers through colidx but writes
// w[j] densely — classical analysis parallelizes the outer loop.
func TestCGClassical(t *testing.T) {
	d := analyzeLoop(t, cgSrc, "", "matvec", 1, phase2.LevelClassical)
	if !d.Parallel {
		t.Fatalf("CG matvec should parallelize classically: %s", d.Reason)
	}
	if len(d.RuntimeChecks) != 0 {
		t.Errorf("no runtime check expected: %v", d.RuntimeChecks)
	}
}

const syrkSrc = `
void syrk(int n, int m, double alpha, double beta, double C[][1200], double A[][1000]) {
    int i, j, k;
    for (i = 0; i < n; i++) {
        for (j = 0; j <= i; j++)
            C[i][j] = C[i][j] * beta;
        for (k = 0; k < m; k++) {
            for (j = 0; j <= i; j++)
                C[i][j] = C[i][j] + alpha * A[i][k] * A[j][k];
        }
    }
}
`

// TestSyrkClassical: dense affine writes C[i][j] parallelize classically
// on the i loop.
func TestSyrkClassical(t *testing.T) {
	d := analyzeLoop(t, syrkSrc, "", "syrk", 1, phase2.LevelClassical)
	if !d.Parallel {
		t.Fatalf("syrk i-loop should parallelize classically: %s", d.Reason)
	}
}

const isSrc = `
void rank(int n, int *key_array, int *key_buff) {
    int i;
    for (i = 0; i < n; i++) {
        key_buff[key_array[i]] = key_buff[key_array[i]] + 1;
    }
}
`

// TestISFailsAllLevels: the IS histogram has genuinely colliding updates;
// no level may parallelize it.
func TestISFailsAllLevels(t *testing.T) {
	for _, level := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase, phase2.LevelNew} {
		d := analyzeLoop(t, isSrc, "", "rank", 1, level)
		if d.Parallel {
			t.Fatalf("%s must not parallelize the IS histogram", level)
		}
	}
}

// TestScalarDependenceBlocks: a genuine cross-iteration scalar recurrence
// blocks parallelization.
func TestScalarDependenceBlocks(t *testing.T) {
	src := `
void f(int n, double *a) {
    int i;
    double s;
    s = 0.0;
    for (i = 0; i < n; i++) {
        a[i] = s;
        s = s * 0.5 + a[i];
    }
}
`
	d := analyzeLoop(t, src, "", "f", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("scalar recurrence must block")
	}
	if !strings.Contains(d.Reason, `"s"`) && !strings.Contains(d.Reason, "a[") {
		t.Errorf("reason: %s", d.Reason)
	}
}

// TestScalarWriteInConditionBlocks: a ++ or -- left in an inner loop's
// condition writes its scalar on every test, so the outer loop carries
// a dependence on it, at every level. m also sizes the outer loop: run
// in parallel, it made 8 trips where C makes 4.
func TestScalarWriteInConditionBlocks(t *testing.T) {
	for _, inner := range []string{
		"for (j = 0; m++ < 0; j++) { }",
		"j = 0; while (m-- > 0) { j = j + 1; }",
	} {
		src := `
void f(int n, double *out) {
    int i, j, m, c;
    m = 0;
    c = 0;
    for (i = 0; i < 8 - m; i++) { ` + inner + ` c = c + 1; }
    out[0] = c;
}
`
		for _, level := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase, phase2.LevelNew} {
			d := analyzeLoop(t, src, "", "f", 1, level)
			if d.Parallel || !strings.Contains(d.Reason, `"m"`) {
				t.Errorf("%s, %s: parallel %v, reason %q; want serial on m", inner, level, d.Parallel, d.Reason)
			}
		}
	}
}

// TestWritesElementIncrementBlocks: a ++ on an element in an inner
// loop's condition reads and writes that element on every test, so the
// outer loop carries a dependence on it, at every level.
func TestWritesElementIncrementBlocks(t *testing.T) {
	src := `
void f(int n, int *cnt, double *out) {
    int i, j;
    for (i = 0; i < n; i++) { for (j = 0; cnt[0]++ < 3; j++) { } out[i] = 1; }
}
`
	for _, level := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase, phase2.LevelNew} {
		d := analyzeLoop(t, src, "", "f", 1, level)
		if d.Parallel || !strings.Contains(d.Reason, `"cnt"`) {
			t.Errorf("%s: parallel %v, reason %q; want serial on cnt", level, d.Parallel, d.Reason)
		}
	}
}

// TestInnerLoopDropsCopies: a copy made before an inner loop that
// changes the copied scalar says nothing about its value in the loop's
// body or after it. Iteration i writes a[i] to a[i + 9], so the outer
// loop carries a dependence on a, at every level.
func TestInnerLoopDropsCopies(t *testing.T) {
	src := `
void f(int n, int *a) {
    int i, j, m;
    for (i = 0; i < n; i++) { m = i; for (j = 0; j < 10; j++) { a[m] = i; m = m + 1; } }
}
`
	for _, level := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase, phase2.LevelNew} {
		d := analyzeLoop(t, src, "", "f", 1, level)
		if d.Parallel || !strings.Contains(d.Reason, `"a"`) {
			t.Errorf("%s: parallel %v, reason %q; want serial on a", level, d.Parallel, d.Reason)
		}
	}
}

// TestStencilShiftBlocks: a[i] = a[i+1] has a cross-iteration dependence.
func TestStencilShiftBlocks(t *testing.T) {
	src := `
void f(int n, double *a) {
    int i;
    for (i = 0; i < n-1; i++) {
        a[i] = a[i+1];
    }
}
`
	d := analyzeLoop(t, src, "", "f", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("shifted stencil must block")
	}
}

// TestTwoArrayStencilParallel: the Jacobi pattern B[i] = f(A[i-1..i+1])
// parallelizes (different arrays).
func TestTwoArrayStencilParallel(t *testing.T) {
	src := `
void f(int n, double *a, double *b) {
    int i;
    for (i = 1; i < n-1; i++) {
        b[i] = 0.33 * (a[i-1] + a[i] + a[i+1]);
    }
}
`
	d := analyzeLoop(t, src, "", "f", 1, phase2.LevelClassical)
	if !d.Parallel {
		t.Fatalf("Jacobi stencil should parallelize: %s", d.Reason)
	}
}

// TestBlockedRowsParallel: A[i*10+j] with j in [0:9] parallelizes (stride
// out-runs the inner width), while j in [0:10] does not.
func TestBlockedRowsParallel(t *testing.T) {
	okSrc := `
void f(int n, double *a) {
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < 10; j++) {
            a[i*10 + j] = 1.0;
        }
    }
}
`
	d := analyzeLoop(t, okSrc, "", "f", 1, phase2.LevelClassical)
	if !d.Parallel {
		t.Fatalf("blocked rows should parallelize: %s", d.Reason)
	}
	badSrc := `
void f(int n, double *a) {
    int i, j;
    for (i = 0; i < n; i++) {
        for (j = 0; j < 11; j++) {
            a[i*10 + j] = 1.0;
        }
    }
}
`
	d = analyzeLoop(t, badSrc, "", "f", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("overlapping blocked rows must block")
	}
}

// TestRuntimeCheckEvaluates: the emitted check is a well-formed condition.
func TestRuntimeCheckEvaluates(t *testing.T) {
	d := analyzeLoop(t, amgSrc, "fill", "kernel", 1, phase2.LevelNew)
	if len(d.RuntimeChecks) != 1 {
		t.Fatalf("checks: %v", d.RuntimeChecks)
	}
	env := &symbolic.Env{Vars: map[string]int64{"num_rownnz": 50, "irownnz_max": 80}}
	ok, err := symbolic.EvalBool(d.RuntimeChecks[0], env)
	if err != nil || !ok {
		t.Errorf("check should pass for 49<=80: ok=%v err=%v", ok, err)
	}
	env.Vars["irownnz_max"] = 10
	ok, _ = symbolic.EvalBool(d.RuntimeChecks[0], env)
	if ok {
		t.Error("check should fail for 49<=10")
	}
}

// TestGCDDisjoint: interleaved even/odd accesses never collide (GCD
// test), while same-parity shifted accesses do.
func TestGCDDisjoint(t *testing.T) {
	okSrc := `
void f(int n, double *a) {
    int i;
    for (i = 0; i < n; i++) {
        a[2*i] = a[2*i + 1] * 0.5;
    }
}
`
	d := analyzeLoop(t, okSrc, "", "f", 1, phase2.LevelClassical)
	if !d.Parallel {
		t.Fatalf("even/odd interleave should parallelize: %s", d.Reason)
	}
	badSrc := `
void f(int n, double *a) {
    int i;
    for (i = 0; i < n; i++) {
        a[2*i] = a[2*i + 2] * 0.5;
    }
}
`
	d = analyzeLoop(t, badSrc, "", "f", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("same-parity shift must block")
	}
}

const scatterIdentitySrc = `
void fill(int n, int *p) {
    int i;
    for (i = 0; i < n; i++) {
        p[i] = i;
    }
}
void kernel(int n, int *p, double *a, double *b) {
    int i;
    for (i = 0; i < n; i++) {
        a[p[i]] = a[p[i]] + b[i];
    }
}
`

// TestScatterIdentityKernel: a[p[i]] scatter writes through an
// identity-filled p. The strict SRA fact already implies injectivity, so
// the Base level parallelizes; at the New level the permutation upgrade
// is the strongest fact in the lattice and is the one consumed.
func TestScatterIdentityKernel(t *testing.T) {
	d := analyzeLoop(t, scatterIdentitySrc, "fill", "kernel", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("classical must not parallelize the scatter")
	}
	d = analyzeLoop(t, scatterIdentitySrc, "fill", "kernel", 1, phase2.LevelBase)
	if !d.Parallel {
		t.Fatalf("base should parallelize via the strict SRA fact: %s", d.Reason)
	}
	d = analyzeLoop(t, scatterIdentitySrc, "fill", "kernel", 1, phase2.LevelNew)
	if !d.Parallel {
		t.Fatalf("new should parallelize: %s", d.Reason)
	}
	if len(d.UsedProperties) == 0 || !strings.Contains(d.UsedProperties[0], "#PERM") {
		t.Errorf("new level should consume the permutation fact: %v", d.UsedProperties)
	}
}

const scatterShuffleSrc = `
void fill(int n, int *p) {
    int i, t;
    for (i = 0; i < n; i++) {
        p[i] = i;
    }
    for (i = 0; i < n; i++) {
        t = p[i];
        p[i] = p[n-1-i];
        p[n-1-i] = t;
    }
}
void kernel(int n, int *p, double *a, double *b) {
    int i;
    for (i = 0; i < n; i++) {
        a[p[i]] = a[p[i]] + b[i];
    }
}
`

// TestScatterShuffleKernel: the reversal swap loop destroys the
// monotonicity fact, so Base (which must conservatively invalidate)
// stays serial; the New level recognizes the in-section transposition
// loop, keeps the permutation fact, and parallelizes the scatter.
func TestScatterShuffleKernel(t *testing.T) {
	d := analyzeLoop(t, scatterShuffleSrc, "fill", "kernel", 1, phase2.LevelClassical)
	if d.Parallel {
		t.Fatal("classical must not parallelize the shuffled scatter")
	}
	d = analyzeLoop(t, scatterShuffleSrc, "fill", "kernel", 1, phase2.LevelBase)
	if d.Parallel {
		t.Fatal("base must invalidate the fact across the swap loop")
	}
	d = analyzeLoop(t, scatterShuffleSrc, "fill", "kernel", 1, phase2.LevelNew)
	if !d.Parallel {
		t.Fatalf("new should parallelize via the preserved permutation fact: %s", d.Reason)
	}
	if len(d.UsedProperties) == 0 || !strings.Contains(d.UsedProperties[0], "#PERM") {
		t.Errorf("should consume the permutation fact: %v", d.UsedProperties)
	}
}

const scatterInterleaveSrc = `
void fill(int n, int *p) {
    int i;
    for (i = 0; i < n; i++) {
        p[2*i] = i;
        p[2*i + 1] = n + i;
    }
}
void kernel(int n2, int *p, double *a, double *b) {
    int i;
    for (i = 0; i < n2; i++) {
        a[p[i]] = a[p[i]] + b[i];
    }
}
`

// TestScatterInterleaveKernel: the two-sequence interleaved fill is not
// monotonic (values jump between [0:n-1] and [n:2n-1]), so only the
// injectivity recognizer at the New level can prove the scatter safe.
func TestScatterInterleaveKernel(t *testing.T) {
	for _, level := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase} {
		d := analyzeLoop(t, scatterInterleaveSrc, "fill", "kernel", 1, level)
		if d.Parallel {
			t.Fatalf("%s must not parallelize the interleaved scatter", level)
		}
	}
	d := analyzeLoop(t, scatterInterleaveSrc, "fill", "kernel", 1, phase2.LevelNew)
	if !d.Parallel {
		t.Fatalf("new should parallelize via the injectivity fact: %s", d.Reason)
	}
	if len(d.UsedProperties) == 0 || !strings.Contains(d.UsedProperties[0], "#PERM") {
		t.Errorf("interleave tiles [0:2n-1] exactly, expected the permutation fact: %v", d.UsedProperties)
	}
}

// TestScatterNearMissesStaySerial: adversarial variants of the scatter
// pattern must stay serial at every level — each breaks one recognizer
// obligation.
func TestScatterNearMissesStaySerial(t *testing.T) {
	kern := `
void kernel(int n, int *p, double *a, double *b) {
    int i;
    for (i = 0; i < n; i++) {
        a[p[i]] = a[p[i]] + b[i];
    }
}
`
	cases := []struct {
		name string
		fill string
	}{
		{"duplicate-values-div", `
void fill(int n, int *p) {
    int i;
    for (i = 0; i < n; i++) {
        p[i] = i / 2;
    }
}
`},
		{"write-after-fill", `
void fill(int n, int *p) {
    int i;
    for (i = 0; i < n; i++) {
        p[i] = i;
    }
    p[0] = 3;
}
`},
		{"out-of-section-swap", `
void fill(int n, int *p) {
    int i, t;
    for (i = 0; i < n; i++) {
        p[i] = i;
    }
    for (i = 0; i < n; i++) {
        t = p[i];
        p[i] = p[i + n];
        p[i + n] = t;
    }
}
`},
		{"cross-array-swap", `
void fill(int n, int *p, int *q) {
    int i, t;
    for (i = 0; i < n; i++) {
        p[i] = i;
    }
    for (i = 0; i < n; i++) {
        t = p[i];
        p[i] = q[i];
        q[i] = t;
    }
}
`},
	}
	for _, tc := range cases {
		for _, level := range []phase2.Level{phase2.LevelBase, phase2.LevelNew} {
			d := analyzeLoop(t, tc.fill+kern, "fill", "kernel", 1, level)
			if d.Parallel {
				t.Errorf("%s at %s: near-miss scatter must stay serial (used %v)",
					tc.name, level, d.UsedProperties)
			}
		}
	}
}

// TestUAPinnedClassification pins the UA gather/scatter decision against
// accidental flips by the injectivity lattice: idel is 4-dimensional, so
// the 1-D injectivity recognizer must not claim it, and the decision
// must keep consuming the multi-dimensional SMA fact (as asserted in
// TestUAKernel), not an INJ/PERM fact.
func TestUAPinnedClassification(t *testing.T) {
	prog := cminus.MustParse(uaSrc)
	fa := phase2.AnalyzeFunc(prog.Func("fill"), phase2.LevelNew, nil)
	for _, p := range fa.Props.Lookup("idel") {
		if p.Kind == property.KindInjective || p.Kind == property.KindPermutation {
			t.Fatalf("idel must not get a 1-D injectivity fact: %s", p)
		}
	}
	if p := fa.Props.BestMonotone("idel"); p == nil || p.Kind != property.KindMultiDim || !p.Strict {
		t.Fatalf("idel must keep its multi-dim SMA fact: %v", fa.Props.String())
	}
	d := analyzeLoop(t, uaSrc, "fill", "kernel", 1, phase2.LevelNew)
	if !d.Parallel {
		t.Fatalf("UA must still parallelize: %s", d.Reason)
	}
	for _, u := range d.UsedProperties {
		if strings.Contains(u, "#INJ") || strings.Contains(u, "#PERM") {
			t.Errorf("UA decision must rest on the SMA fact, got %v", d.UsedProperties)
		}
	}
}

// nonlinearSrc writes through a subscript cubic in the loop index. Its
// values at i = 0, 1 and 2 (0, 6, 12) lie on the line 6*i, but at
// i = 0..4 it takes 0, 6, 12, 12, 0: iterations 2 and 3, and 0 and 4,
// touch the same element.
const nonlinearSrc = `
void scatter(int n, double *a, double *b) {
    int i;
    for (i = 0; i < n; i++) {
        a[6*i - i*(i-1)*(i-2)] = b[i];
    }
}
void update(int n, double *a) {
    int i;
    for (i = 0; i < n; i++) {
        a[6*i - i*(i-1)*(i-2)] = a[6*i - i*(i-1)*(i-2)] + 1.0;
    }
}
`

// TestNonlinearSubscriptSerial: a subscript that is not linear in the
// loop index keeps the loop serial at every level, a write alone and a
// read-modify-write alike.
func TestNonlinearSubscriptSerial(t *testing.T) {
	for _, kern := range []string{"scatter", "update"} {
		for _, level := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase, phase2.LevelNew} {
			if d := analyzeLoop(t, nonlinearSrc, "", kern, 1, level); d.Parallel {
				t.Errorf("%s at %s: parallel, want serial", kern, level)
			}
		}
	}
}
