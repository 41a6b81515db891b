package inline

import (
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

const appSrc = `
void fill(int num_rows, int *A_i, int *A_rownnz, int *count) {
    int irownnz = 0;
    int i, adiag;
    for (i = 0; i < num_rows; i++) {
        adiag = A_i[i+1] - A_i[i];
        if (adiag > 0)
            A_rownnz[irownnz++] = i;
    }
    count[0] = irownnz;
}
void scale(int n, double *y, double f) {
    int i;
    for (i = 0; i < n; i++) {
        y[i] = y[i] * f;
    }
}
void driver(int num_rows, int *A_i, int *A_rownnz, int *count, double *y) {
    fill(num_rows, A_i, A_rownnz, count);
    scale(num_rows, y, 0.5);
}
`

func TestExpandBindsAndRenames(t *testing.T) {
	prog := cminus.MustParse(appSrc)
	out := Expand(prog, 3)
	driver := out.Func("driver")
	src := cminus.Print(&cminus.Program{Funcs: []*cminus.FuncDecl{driver}})
	// The fill loop body must now live in driver, with renamed locals.
	for _, want := range []string{"A_rownnz[", "irownnz_inl1", "adiag_inl1", "y[", "f_inl2 = 0.5"} {
		if !strings.Contains(src, want) {
			t.Errorf("inlined driver missing %q:\n%s", want, src)
		}
	}
	// No call statements remain.
	if strings.Contains(src, "fill(") || strings.Contains(src, "scale(") {
		t.Errorf("calls not expanded:\n%s", src)
	}
	// Loop labels are unique.
	labels := map[string]bool{}
	cminus.WalkStmts(driver.Body, func(s cminus.Stmt) bool {
		if f, ok := s.(*cminus.ForStmt); ok {
			if labels[f.Label] {
				t.Errorf("duplicate label %s", f.Label)
			}
			labels[f.Label] = true
		}
		return true
	})
	// The result still parses.
	if _, err := cminus.Parse(cminus.Print(out)); err != nil {
		t.Errorf("inlined program does not reparse: %v", err)
	}
}

// TestInlinedSemanticsPreserved: the inlined driver computes the same
// results as the original.
func TestInlinedSemanticsPreserved(t *testing.T) {
	run := func(prog *cminus.Program) (int64, float64) {
		m, err := interp.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(50)
		ai := interp.NewIntArray("A_i", n+1)
		for i := int64(1); i <= n; i++ {
			ai.Ints[i] = ai.Ints[i-1] + (i % 3)
		}
		rownnz := interp.NewIntArray("A_rownnz", n)
		count := interp.NewIntArray("count", 1)
		y := interp.NewFloatArray("y", n)
		for i := range y.Flts {
			y.Flts[i] = float64(i)
		}
		if err := m.Call("driver", n, ai, rownnz, count, y); err != nil {
			t.Fatal(err)
		}
		var ysum float64
		for _, v := range y.Flts {
			ysum += v
		}
		return count.Ints[0], ysum
	}
	orig := cminus.MustParse(appSrc)
	c1, s1 := run(orig)
	c2, s2 := run(Expand(orig, 3))
	if c1 != c2 || s1 != s2 {
		t.Errorf("semantics changed: (%d,%g) vs (%d,%g)", c1, s1, c2, s2)
	}
}

// TestInlineEnablesIntraproceduralAnalysis: after inlining, the property
// of A_rownnz is established inside driver itself (the paper's stated
// reason for inline expansion).
func TestInlineEnablesIntraproceduralAnalysis(t *testing.T) {
	prog := Expand(cminus.MustParse(appSrc), 3)
	plan := parallelize.Run(prog, phase2.LevelNew, nil)
	fa := plan.Funcs["driver"].Analysis
	if fa.Props.BestMonotone("A_rownnz") == nil {
		t.Errorf("A_rownnz property should be derived inside driver:\n%s", fa.Props)
	}
}

// TestRecursionAndReturnsRejected.
func TestRecursionAndReturnsRejected(t *testing.T) {
	src := `
void rec(int n) { rec(n); }
int get(void) { return 3; }
void driver(int n) {
    rec(n);
}
`
	prog := cminus.MustParse(src)
	out := Expand(prog, 3)
	text := cminus.Print(out)
	if !strings.Contains(text, "rec(n)") {
		t.Error("self-recursive call must stay")
	}
}

// TestNonIdentifierArrayArgRejected: passing a non-identifier where an
// array is expected leaves the call alone.
func TestNonIdentifierArrayArgRejected(t *testing.T) {
	src := `
void g(int *a) { a[0] = 1; }
void driver(int *a) {
    g(a);
}
void driver2(void) {
    int b[10];
    g(b);
}
`
	prog := cminus.MustParse(src)
	out := Expand(prog, 2)
	text := cminus.Print(out)
	if strings.Contains(text, "g(a)") || strings.Contains(text, "g(b)") {
		t.Errorf("identifier array args should inline:\n%s", text)
	}
}

// TestNestedInlining: calls within inlined bodies expand up to the depth
// bound.
func TestNestedInlining(t *testing.T) {
	src := `
void leaf(int *a, int v) { a[0] = v; }
void mid(int *a, int v) { leaf(a, v + 1); }
void driver(int *a) { mid(a, 5); }
`
	prog := cminus.MustParse(src)
	out := Expand(prog, 3)
	text := cminus.Print(&cminus.Program{Funcs: []*cminus.FuncDecl{out.Func("driver")}})
	if strings.Contains(text, "leaf(") || strings.Contains(text, "mid(") {
		t.Errorf("nested calls should expand:\n%s", text)
	}
	// Semantics: a[0] = 6.
	m, _ := interp.New(out)
	a := interp.NewIntArray("a", 1)
	if err := m.Call("driver", a); err != nil {
		t.Fatal(err)
	}
	if a.Ints[0] != 6 {
		t.Errorf("a[0] = %d, want 6", a.Ints[0])
	}
}

// TestInlineRenamesOnce: each name of the callee is renamed once, in a
// loop's header as in its body, so swapped array arguments stay
// swapped: the post steps by b[0], the caller's array bound to a.
func TestInlineRenamesOnce(t *testing.T) {
	prog := cminus.MustParse(`
void g(int n, int *a, int *b) { int i; for (i = 0; i < n; i = i + a[0]) { b[i] = 1; } }
void f(int n, int *a, int *b) { g(n, b, a); }
`)
	src := cminus.Print(&cminus.Program{Funcs: []*cminus.FuncDecl{Expand(prog, 3).Func("f")}})
	for _, want := range []string{"i_inl1 = 0", "i_inl1 < n_inl1", "i_inl1 = i_inl1 + b[0]", "a[i_inl1] = 1"} {
		if !strings.Contains(src, want) {
			t.Errorf("inlined f lacks %q:\n%s", want, src)
		}
	}
}
