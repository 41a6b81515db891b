package parallelize

import (
	"testing"

	"repro/internal/cminus"
	"repro/internal/normalize"
)

// TestWorkEstimate pins the work estimate (workOf, Work) of the outermost loop
// of f, normalized, for each rule: a unit per assignment, operator,
// array access and builtin call, both arms of an if, inner loops times
// their counts, and the shapes that leave the estimate unknown ("").
func TestWorkEstimate(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		// i < n is 1 unit, i = i + 1 is 2; a[i] = b[i] * 2.0 + 1.0 is the
		// assignment, two accesses and two operators.
		{"flat", `for (i = 0; i < n; i++) a[i] = b[i] * 2.0 + 1.0;`,
			"n * 8.0"},
		{"nested counts", `for (i = 0; i < n; i++) { for (j = 0; j < m; j++) { for (l = 0; l < q; l++) c[i][j] = c[i][j] + 1.0; } }`,
			"n * (4.0 + (m > 0 ? m : 0) * (4.0 + (q > 0 ? q : 0) * 7.0))"},
		// A literal count folds into the units: 3 + 1 + 4 * (3 + 2).
		{"literal count", `for (i = 0; i < n; i++) { for (j = 0; j < 4; j++) c[i][j] = 0.0; }`,
			"n * 24.0"},
		{"shifted bounds", `for (i = 1; i < n - 1; i++) { for (j = 2; j <= m; j++) c[i][j] = 0.0; }`,
			"(n - 1 - 1) * (6.0 + (m - 2 + 1 > 0 ? m - 2 + 1 : 0) * 9.0)"},
		// The region's index reads as its mean (n - 1) * 0.5.
		{"index in count", `for (i = 0; i < n; i++) { for (j = 0; j <= i; j++) c[i][j] = 0.0; }`,
			"n * (4.0 + ((n - 1) * 0.5 + 1 > 0 ? (n - 1) * 0.5 + 1 : 0) * 6.0)"},
		{"falling count", `for (i = 0; i < n; i++) { for (j = i + 1; j < n; j++) c[i][j] = 0.0; }`,
			"n * (4.0 + (n - ((n - 1) * 0.5 + 1) > 0 ? n - ((n - 1) * 0.5 + 1) : 0) * 9.0)"},
		{"outer scalar in count", `for (i = 0; i < n; i++) { for (j = 0; j < n - k; j++) c[i][j] = 0.0; }`,
			"n * (4.0 + (n - k > 0 ? n - k : 0) * 6.0)"},
		// Both arms: the condition's 2, then 2 and 5.
		{"if arms", `for (i = 0; i < n; i++) { if (b[i] > 0.0) a[i] = 1.0; else a[i] = b[i] * b[i]; }`,
			"n * 12.0"},
		{"builtin", `for (i = 0; i < n; i++) a[i] = sqrt(b[i]);`,
			"n * 7.0"},
		{"count reads array", `for (i = 0; i < n; i++) { for (j = p[i]; j < p[i + 1]; j++) a[j] = 0.0; }`,
			""},
		{"count divides", `for (i = 0; i < n; i++) { for (j = 0; j < m / 2; j++) c[i][j] = 0.0; }`,
			""},
		{"count over written scalar", `for (i = 0; i < n; i++) { k = i * 2; for (j = 0; j < k; j++) c[i][j] = 0.0; }`,
			""},
		{"count over declared scalar", `for (i = 0; i < n; i++) { int m; m = 3; for (j = 0; j < m; j++) c[i][j] = 0.0; }`,
			""},
		{"count over incremented scalar", `for (i = 0; i < n; i++) { for (j = 0; j < m; j++) c[i][j] = 0.0; k++; for (j = 0; j < k; j++) c[i][j] = 0.0; }`,
			""},
		{"while", `for (i = 0; i < n; i++) { j = 0; while (j < m) { c[i][j] = 0.0; j++; } }`,
			""},
		{"user call", `for (i = 0; i < n; i++) a[i] = g(b[i]);`,
			""},
		{"region count reads array", `for (i = 0; i < p[0]; i++) a[i] = 0.0;`,
			""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lp := estimateOf(t, tc.body)
			got := ""
			if lp.Work != nil {
				got = cminus.PrintExpr(lp.Work.expr())
			}
			if got != tc.want {
				t.Errorf("estimate\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestDeclines pins the condition engines evaluate: a fresh copy of the
// estimate below MinWork, or nil when the estimate is unknown or reads a
// name unbound at the loop.
func TestDeclines(t *testing.T) {
	lp := estimateOf(t, `for (i = 0; i < n; i++) { for (j = 0; j < m; j++) c[i][j] = 0.0; }`)
	all := func(string) bool { return true }
	cond := lp.Declines(all)
	const want = "n * (4.0 + (m > 0 ? m : 0) * 5.0) < 12288.0"
	if got := cminus.PrintExpr(cond); got != want {
		t.Fatalf("Declines = %q, want %q", got, want)
	}
	cond.(*cminus.BinaryExpr).X.(*cminus.BinaryExpr).X.(*cminus.Ident).Name = "changed"
	if got := cminus.PrintExpr(lp.Declines(all)); got != want {
		t.Errorf("a changed copy changed the estimate: %q", got)
	}
	if c := lp.Declines(func(name string) bool { return name != "m" }); c != nil {
		t.Errorf("unbound m: Declines = %q, want nil", cminus.PrintExpr(c))
	}
	lp.Work = nil
	if c := lp.Declines(all); c != nil {
		t.Errorf("unknown estimate: Declines = %q, want nil", cminus.PrintExpr(c))
	}
}

// estimateOf normalizes a function f whose body is the given loop and
// returns a plan for its outermost loop carrying workOf's estimate.
func estimateOf(t *testing.T, loop string) *LoopPlan {
	t.Helper()
	src := `double g(double x) { return x; }
void f(int n, int m, int q, int k, double *a, double *b, double c[][100], int *p) {
    int i, j, l;
    ` + loop + `
}`
	prog, err := cminus.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	norm := normalize.Func(prog.Func("f"))
	for _, s := range norm.Func.Body.Stmts {
		if fs, ok := s.(*cminus.ForStmt); ok {
			return &LoopPlan{Label: fs.Label, Chosen: true, Work: workOf(fs, norm.Loops)}
		}
	}
	t.Fatal("no loop")
	return nil
}
