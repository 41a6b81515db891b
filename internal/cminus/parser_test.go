package cminus

import (
	"fmt"
	"strings"
	"testing"
)

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

func TestParseAMGFill(t *testing.T) {
	prog, err := Parse(amgFillSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("fill")
	if fn == nil {
		t.Fatal("missing function fill")
	}
	if len(fn.Params) != 3 {
		t.Fatalf("params: %d", len(fn.Params))
	}
	if fn.Params[1].PtrDeep != 1 {
		t.Errorf("A_i should be a pointer param")
	}
	// Find the for loop.
	var loop *ForStmt
	WalkStmts(fn.Body, func(s Stmt) bool {
		if f, ok := s.(*ForStmt); ok && loop == nil {
			loop = f
		}
		return true
	})
	if loop == nil {
		t.Fatal("no for loop found")
	}
	if loop.Label != "L1" {
		t.Errorf("label: %s", loop.Label)
	}
	if len(loop.Body.Stmts) != 2 {
		t.Errorf("loop body statements: %d", len(loop.Body.Stmts))
	}
	ifs, ok := loop.Body.Stmts[1].(*IfStmt)
	if !ok {
		t.Fatalf("expected if, got %T", loop.Body.Stmts[1])
	}
	// The if body holds A_rownnz[irownnz++] = i;
	as, ok := ifs.Then.Stmts[0].(*AssignStmt)
	if !ok {
		t.Fatalf("expected assignment, got %T", ifs.Then.Stmts[0])
	}
	name, idx, ok := ArrayBase(as.LHS)
	if !ok || name != "A_rownnz" || len(idx) != 1 {
		t.Fatalf("lhs array: %v %v %v", name, idx, ok)
	}
	u, ok := idx[0].(*UnaryExpr)
	if !ok || u.Op != "++" || !u.Postfix {
		t.Fatalf("expected postfix ++, got %s", PrintExpr(idx[0]))
	}
}

func TestParseMultiDim(t *testing.T) {
	src := `
void transf(int idel[][6][5][5]) {
    int iel, j, i, ntemp;
    for (iel = 0; iel < 100; iel++) {
        ntemp = 125 * iel;
        for (j = 0; j < 5; j++) {
            for (i = 0; i < 5; i++) {
                idel[iel][0][j][i] = ntemp + i*5 + j*25 + 4;
            }
        }
    }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("transf")
	if len(fn.Params[0].Dims) != 4 {
		t.Fatalf("dims: %d", len(fn.Params[0].Dims))
	}
	var assign *AssignStmt
	WalkStmts(fn.Body, func(s Stmt) bool {
		if a, ok := s.(*AssignStmt); ok {
			assign = a
		}
		return true
	})
	name, idx, ok := ArrayBase(assign.LHS)
	if !ok || name != "idel" || len(idx) != 4 {
		t.Fatalf("got %s with %d indices", name, len(idx))
	}
}

func TestParsePragma(t *testing.T) {
	src := `
void f(int n, double *y) {
    int i;
    #pragma omp parallel for private(i)
    for (i = 0; i < n; i++) {
        y[i] = 0.0;
    }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ForStmt
	WalkStmts(prog.Func("f").Body, func(s Stmt) bool {
		if f, ok := s.(*ForStmt); ok {
			loop = f
		}
		return true
	})
	if len(loop.Pragmas) != 1 || !strings.Contains(loop.Pragmas[0], "omp parallel for") {
		t.Fatalf("pragmas: %v", loop.Pragmas)
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `void f(int a, int b, int c) { int x; x = a + b * c; x = (a + b) * c; x = a < b && b < c; }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("f").Body
	a1 := body.Stmts[1].(*AssignStmt)
	if got := PrintExpr(a1.RHS); got != "a + b * c" {
		t.Errorf("got %q", got)
	}
	a2 := body.Stmts[2].(*AssignStmt)
	if got := PrintExpr(a2.RHS); got != "(a + b) * c" {
		t.Errorf("got %q", got)
	}
	a3 := body.Stmts[3].(*AssignStmt)
	be, ok := a3.RHS.(*BinaryExpr)
	if !ok || be.Op != "&&" {
		t.Errorf("got %q", PrintExpr(a3.RHS))
	}
}

func TestParseCompoundAssignAndTernary(t *testing.T) {
	src := `void f(int n) { int x = 0; x += n; x -= 2; x *= 3; x = n > 0 ? n : -n; }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("f").Body
	if as := body.Stmts[1].(*AssignStmt); as.Op != "+" {
		t.Errorf("op: %q", as.Op)
	}
	if _, ok := body.Stmts[4].(*AssignStmt).RHS.(*CondExpr); !ok {
		t.Error("expected ternary")
	}
}

func TestParseComments(t *testing.T) {
	src := `
// line comment
void f(void) { /* block
comment */ int x = 1; }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Func("f").Body.Stmts) != 1 {
		t.Error("comment handling broke the body")
	}
}

func TestParseGlobalsAndPrototypes(t *testing.T) {
	src := `
int N = 1000;
double A[100][100];
void helper(int x);
void f(void) { helper(N); }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Globals) != 2 {
		t.Fatalf("globals: %d", len(prog.Globals))
	}
	if prog.Globals[1].Items[0].Name != "A" || len(prog.Globals[1].Items[0].Dims) != 2 {
		t.Error("array global broken")
	}
	if len(prog.Funcs) != 2 {
		t.Fatalf("funcs: %d", len(prog.Funcs))
	}
	if prog.Func("helper").Body != nil {
		t.Error("prototype should have nil body")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`void f( { }`,
		`void f(void) { } int g(int n); void f(int n) { }`,
		`void f(int n) { int a[2] = n; }`,
		`void f(int *q) { int *p = q; }`,
		`void f(void) { x = ; }`,
		`void f(void) { if x > 0 {} }`,
		`xyz`,
		`void f(void) { for (i = 0 i < n; i++) {} }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestParseFloatLiterals: the parser reads a float literal once, with
// Go's strconv.ParseFloat. It refuses a malformed literal and one that
// overflows a double, each with its position, and keeps an underflow
// (0 or a subnormal) and the literal's text.
// TestParseRejectsTargets: the target of =, op=, ++ and -- must be a
// name or an array element; anything else fails at its statement or its
// operator, before any engine or analysis sees it.
func TestParseRejectsTargets(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"*p = i;", "cminus: 1:38: cannot assign to *p"},
		{"i + 1 = 3;", "cminus: 1:38: cannot assign to i + 1"},
		{"i * 2 += 3;", "cminus: 1:38: cannot assign to i * 2"},
		{"(p[0] + 1)++;", "cminus: 1:48: cannot assign to p[0] + 1"},
		{"--(i - 1);", "cminus: 1:38: cannot assign to i - 1"},
		{"p[i] = -(i++);", ""},
		{"p[p[0]--] += 1;", ""},
	} {
		_, err := Parse("void f(int i, int *p, double *out) { " + c.src + " }")
		if got := fmt.Sprint(err); c.want == "" && err != nil || c.want != "" && got != c.want {
			t.Errorf("%s: error %v, want %q", c.src, err, c.want)
		}
	}
}

func TestParseFloatLiterals(t *testing.T) {
	lit := func(src string) (*FloatLit, error) {
		prog, err := Parse("void f(double *out) { out[0] = " + src + "; }")
		if err != nil {
			return nil, err
		}
		return prog.Funcs[0].Body.Stmts[0].(*AssignStmt).RHS.(*FloatLit), nil
	}
	for _, c := range []struct {
		src  string
		val  float64
		text string
	}{
		{"1.5", 1.5, "1.5"},
		{"2.5f", 2.5, "2.5"},
		{"1e308", 1e308, "1e308"},
		{"5e-324", 5e-324, "5e-324"},
		{"1e-400", 0, "1e-400"},
		{".5", 0.5, ".5"},
		{"1.e2", 100, "1.e2"},
	} {
		x, err := lit(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if x.Val != c.val || x.Text != c.text {
			t.Errorf("%s: value %v text %q, want %v %q", c.src, x.Val, x.Text, c.val, c.text)
		}
	}
	for _, c := range []struct{ src, want string }{
		{"1.2.3", `cminus: 1:32: bad float "1.2.3": strconv.ParseFloat: parsing "1.2.3": invalid syntax`},
		{"1e400", `cminus: 1:32: bad float "1e400": strconv.ParseFloat: parsing "1e400": value out of range`},
		{"-1e309", `cminus: 1:33: bad float "1e309": strconv.ParseFloat: parsing "1e309": value out of range`},
	} {
		if _, err := lit(c.src); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.src, err, c.want)
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	// Printing then reparsing must produce the same printed form.
	srcs := []string{amgFillSrc,
		`void g(int n, int *a) { int i; for (i = 0; i < n; i++) { if (a[i] > 0) { a[i] = -a[i]; } else { a[i] = 0; } } }`,
		`void h(int n) { int i = 0; while (i < n) { i = i + 1; } }`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		out1 := Print(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, out1)
		}
		out2 := Print(p2)
		if out1 != out2 {
			t.Errorf("round trip mismatch:\n%s\nvs\n%s", out1, out2)
		}
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := Tokenize("123 0x1F 1.5 1e3 2.5e-2 10L 3.0f")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokInt, TokInt, TokFloat, TokFloat, TokFloat, TokInt, TokFloat}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q): kind %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestLexerCharLiteral(t *testing.T) {
	toks, err := Tokenize("'a' '\\n'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokInt || toks[0].Text != "97" {
		t.Errorf("got %+v", toks[0])
	}
	if toks[1].Text != "10" {
		t.Errorf("got %+v", toks[1])
	}
}

func TestSizeofIsOpaque(t *testing.T) {
	src := `void f(void) { int x; x = sizeof(double) * 4; }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	as := prog.Func("f").Body.Stmts[1].(*AssignStmt)
	if got := PrintExpr(as.RHS); got != "8 * 4" {
		t.Errorf("got %q", got)
	}
}

func TestParseNestingCap(t *testing.T) {
	// Pathological nesting must yield a parse error, not a stack overflow:
	// the parser is the only recursive walker that sees raw input, and a
	// Go stack overflow is fatal.
	cases := map[string]string{
		"parens":  `void f(void) { int x; x = ` + strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000) + `; }`,
		"unary":   `void f(void) { int x; x = ` + strings.Repeat("-", 5000) + `1; }`,
		"blocks":  `void f(void) { ` + strings.Repeat("{", 5000) + strings.Repeat("}", 5000) + ` }`,
		"ternary": `void f(void) { int x; x = ` + strings.Repeat("1 ? 1 : ", 5000) + `1; }`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: deep nesting parsed without error", name)
		} else if !strings.Contains(err.Error(), "nesting too deep") {
			t.Errorf("%s: got error %v, want nesting cap", name, err)
		}
	}
	// Ordinary nesting stays well inside the cap.
	ok := `void f(void) { int x; x = ((((1 + 2)))) * -(-3); if (x) { { x = 1 ? 2 : 3; } } }`
	if _, err := Parse(ok); err != nil {
		t.Errorf("ordinary nesting rejected: %v", err)
	}
}
