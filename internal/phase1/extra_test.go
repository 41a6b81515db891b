package phase1

import (
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/normalize"
	"repro/internal/symbolic"
)

// TestTernaryValue: a conditional expression produces a tagged union.
func TestTernaryValue(t *testing.T) {
	src := `
void f(int n, int *c) {
    int i, x;
    x = 0;
    for (i = 0; i < n; i++) {
        x = c[i] > 0 ? 1 : 2;
    }
}
`
	res, _ := analyze(t, src, "f")
	x := res.Final.Scalars["x"]
	tags := symbolic.TaggedParts(x)
	if len(tags) != 2 {
		t.Fatalf("x = %s, want two tagged alternatives", x)
	}
}

// TestCastAndCallValues: casts pass through; pure calls become opaque
// Call atoms.
func TestCastAndCallValues(t *testing.T) {
	src := `
void f(int n, int *a) {
    int i, x, y;
    x = 0;
    y = 0;
    for (i = 0; i < n; i++) {
        x = (int)(i) + 1;
        y = abs(i - n);
    }
}
`
	res, _ := analyze(t, src, "f")
	if got := res.Final.Scalars["x"].String(); got != "1+i" {
		t.Errorf("x = %s", got)
	}
	if got := res.Final.Scalars["y"].String(); !strings.Contains(got, "abs(") {
		t.Errorf("y = %s", got)
	}
}

// TestNestedConditionConjunction: assignments under nested ifs get the
// conjunction of both conditions.
func TestNestedConditionConjunction(t *testing.T) {
	src := `
void f(int n, int *c, int *d) {
    int i, x;
    x = 0;
    for (i = 0; i < n; i++) {
        if (c[i] > 0) {
            if (d[i] > 0) {
                x = 1;
            }
        }
    }
}
`
	res, _ := analyze(t, src, "f")
	tags := symbolic.TaggedParts(res.Final.Scalars["x"])
	if len(tags) != 1 {
		t.Fatalf("x = %s", res.Final.Scalars["x"])
	}
	cond := tags[0].Cond.String()
	if !strings.Contains(cond, "c[i]>0") || !strings.Contains(cond, "d[i]>0") {
		t.Errorf("conjunction missing: %s", cond)
	}
}

// TestMultipleSubscriptsSameArrayKeptSeparate: two writes at unrelated
// symbolic subscripts stay as two write records.
func TestMultipleSubscriptsSameArrayKeptSeparate(t *testing.T) {
	src := `
void f(int n, int p, int q, int *a) {
    int i;
    for (i = 0; i < n; i++) {
        a[p] = i;
        a[q] = i;
    }
}
`
	res, _ := analyze(t, src, "f")
	if len(res.Final.Arrays["a"]) != 2 {
		t.Errorf("writes: %v", res.Final.Arrays["a"])
	}
}

// TestCollapsedArrayWriteApplied: array writes from a collapsed inner loop
// are recorded in the outer analysis with substitution.
func TestCollapsedArrayWriteApplied(t *testing.T) {
	src := `
void f(int n, int m, int *a) {
    int i, j, base;
    for (i = 0; i < n; i++) {
        base = 10*i;
        for (j = 0; j < m; j++) {
            a[base + j] = j;
        }
    }
}
`
	prog := cminus.MustParse(src)
	res := normalize.Func(prog.Func("f"))
	var outer *cminus.ForStmt
	cminus.WalkStmts(res.Func.Body, func(s cminus.Stmt) bool {
		if fs, ok := s.(*cminus.ForStmt); ok && outer == nil {
			outer = fs
		}
		return true
	})
	collapsed := map[string]*CollapsedLoop{
		"L2": {
			Label:   "L2",
			Scalars: map[string]symbolic.Expr{"j": symbolic.NewSym("m")},
			Arrays: map[string][]ArrayWrite{
				"a": {{
					Indices: []symbolic.Expr{symbolic.NewRange(
						symbolic.NewSym("base"),
						symbolic.AddExpr(symbolic.NewSym("base"), symbolic.SubExpr(symbolic.NewSym("m"), symbolic.One)),
					)},
					Value: symbolic.NewRange(symbolic.Zero, symbolic.SubExpr(symbolic.NewSym("m"), symbolic.One)),
				}},
			},
		},
	}
	out, err := Run(outer.Body, &Config{Meta: res.Loops["L1"], Collapsed: collapsed})
	if err != nil {
		t.Fatal(err)
	}
	ws := out.Final.Arrays["a"]
	if len(ws) != 1 {
		t.Fatalf("writes: %v", ws)
	}
	// base substituted with 10*i.
	if got := ws[0].Indices[0].String(); got != "[10*i:-1+10*i+m]" {
		t.Errorf("collapsed write index = %s", got)
	}
}

// TestWriteValueBottomRHS: a float RHS records ⊥ value (integer analysis
// only) without corrupting the subscript record.
func TestWriteValueBottomRHS(t *testing.T) {
	src := `
void f(int n, double *y) {
    int i;
    for (i = 0; i < n; i++) {
        y[i] = 0.5;
    }
}
`
	res, _ := analyze(t, src, "f")
	ws := res.Final.Arrays["y"]
	if len(ws) != 1 {
		t.Fatalf("writes: %v", ws)
	}
	if ws[0].Indices[0].String() != "i" {
		t.Errorf("subscript: %s", ws[0].Indices[0])
	}
	if !symbolic.IsBottom(ws[0].Value) {
		t.Errorf("value should be ⊥: %s", ws[0].Value)
	}
}
