package phase1

import (
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/normalize"
	"repro/internal/symbolic"
)

// analyze normalizes f's first top-level loop and runs Phase 1 on it.
func analyze(t *testing.T, src, fname string) (*Result, *normalize.LoopMeta) {
	t.Helper()
	prog := cminus.MustParse(src)
	fn := prog.Func(fname)
	if fn == nil {
		t.Fatalf("no function %s", fname)
	}
	res := normalize.Func(fn)
	var loop *cminus.ForStmt
	cminus.WalkStmts(res.Func.Body, func(s cminus.Stmt) bool {
		if fs, ok := s.(*cminus.ForStmt); ok && loop == nil {
			loop = fs
			return false
		}
		return true
	})
	if loop == nil {
		t.Fatal("no loop")
	}
	meta := res.Loops[loop.Label]
	if !meta.Eligible {
		t.Fatalf("loop ineligible: %s", meta.Reason)
	}
	out, err := Run(loop.Body, &Config{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	return out, meta
}

// TestFig5SVD reproduces the paper's Figure 5: the final SVD of the
// normalized Figure 4(b) loop must record
//
//	ind[m] = [λ_ind, ⟨j⟩],  m = [λ_m, ⟨1+λ_m⟩]
func TestFig5SVD(t *testing.T) {
	src := `
void f(int npts, double *xdos, double t, double width, int *ind) {
    int m = 0;
    int j;
    for (j = 0; j < npts; j++) {
        if ((xdos[j] - t) < width)
            ind[m++] = j;
    }
}
`
	res, _ := analyze(t, src, "f")
	final := res.Final

	// m = {λ_m, ⟨1+λ_m⟩}
	m := final.Scalars["m"]
	set, ok := m.(symbolic.Set)
	if !ok || len(set.Items) != 2 {
		t.Fatalf("m = %s, want a 2-element set", m)
	}
	var sawPlain, sawTagged bool
	for _, it := range set.Items {
		if symbolic.Equal(it, symbolic.NewLambda("m")) {
			sawPlain = true
		}
		if tg, ok := it.(symbolic.Tagged); ok && symbolic.Equal(tg.E, symbolic.AddExpr(symbolic.One, symbolic.NewLambda("m"))) {
			sawTagged = true
		}
	}
	if !sawPlain || !sawTagged {
		t.Errorf("m = %s, want {λ_m, ⟨1+λ_m⟩}", m)
	}

	// ind writes: single write at subscript λ_m with value {λ_ind, ⟨j⟩}.
	ws := final.Arrays["ind"]
	if len(ws) != 1 {
		t.Fatalf("ind writes: %v", ws)
	}
	if len(ws[0].Indices) != 1 || !symbolic.Equal(ws[0].Indices[0], symbolic.NewLambda("m")) {
		t.Errorf("ind subscript = %s, want λ_m", ws[0].Indices[0])
	}
	vset, ok := ws[0].Value.(symbolic.Set)
	if !ok || len(vset.Items) != 2 {
		t.Fatalf("ind value = %s", ws[0].Value)
	}
	var sawOld, sawJ bool
	for _, it := range vset.Items {
		if symbolic.Equal(it, symbolic.NewLambda("ind")) {
			sawOld = true
		}
		if tg, ok := it.(symbolic.Tagged); ok && symbolic.Equal(tg.E, symbolic.NewSym("j")) {
			sawJ = true
		}
	}
	if !sawOld || !sawJ {
		t.Errorf("ind value = %s, want [λ_ind, ⟨j⟩]", ws[0].Value)
	}

	// The tags on m's increment and ind's value must be equal.
	mTags := symbolic.TaggedParts(m)
	vTags := symbolic.TaggedParts(ws[0].Value)
	if len(mTags) != 1 || len(vTags) != 1 {
		t.Fatal("expected one tagged part each")
	}
	if !symbolic.Equal(mTags[0].Cond, vTags[0].Cond) {
		t.Errorf("tags differ: %s vs %s", mTags[0].Cond, vTags[0].Cond)
	}
}

// TestAMGFillSVD reproduces Section 3.1 Phase-1: adiag untagged,
// irownnz = [λ, ⟨1+λ⟩], A_rownnz[irownnz] = [λ, ⟨i⟩].
func TestAMGFillSVD(t *testing.T) {
	src := `
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
	res, _ := analyze(t, src, "fill")
	final := res.Final
	adiag := final.Scalars["adiag"]
	want := symbolic.SubExpr(
		symbolic.ArrayRef{Name: "A_i", Indices: []symbolic.Expr{symbolic.AddExpr(symbolic.NewSym("i"), symbolic.One)}},
		symbolic.ArrayRef{Name: "A_i", Indices: []symbolic.Expr{symbolic.NewSym("i")}},
	)
	if !symbolic.Equal(adiag, want) {
		t.Errorf("adiag = %s, want %s", adiag, want)
	}
	if len(symbolic.TaggedParts(final.Scalars["irownnz"])) != 1 {
		t.Errorf("irownnz = %s", final.Scalars["irownnz"])
	}
	ws := final.Arrays["A_rownnz"]
	if len(ws) != 1 {
		t.Fatalf("A_rownnz writes: %v", ws)
	}
	// Tag of the write must reference adiag's defining expression (the
	// condition adiag > 0 with adiag's value substituted).
	tags := symbolic.TaggedParts(ws[0].Value)
	if len(tags) != 1 {
		t.Fatal("expected tagged value")
	}
	if !strings.Contains(tags[0].Cond.String(), "A_i") {
		t.Errorf("tag should mention A_i: %s", tags[0].Cond)
	}
}

// TestUAInnerSVD reproduces Section 3.3 Phase-1 for the innermost i-loop
// of Figure 12: the six writes merge into one with dim-1 range [0:5].
func TestUAInnerSVD(t *testing.T) {
	src := `
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
	prog := cminus.MustParse(src)
	res := normalize.Func(prog.Func("transf"))
	// Find the innermost loop (L3).
	var inner *cminus.ForStmt
	cminus.WalkStmts(res.Func.Body, func(s cminus.Stmt) bool {
		if fs, ok := s.(*cminus.ForStmt); ok && fs.Label == "L3" {
			inner = fs
		}
		return true
	})
	if inner == nil {
		t.Fatal("no L3")
	}
	out, err := Run(inner.Body, &Config{Meta: res.Loops["L3"]})
	if err != nil {
		t.Fatal(err)
	}
	ws := out.Final.Arrays["idel"]
	if len(ws) != 1 {
		t.Fatalf("writes should merge into one, got %d: %v", len(ws), ws)
	}
	w := ws[0]
	if len(w.Indices) != 4 {
		t.Fatalf("indices: %v", w.Indices)
	}
	if w.Indices[0].String() != "iel" {
		t.Errorf("dim0: %s", w.Indices[0])
	}
	if w.Indices[1].String() != "[0:5]" {
		t.Errorf("dim1: %s", w.Indices[1])
	}
	if w.Indices[2].String() != "j" || w.Indices[3].String() != "i" {
		t.Errorf("dims 2,3: %s %s", w.Indices[2], w.Indices[3])
	}
	vset, ok := w.Value.(symbolic.Set)
	if !ok || len(vset.Items) != 6 {
		t.Fatalf("value should be a 6-element set: %s", w.Value)
	}
	// One of them must be 4 + 5*i + 25*j + ntemp.
	found := false
	for _, it := range vset.Items {
		if it.String() == "4+5*i+25*j+ntemp" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing canonical value in %s", w.Value)
	}
}

// TestCollapsedLoopApplication checks that a collapsed inner loop's
// aggregated assignments are applied with Λ substitution (Figure 2(a)
// pattern: inner loop increments p by [0:m]).
func TestCollapsedLoopApplication(t *testing.T) {
	src := `
void f(int n, int m, int *a, int *c) {
    int i, j, p;
    p = 0;
    for (i = 0; i < n; i++) {
        a[i] = p;
        for (j = 0; j < m; j++) {
            if (c[j] > 0) {
                p = p + 1;
            }
        }
    }
}
`
	prog := cminus.MustParse(src)
	res := normalize.Func(prog.Func("f"))
	var outer *cminus.ForStmt
	cminus.WalkStmts(res.Func.Body, func(s cminus.Stmt) bool {
		if fs, ok := s.(*cminus.ForStmt); ok && fs.Label == "L1" {
			outer = fs
		}
		return true
	})
	collapsed := map[string]*CollapsedLoop{
		"L2": {
			Label: "L2",
			Scalars: map[string]symbolic.Expr{
				"p": symbolic.NewRange(
					symbolic.NewBigLambda("p"),
					symbolic.AddExpr(symbolic.NewBigLambda("p"), symbolic.NewSym("m")),
				),
				"j": symbolic.NewSym("m"),
			},
		},
	}
	out, err := Run(outer.Body, &Config{Meta: res.Loops["L1"], Collapsed: collapsed})
	if err != nil {
		t.Fatal(err)
	}
	p := out.Final.Scalars["p"]
	if p.String() != "[λ_p:m+λ_p]" {
		t.Errorf("p = %s, want [λ_p:m+λ_p]", p)
	}
	// a[i] must have been written with the pre-inner-loop value λ_p.
	ws := out.Final.Arrays["a"]
	if len(ws) != 1 || !symbolic.Equal(ws[0].Value, symbolic.NewLambda("p")) {
		t.Errorf("a writes: %v", ws)
	}
}

// TestFailedInnerLoopKills ensures an unanalyzable inner loop kills its
// assigned variables.
func TestFailedInnerLoopKills(t *testing.T) {
	src := `
void f(int n, int m, int *a, int *c) {
    int i, j, p;
    p = 0;
    for (i = 0; i < n; i++) {
        a[i] = p;
        for (j = 0; j < m; j++) {
            p = c[j];
        }
    }
}
`
	prog := cminus.MustParse(src)
	res := normalize.Func(prog.Func("f"))
	var outer *cminus.ForStmt
	cminus.WalkStmts(res.Func.Body, func(s cminus.Stmt) bool {
		if fs, ok := s.(*cminus.ForStmt); ok && fs.Label == "L1" {
			outer = fs
		}
		return true
	})
	collapsed := map[string]*CollapsedLoop{
		"L2": {Label: "L2", Failed: true},
	}
	out, err := Run(outer.Body, &Config{Meta: res.Loops["L1"], Collapsed: collapsed})
	if err != nil {
		t.Fatal(err)
	}
	if !symbolic.IsBottom(out.Final.Scalars["p"]) {
		t.Errorf("p should be ⊥ after failed inner loop, got %s", out.Final.Scalars["p"])
	}
}

// TestElseBranchTagging: assignments in the else branch get the negated
// condition.
func TestElseBranchTagging(t *testing.T) {
	src := `
void f(int n, int *a, int *b) {
    int i, x;
    x = 0;
    for (i = 0; i < n; i++) {
        if (b[i] > 0) {
            x = 1;
        } else {
            x = 2;
        }
    }
}
`
	res, _ := analyze(t, src, "f")
	x := res.Final.Scalars["x"]
	tags := symbolic.TaggedParts(x)
	if len(tags) != 2 {
		t.Fatalf("x = %s, want two tagged alternatives", x)
	}
	conds := map[string]bool{}
	for _, tg := range tags {
		conds[tg.Cond.String()] = true
	}
	if !conds["b[i]>0"] || !conds["b[i]<=0"] {
		t.Errorf("conds: %v", conds)
	}
}

// TestReadOfModifiedArrayIsBottom: reading an array after writing it in
// the same iteration yields ⊥.
func TestReadOfModifiedArrayIsBottom(t *testing.T) {
	src := `
void f(int n, int *a) {
    int i, x;
    x = 0;
    for (i = 0; i < n; i++) {
        a[i] = i;
        x = a[i];
    }
}
`
	res, _ := analyze(t, src, "f")
	if !symbolic.IsBottom(res.Final.Scalars["x"]) {
		t.Errorf("x = %s, want ⊥", res.Final.Scalars["x"])
	}
}

// TestPrefixSumRead: reading the array before writing it keeps the
// ArrayRef (the Figure 2(b) recurrence pattern).
func TestPrefixSumRead(t *testing.T) {
	src := `
void f(int n, int *a, int k) {
    int i;
    for (i = 1; i < n; i++) {
        a[i] = a[i-1] + k;
    }
}
`
	res, _ := analyze(t, src, "f")
	ws := res.Final.Arrays["a"]
	if len(ws) != 1 {
		t.Fatalf("writes: %v", ws)
	}
	// After lower-bound shift, subscript is i+1 and value a[i]+k.
	if ws[0].Indices[0].String() != "1+i" {
		t.Errorf("subscript: %s", ws[0].Indices[0])
	}
	if ws[0].Value.String() != "a[i]+k" {
		t.Errorf("value: %s", ws[0].Value)
	}
}

func TestStateString(t *testing.T) {
	st := newState()
	st.Scalars["m"] = symbolic.NewLambda("m")
	st.Arrays["ind"] = []ArrayWrite{{
		Indices: []symbolic.Expr{symbolic.NewLambda("m")},
		Value:   symbolic.NewSym("j"),
	}}
	got := st.String()
	if got != "{m=λ_m, ind[λ_m] = j}" {
		t.Errorf("got %s", got)
	}
}
