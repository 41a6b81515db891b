package symbolic

import "testing"

// refLinearIn is the decomposition LinearIn replaced, kept as the test
// reference: it evaluates e at x = 0, 1 and 2 and takes e for linear
// when the two differences agree. It accepts every linear e, but also
// every e whose values at those three points lie on a line.
func refLinearIn(e, x Expr) (alpha, rest Expr, ok bool) {
	var key string
	switch a := x.(type) {
	case Sym:
		key = SymKey(a.Name)
	case Lambda:
		key = LambdaKey(a.Name)
	default:
		return nil, nil, false
	}
	f0 := Substitute(e, Subst{key: Zero})
	f1 := Substitute(e, Subst{key: One})
	f2 := Substitute(e, Subst{key: NewInt(2)})
	if IsBottom(f0) || IsBottom(f1) || IsBottom(f2) {
		return nil, nil, false
	}
	d1 := SubExpr(f1, f0)
	d2 := SubExpr(f2, f1)
	if !Equal(d1, d2) {
		return nil, nil, false
	}
	return Simplify(d1), Simplify(f0), true
}

// substKey is x's key in a Subst.
func substKey(x Expr) string {
	if l, ok := x.(Lambda); ok {
		return LambdaKey(l.Name)
	}
	return SymKey(x.(Sym).Name)
}

// checkLinearIn is FuzzSimplify's property of LinearIn, for x = i as a
// Sym and as a Lambda: an accepted decomposition leaves x out of both
// parts, gives e's value at points the three-point probe never looked
// at, and agrees with the probe wherever the probe accepts too. It skips
// an e holding a set, tag, range or annotation, whose arithmetic lifts
// over alternatives or bounds.
func checkLinearIn(t *testing.T, e Expr) {
	t.Helper()
	lifted := false
	Walk(e, func(n Expr) bool {
		switch n.(type) {
		case Set, Tagged, Range, Mono:
			lifted = true
		}
		return !lifted
	})
	if lifted {
		return
	}
	for _, x := range []Expr{NewSym("i"), NewLambda("i")} {
		alpha, rest, ok := LinearIn(e, x)
		if !ok {
			continue
		}
		if occurs(alpha, x) || occurs(rest, x) {
			t.Fatalf("LinearIn(%s, %s) = %s, %s: x left in a part", e, x, alpha, rest)
		}
		for _, k := range []int64{-1, 3, 7} {
			want := Substitute(e, Subst{substKey(x): NewInt(k)}).String()
			got := Simplify(Add{Terms: []Expr{rest, Mul{Factors: []Expr{NewInt(k), alpha}}}}).String()
			if got != want {
				t.Fatalf("LinearIn(%s, %s) = %s, %s: at %s = %d it gives %q, e is %q",
					e, x, alpha, rest, x, k, got, want)
			}
		}
		if ra, rr, rok := refLinearIn(e, x); rok && (!Equal(ra, alpha) || !Equal(rr, rest)) {
			t.Fatalf("LinearIn(%s, %s) = %s, %s; the probe gives %s, %s", e, x, alpha, rest, ra, rr)
		}
	}
}

// TestLinearIn covers the forms TestCoefficientOf and
// TestCoefficientOfLinear leave out.
func TestLinearIn(t *testing.T) {
	i, n, m := NewSym("i"), NewSym("n"), NewSym("m")
	li := NewLambda("i")
	sum := func(es ...Expr) Expr { return Add{Terms: es} }
	prod := func(es ...Expr) Expr { return Mul{Factors: es} }
	c := NewInt
	ref := func(e Expr) Expr { return ArrayRef{Name: "a", Indices: []Expr{e}} }
	// cubic takes 0, 6 and 12 at i = 0, 1 and 2, then 12 and 0 at 3 and 4.
	cubic := sum(prod(c(6), i), prod(c(-1), i, sum(i, c(-1)), sum(i, c(-2))))
	for _, tc := range []struct {
		name        string
		e, x        Expr
		alpha, rest string // "" when LinearIn refuses
	}{
		{"symbolic coefficient", sum(prod(n, i), c(3)), i, "n", "3"},
		{"x alone", i, i, "1", "0"},
		{"coefficients summed", sum(prod(n, i), prod(m, i), prod(c(2), i), c(1)), i, "2+m+n", "1"},
		{"coefficient with an opaque atom", sum(prod(i, ref(n)), m), i, "a[n]", "m"},
		{"lambda x", sum(prod(c(2), li), i, NewLambda("j"), c(1)), li, "2", "1+i+λ_j"},
		{"lambda x absent", sum(i, c(1)), li, "0", "1+i"},
		{"x absent from an opaque atom", ref(n), i, "0", "a[n]"},
		{"cubic", prod(i, sum(i, c(-1)), sum(i, c(-2))), i, "", ""},
		{"cubic on a line at 0, 1, 2", cubic, i, "", ""},
		{"x times an array reference of x", prod(i, ref(i)), i, "", ""},
		{"call", Call{Name: "f", Args: []Expr{i}}, i, "", ""},
		{"division", Div{Num: prod(c(2), i), Den: c(2)}, i, "", ""},
		{"remainder", Mod{Num: i, Den: c(3)}, i, "", ""},
		{"min", sum(Min{Args: []Expr{i, n}}, c(1)), i, "", ""},
		{"max", Max{Args: []Expr{i, n}}, i, "", ""},
		{"tag", Tagged{Cond: Cmp{Op: OpLT, L: n, R: c(0)}, E: i}, i, "", ""},
		{"tag condition", Tagged{Cond: Cmp{Op: OpLT, L: i, R: n}, E: n}, i, "", ""},
		{"set", Set{Items: []Expr{i, n}}, i, "", ""},
		{"annotation", Mono{Base: NewRange(c(0), i), Strict: true}, i, "", ""},
		{"comparison", sum(Cmp{Op: OpLT, L: i, R: n}, c(1)), i, "", ""},
		{"range of x", Range{Lo: i, Hi: sum(i, c(1))}, i, "", ""},
		{"bottom", sum(i, Bottom{}), i, "", ""},
		{"x a big lambda", NewBigLambda("i"), NewBigLambda("i"), "", ""},
	} {
		alpha, rest, ok := LinearIn(tc.e, tc.x)
		if tc.alpha == "" {
			if ok {
				t.Errorf("%s: LinearIn(%s, %s) = %s, %s; want a refusal", tc.name, tc.e, tc.x, alpha, rest)
			}
			continue
		}
		if !ok || alpha.String() != tc.alpha || rest.String() != tc.rest {
			t.Errorf("%s: LinearIn(%s, %s) = %v, %v, %v; want %s, %s", tc.name, tc.e, tc.x, alpha, rest, ok, tc.alpha, tc.rest)
			continue
		}
		// Both parts are canonical.
		for _, part := range []Expr{alpha, rest} {
			if s := Simplify(part).String(); s != part.String() {
				t.Errorf("%s: part %s simplifies to %s", tc.name, part, s)
			}
		}
	}
	// The probe takes the cubic for 6*i.
	if alpha, rest, ok := refLinearIn(cubic, i); !ok || alpha.String() != "6" || rest.String() != "0" {
		t.Errorf("refLinearIn(cubic) = %v, %v, %v; want 6, 0", alpha, rest, ok)
	}
}
