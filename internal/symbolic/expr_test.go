package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimplifyConstants(t *testing.T) {
	cases := []struct {
		in   Expr
		want string
	}{
		{Add{Terms: []Expr{NewInt(1), NewInt(2)}}, "3"},
		{Mul{Factors: []Expr{NewInt(3), NewInt(4)}}, "12"},
		{Add{Terms: []Expr{NewSym("x"), NewInt(0)}}, "x"},
		{Mul{Factors: []Expr{NewSym("x"), NewInt(1)}}, "x"},
		{Mul{Factors: []Expr{NewSym("x"), NewInt(0)}}, "0"},
		{Add{Terms: []Expr{NewSym("x"), NewSym("x")}}, "2*x"},
		{Add{Terms: []Expr{NewSym("x"), Mul{Factors: []Expr{NewInt(-1), NewSym("x")}}}}, "0"},
		{Div{Num: NewInt(7), Den: NewInt(2)}, "3"},
		{Div{Num: NewInt(-7), Den: NewInt(2)}, "-3"},
		{Mod{Num: NewInt(7), Den: NewInt(2)}, "1"},
		{Min{Args: []Expr{NewInt(3), NewInt(5)}}, "3"},
		{Max{Args: []Expr{NewInt(3), NewInt(5)}}, "5"},
	}
	for _, c := range cases {
		got := Simplify(c.in).String()
		if got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSimplifyDistributes(t *testing.T) {
	// (x+1)*(x+2) = 2+3x+x^2
	e := Mul{Factors: []Expr{
		Add{Terms: []Expr{NewSym("x"), NewInt(1)}},
		Add{Terms: []Expr{NewSym("x"), NewInt(2)}},
	}}
	got := Simplify(e).String()
	want := "2+3*x+x*x"
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestRangeArithmetic(t *testing.T) {
	r1 := Range{Lo: NewInt(0), Hi: NewInt(124)}
	// 125*iel + [0:124]
	e := Add{Terms: []Expr{Mul{Factors: []Expr{NewInt(125), NewSym("iel")}}, r1}}
	got := Simplify(e)
	r, ok := got.(Range)
	if !ok {
		t.Fatalf("expected range, got %s", got)
	}
	if r.Lo.String() != "125*iel" || r.Hi.String() != "124+125*iel" {
		t.Errorf("got [%s:%s]", r.Lo, r.Hi)
	}
}

func TestRangeScale(t *testing.T) {
	r := Range{Lo: NewSym("a"), Hi: NewSym("b")}
	e := Simplify(Mul{Factors: []Expr{NewInt(3), r}})
	if e.String() != "[3*a:3*b]" {
		t.Errorf("got %s", e)
	}
	e = Simplify(Mul{Factors: []Expr{NewInt(-2), Range{Lo: NewInt(1), Hi: NewInt(5)}}})
	if e.String() != "[-10:-2]" {
		t.Errorf("negative scale: got %s", e)
	}
}

func TestDegenerateRange(t *testing.T) {
	if got := NewRange(NewInt(4), NewInt(4)); got.String() != "4" {
		t.Errorf("got %s", got)
	}
	if got := NewRange(NewSym("x"), NewSym("x")); got.String() != "x" {
		t.Errorf("got %s", got)
	}
}

func TestBottomAbsorbs(t *testing.T) {
	e := Add{Terms: []Expr{NewSym("x"), Bottom{}}}
	if !IsBottom(Simplify(e)) {
		t.Errorf("⊥ should absorb addition")
	}
	if !IsBottom(AddExpr(NewSym("x"), Bottom{})) {
		t.Errorf("AddExpr should absorb ⊥")
	}
	if !IsBottom(MulExpr(Bottom{}, NewInt(2))) {
		t.Errorf("MulExpr should absorb ⊥")
	}
}

func TestSetConstruction(t *testing.T) {
	s := NewSet(NewInt(1), NewInt(2), NewInt(1))
	set, ok := s.(Set)
	if !ok || len(set.Items) != 2 {
		t.Fatalf("got %s", s)
	}
	if NewSet(NewInt(7)).String() != "7" {
		t.Errorf("singleton set should collapse")
	}
	if !IsBottom(NewSet(NewInt(1), Bottom{})) {
		t.Errorf("set containing ⊥ is ⊥")
	}
}

func TestTaggedArithmetic(t *testing.T) {
	cond := Cmp{Op: OpGT, L: NewSym("adiag"), R: NewInt(0)}
	tagged := Tagged{Cond: cond, E: NewLambda("m")}
	got := AddExpr(tagged, One)
	tg, ok := got.(Tagged)
	if !ok {
		t.Fatalf("expected tagged result, got %s", got)
	}
	if tg.E.String() != "1+λ_m" {
		t.Errorf("got inner %s", tg.E)
	}
	if !Equal(tg.Cond, cond) {
		t.Errorf("tag lost: %s", tg.Cond)
	}
}

func TestSetArithmeticDistributes(t *testing.T) {
	s := NewSet(NewLambda("m"), Tagged{Cond: BoolLit{Val: true}, E: AddExpr(NewLambda("m"), One)})
	got := AddExpr(s, NewInt(10))
	set, ok := got.(Set)
	if !ok || len(set.Items) != 2 {
		t.Fatalf("got %s", got)
	}
}

func TestUnionValues(t *testing.T) {
	u := UnionValues(NewLambda("m"), Tagged{Cond: BoolLit{Val: true}, E: AddExpr(One, NewLambda("m"))})
	set, ok := u.(Set)
	if !ok || len(set.Items) != 2 {
		t.Fatalf("got %s", u)
	}
	// Union with identical value collapses.
	if got := UnionValues(NewSym("x"), NewSym("x")); got.String() != "x" {
		t.Errorf("got %s", got)
	}
}

func TestSubstitute(t *testing.T) {
	e := Add{Terms: []Expr{NewLambda("m"), NewInt(1)}}
	got := Substitute(e, Subst{LambdaKey("m"): NewInt(41)})
	if got.String() != "42" {
		t.Errorf("got %s", got)
	}
	// Substituting a symbol under an array index.
	ar := ArrayRef{Name: "A_i", Indices: []Expr{Add{Terms: []Expr{NewSym("i"), One}}}}
	got = Substitute(ar, Subst{"i": NewInt(3)})
	if got.String() != "A_i[4]" {
		t.Errorf("got %s", got)
	}
}

func TestCoefficientOf(t *testing.T) {
	iel := NewSym("iel")
	// 125*iel + [0:124] is a range: not linear-scalar.
	if _, _, ok := LinearIn(Range{Lo: Zero, Hi: NewInt(5)}, iel); ok {
		t.Error("range should not decompose")
	}
	e := Simplify(Add{Terms: []Expr{Mul{Factors: []Expr{NewInt(125), iel}}, NewInt(7)}})
	coef, rest, ok := LinearIn(e, iel)
	if !ok || coef.String() != "125" || rest.String() != "7" {
		t.Errorf("got coef=%v rest=%v ok=%v", coef, rest, ok)
	}
	// Not linear: iel*iel.
	sq := Mul{Factors: []Expr{iel, iel}}
	if _, _, ok := LinearIn(sq, iel); ok {
		t.Error("quadratic should not decompose")
	}
	// sym absent: coefficient 0.
	coef, rest, ok = LinearIn(NewSym("x"), iel)
	if !ok || coef.String() != "0" || rest.String() != "x" {
		t.Errorf("absent: coef=%v rest=%v ok=%v", coef, rest, ok)
	}
}

func TestCondSimplify(t *testing.T) {
	c := Cmp{Op: OpLT, L: NewInt(1), R: NewInt(2)}
	if got := Simplify(c); got.String() != "true" {
		t.Errorf("got %s", got)
	}
	n := Not{C: Cmp{Op: OpLT, L: NewSym("x"), R: NewSym("y")}}
	if got := Simplify(n); got.String() != "x>=y" {
		t.Errorf("got %s", got)
	}
	a := And{Conds: []Expr{BoolLit{Val: true}, Cmp{Op: OpGT, L: NewSym("x"), R: Zero}}}
	if got := Simplify(a); got.String() != "x>0" {
		t.Errorf("got %s", got)
	}
	o := Or{Conds: []Expr{BoolLit{Val: true}, Cmp{Op: OpGT, L: NewSym("x"), R: Zero}}}
	if got := Simplify(o); got.String() != "true" {
		t.Errorf("got %s", got)
	}
}

func TestCmpOpHelpers(t *testing.T) {
	if OpLT.Negate() != OpGE || OpEQ.Negate() != OpNE {
		t.Error("Negate broken")
	}
}

// ctxMap is a simple Context for tests.
type ctxMap map[string][2]Expr

func (c ctxMap) RangeOf(sym string) (Expr, Expr, bool) {
	r, ok := c[sym]
	if !ok {
		return nil, nil, false
	}
	return r[0], r[1], true
}

func TestSignAnalysis(t *testing.T) {
	ctx := ctxMap{
		"n": {NewInt(1), nil},    // n >= 1
		"k": {NewInt(0), nil},    // k >= 0
		"j": {Zero, NewSym("n")}, // 0 <= j <= n
	}
	cases := []struct {
		e    Expr
		want Sign
	}{
		{NewInt(5), SignPositive},
		{NewInt(0), SignZero},
		{NewInt(-3), SignNegative},
		{NewSym("n"), SignPositive},
		{NewSym("k"), SignNonNegative},
		{AddExpr(NewSym("n"), NewSym("k")), SignPositive},
		{MulExpr(NewSym("n"), NewSym("k")), SignNonNegative},
		{NegExpr(NewSym("n")), SignNegative},
		{NewSym("unknown"), SignUnknown},
		{NewRange(One, NewSym("n")), SignPositive},
	}
	for _, c := range cases {
		if got := SignOf(c.e, ctx); got != c.want {
			t.Errorf("SignOf(%s) = %s, want %s", c.e, got, c.want)
		}
	}
	if !ProveGE(NewSym("n"), One, ctx) {
		t.Error("n >= 1 should be provable")
	}
	if !ProveGT(AddExpr(NewInt(125), Zero), NewInt(124), ctx) {
		t.Error("125 > 124 should be provable")
	}
	if ProveGT(NewSym("k"), Zero, ctx) {
		t.Error("k > 0 should not be provable (k only non-negative)")
	}
	if !IsPNNValue(NewRange(Zero, NewInt(124)), ctx) {
		t.Error("[0:124] is a PNN range")
	}
	if IsPNNValue(NewRange(NewInt(-1), NewInt(124)), ctx) {
		t.Error("[-1:124] is not a PNN range")
	}
}

// ---- property-based tests ----

// randExpr generates a random scalar expression over vars x,y,z with
// bounded depth.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return NewInt(int64(r.Intn(21) - 10))
		default:
			return NewSym([]string{"x", "y", "z"}[r.Intn(3)])
		}
	}
	switch r.Intn(6) {
	case 0, 1:
		return Add{Terms: []Expr{randExpr(r, depth-1), randExpr(r, depth-1)}}
	case 2, 3:
		return Mul{Factors: []Expr{randExpr(r, depth-1), randExpr(r, depth-1)}}
	case 4:
		return Min{Args: []Expr{randExpr(r, depth-1), randExpr(r, depth-1)}}
	default:
		return Max{Args: []Expr{randExpr(r, depth-1), randExpr(r, depth-1)}}
	}
}

// TestQuickSimplifyPreservesValue: eval(simplify(e)) == eval(e) for random
// expressions and environments.
func TestQuickSimplifyPreservesValue(t *testing.T) {
	f := func(seed int64, xv, yv, zv int8) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 4)
		env := &Env{Vars: map[string]int64{
			"x": int64(xv), "y": int64(yv), "z": int64(zv),
		}}
		want, err1 := Eval(e, env)
		got, err2 := Eval(Simplify(e), env)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimplifyIdempotent: simplify(simplify(e)) == simplify(e).
func TestQuickSimplifyIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 4)
		s1 := Simplify(e)
		s2 := Simplify(s1)
		return s1.String() == s2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstituteCommutes: substituting constants then evaluating
// equals evaluating with the environment directly.
func TestQuickSubstituteCommutes(t *testing.T) {
	f := func(seed int64, xv, yv, zv int8) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 3)
		env := &Env{Vars: map[string]int64{
			"x": int64(xv), "y": int64(yv), "z": int64(zv),
		}}
		sub := Subst{
			"x": NewInt(int64(xv)),
			"y": NewInt(int64(yv)),
			"z": NewInt(int64(zv)),
		}
		want, err1 := Eval(e, env)
		got, err2 := Eval(Substitute(e, sub), &Env{})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickRangeAdditionContains: for random concrete instantiations, the
// sum of members of two ranges lies within the simplified sum range.
func TestQuickRangeAdditionContains(t *testing.T) {
	f := func(a1, a2, b1, b2 int8, t1, t2 uint8) bool {
		lo1, hi1 := minMax(int64(a1), int64(a2))
		lo2, hi2 := minMax(int64(b1), int64(b2))
		sum := Simplify(Add{Terms: []Expr{
			Range{Lo: NewInt(lo1), Hi: NewInt(hi1)},
			Range{Lo: NewInt(lo2), Hi: NewInt(hi2)},
		}})
		// Pick members of each range.
		x := lo1 + int64(t1)%(hi1-lo1+1)
		y := lo2 + int64(t2)%(hi2-lo2+1)
		lo, hi := Bounds(sum)
		lov, _ := AsInt(lo)
		hiv, _ := AsInt(hi)
		return lov <= x+y && x+y <= hiv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func minMax(a, b int64) (int64, int64) {
	if a <= b {
		return a, b
	}
	return b, a
}

func TestStringForms(t *testing.T) {
	e := Mono{Base: NewRange(Zero, SubExpr(NewSym("N"), One)), Strict: true, Dim: 0}
	if e.String() != "[0:-1+N]#SMA" {
		t.Errorf("got %s", e.String())
	}
	e2 := Mono{Base: NewRange(Zero, NewInt(5)), Strict: true, Dim: 2}
	if e2.String() != "[0:5]#(SMA;2)" {
		t.Errorf("got %s", e2.String())
	}
	if (Bottom{}).String() != "⊥" {
		t.Error("bottom render")
	}
	lam := NewLambda("m")
	if lam.String() != "λ_m" {
		t.Errorf("got %s", lam)
	}
}

func TestEvalBool(t *testing.T) {
	env := &Env{Vars: map[string]int64{"x": 5}}
	c := And{Conds: []Expr{
		Cmp{Op: OpGT, L: NewSym("x"), R: Zero},
		Not{C: Cmp{Op: OpEQ, L: NewSym("x"), R: NewInt(4)}},
	}}
	got, err := EvalBool(c, env)
	if err != nil || !got {
		t.Errorf("got %v err %v", got, err)
	}
	// C-style scalar condition.
	got, err = EvalBool(NewSym("x"), env)
	if err != nil || !got {
		t.Errorf("scalar cond: got %v err %v", got, err)
	}
}

func TestTaggedPartsSplit(t *testing.T) {
	cond := Cmp{Op: OpGT, L: NewSym("adiag"), R: Zero}
	v := NewSet(NewLambda("ind"), Tagged{Cond: cond, E: NewSym("j")})
	tags := TaggedParts(v)
	if len(tags) != 1 || tags[0].E.String() != "j" {
		t.Fatalf("tagged parts: %v", tags)
	}
}
