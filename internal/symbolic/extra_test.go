package symbolic

import (
	"testing"
	"testing/quick"
)

func TestDivModSymbolic(t *testing.T) {
	x := NewSym("x")
	d := Simplify(Div{Num: x, Den: NewInt(1)})
	if d.String() != "x" {
		t.Errorf("x/1 = %s", d)
	}
	d = Simplify(Div{Num: x, Den: NewSym("y")})
	if d.Kind() != KDiv {
		t.Errorf("symbolic division should stay opaque: %s", d)
	}
	m := Simplify(Mod{Num: x, Den: NewSym("y")})
	if m.Kind() != KMod {
		t.Errorf("symbolic modulo should stay opaque: %s", m)
	}
	if !IsBottom(Simplify(Div{Num: Bottom{}, Den: x})) {
		t.Error("⊥ numerator")
	}
	// Division/modulo by zero does not fold (left to run time).
	if got := Simplify(Div{Num: NewInt(4), Den: NewInt(0)}); got.Kind() != KDiv {
		t.Errorf("4/0 should stay opaque, got %s", got)
	}
}

func TestSubstituteDeep(t *testing.T) {
	e := Min{Args: []Expr{
		Div{Num: NewSym("a"), Den: NewInt(2)},
		Max{Args: []Expr{NewSym("b"), Mod{Num: NewSym("a"), Den: NewSym("b")}}},
	}}
	got := Substitute(e, Subst{"a": NewInt(10), "b": NewInt(3)})
	// min(10/2, max(3, 10%3)) = min(5, 3) = 3.
	if got.String() != "3" {
		t.Errorf("got %s", got)
	}
	// Tagged and Mono subtrees substitute too.
	tg := Tagged{Cond: Cmp{Op: OpGT, L: NewSym("a"), R: Zero}, E: NewSym("a")}
	got = Substitute(tg, Subst{"a": NewInt(5)})
	if tgo, ok := got.(Tagged); !ok || tgo.E.String() != "5" || tgo.Cond.String() != "true" {
		t.Errorf("got %s", got)
	}
	mo := Mono{Base: NewSym("a"), Strict: true}
	got = Substitute(mo, Subst{"a": NewInt(2)})
	if got.String() != "2#SMA" {
		t.Errorf("got %s", got)
	}
}

func TestWalkCoversAllKinds(t *testing.T) {
	exprs := []Expr{
		Add{Terms: []Expr{NewInt(1), NewSym("x")}},
		Mul{Factors: []Expr{NewInt(2), NewSym("y")}},
		Div{Num: NewSym("a"), Den: NewSym("b")},
		Mod{Num: NewSym("a"), Den: NewSym("b")},
		Min{Args: []Expr{NewSym("a")}},
		Max{Args: []Expr{NewSym("a")}},
		ArrayRef{Name: "arr", Indices: []Expr{NewSym("i")}},
		Call{Name: "f", Args: []Expr{NewSym("i")}},
		Range{Lo: Zero, Hi: One},
		Tagged{Cond: BoolLit{Val: true}, E: NewSym("x")},
		Set{Items: []Expr{NewSym("x"), NewSym("y")}},
		Mono{Base: NewSym("x")},
		Cmp{Op: OpLT, L: NewSym("x"), R: NewSym("y")},
		And{Conds: []Expr{BoolLit{Val: true}}},
		Or{Conds: []Expr{BoolLit{Val: false}}},
		Not{C: BoolLit{Val: true}},
	}
	for _, e := range exprs {
		n := 0
		Walk(e, func(Expr) bool { n++; return true })
		if n < 2 && e.Kind() != KMin && e.Kind() != KMax {
			t.Errorf("%s: walk visited %d nodes", e, n)
		}
	}
	// Early stop.
	n := 0
	Walk(exprs[0], func(Expr) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestFreeSymsAndContains(t *testing.T) {
	e := Add{Terms: []Expr{
		NewSym("x"),
		ArrayRef{Name: "a", Indices: []Expr{NewSym("i")}},
		NewLambda("m"),
	}}
	if !ContainsSym(e, "x") || !ContainsSym(e, "i") || ContainsSym(e, "m") {
		t.Error("ContainsSym")
	}
	if !ContainsLambda(e, "m") || ContainsLambda(e, "q") || !ContainsLambda(e, "") {
		t.Error("ContainsLambda")
	}
	if !ContainsKind(e, KArrayRef) || ContainsKind(e, KCall) {
		t.Error("ContainsKind")
	}
}

func TestRangeUnionSymbolicFallback(t *testing.T) {
	u := RangeUnion(NewSym("a"), NewSym("b"))
	r, ok := u.(Range)
	if !ok {
		t.Fatalf("got %s", u)
	}
	if r.Lo.Kind() != KMin || r.Hi.Kind() != KMax {
		t.Errorf("unresolvable union should keep min/max: %s", u)
	}
	// Constant-offset folding resolves it.
	x := NewSym("x")
	u = RangeUnion(AddExpr(x, NewInt(4)), x)
	if u.String() != "[x:4+x]" {
		t.Errorf("got %s", u)
	}
	if !IsBottom(RangeUnion(Bottom{}, x)) {
		t.Error("⊥ union")
	}
}

func TestProveCmpAllOps(t *testing.T) {
	ctx := ctxMap{"n": {One, nil}}
	n := NewSym("n")
	equal := func(l, r Expr, _ Context) bool { return Equal(l, r) }
	notEqual := func(l, r Expr, ctx Context) bool { return ProveLT(l, r, ctx) || ProveGT(l, r, ctx) }
	cases := []struct {
		op    CmpOp
		prove func(l, r Expr, ctx Context) bool
		l, r  Expr
		want  bool
	}{
		{OpLT, ProveLT, Zero, n, true},
		{OpLE, ProveLE, One, n, true},
		{OpGT, ProveGT, n, Zero, true},
		{OpGE, ProveGE, n, One, true},
		{OpEQ, equal, n, n, true},
		{OpNE, notEqual, n, Zero, true},
		{OpLT, ProveLT, n, Zero, false},
		{OpEQ, equal, n, Zero, false},
	}
	for _, c := range cases {
		if got := c.prove(c.l, c.r, ctx); got != c.want {
			t.Errorf("prove(%s %s %s) = %v", c.l, c.op, c.r, got)
		}
	}
}

func TestNPPHelpers(t *testing.T) {
	ctx := ctxMap{"n": {One, nil}}
	if !IsNPPValue(NewInt(-3), ctx) || !IsNegativeValue(NewInt(-3), ctx) {
		t.Error("-3 is NPP and negative")
	}
	if !IsNPPValue(Zero, ctx) || IsNegativeValue(Zero, ctx) {
		t.Error("0 is NPP but not negative")
	}
	if IsNPPValue(NewSym("n"), ctx) {
		t.Error("positive n is not NPP")
	}
	if !IsNPPValue(NewRange(NewInt(-5), NewInt(-1)), ctx) {
		t.Error("[-5:-1] is NPP")
	}
	if IsNPPValue(NewRange(NewInt(-5), One), ctx) {
		t.Error("[-5:1] is not NPP")
	}
}

func TestLift2SetOverflowDegrades(t *testing.T) {
	// Two sets of 5 alternatives: 25 combinations > maxSetSize → ⊥.
	var items1, items2 []Expr
	for i := 0; i < 5; i++ {
		items1 = append(items1, NewSym("a"+string(rune('0'+i))))
		items2 = append(items2, NewSym("b"+string(rune('0'+i))))
	}
	got := AddExpr(NewSet(items1...), NewSet(items2...))
	if !IsBottom(got) {
		t.Errorf("oversized set combination should degrade to ⊥, got %s", got)
	}
}

func TestEvalErrorPaths(t *testing.T) {
	env := &Env{Vars: map[string]int64{}}
	if _, err := Eval(NewSym("missing"), env); err == nil {
		t.Error("unbound symbol")
	}
	if _, err := Eval(Div{Num: One, Den: Zero}, env); err == nil {
		t.Error("division by zero")
	}
	if _, err := Eval(Mod{Num: One, Den: Zero}, env); err == nil {
		t.Error("modulo by zero")
	}
	if _, err := Eval(Bottom{}, env); err == nil {
		t.Error("⊥ is not a value")
	}
	if _, err := Eval(Range{Lo: Zero, Hi: One}, env); err == nil {
		t.Error("a range is not a scalar")
	}
	if _, err := Eval(ArrayRef{Name: "a", Indices: []Expr{Zero}}, env); err == nil {
		t.Error("missing array env")
	}
	if _, err := Eval(Call{Name: "f"}, env); err == nil {
		t.Error("missing call env")
	}
	if _, err := EvalBool(nil, env); err == nil {
		t.Error("nil condition")
	}
}

func TestEvalArraysAndCalls(t *testing.T) {
	env := &Env{
		Vars: map[string]int64{"i": 3},
		Arrays: map[string]func([]int64) (int64, error){
			"a": func(idx []int64) (int64, error) { return idx[0] * 10, nil },
		},
		Calls: map[string]func([]int64) (int64, error){
			"twice": func(args []int64) (int64, error) { return 2 * args[0], nil },
		},
	}
	v, err := Eval(ArrayRef{Name: "a", Indices: []Expr{NewSym("i")}}, env)
	if err != nil || v != 30 {
		t.Errorf("a[i] = %d, %v", v, err)
	}
	v, err = Eval(Call{Name: "twice", Args: []Expr{NewSym("i")}}, env)
	if err != nil || v != 6 {
		t.Errorf("twice(i) = %d, %v", v, err)
	}
	// Tagged evaluates its inner expression.
	v, err = Eval(Tagged{Cond: BoolLit{Val: false}, E: NewSym("i")}, env)
	if err != nil || v != 3 {
		t.Errorf("tagged = %d, %v", v, err)
	}
	// Min/Max evaluation.
	v, err = Eval(Min{Args: []Expr{NewInt(7), NewSym("i")}}, env)
	if err != nil || v != 3 {
		t.Errorf("min = %d", v)
	}
	v, err = Eval(Max{Args: []Expr{NewInt(7), NewSym("i")}}, env)
	if err != nil || v != 7 {
		t.Errorf("max = %d", v)
	}
}

// TestQuickCondEvalConsistency: simplification of boolean expressions
// preserves their truth value.
func TestQuickCondEvalConsistency(t *testing.T) {
	f := func(a, b int8, opRaw uint8) bool {
		op := CmpOp(opRaw % 6)
		c := Cmp{Op: op, L: NewInt(int64(a)), R: NewInt(int64(b))}
		env := &Env{}
		want, err1 := EvalBool(c, env)
		got, err2 := EvalBool(Simplify(c), env)
		if err1 != nil || err2 != nil {
			return false
		}
		// Also the negation.
		nwant, _ := EvalBool(Not{C: c}, env)
		ngot, _ := EvalBool(Simplify(Not{C: c}), env)
		return want == got && nwant == ngot && want != nwant
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBoundsAndAsInt(t *testing.T) {
	lo, hi := Bounds(NewRange(Zero, NewInt(5)))
	if lo.String() != "0" || hi.String() != "5" {
		t.Error("range bounds")
	}
	lo, hi = Bounds(NewSym("x"))
	if lo.String() != "x" || hi.String() != "x" {
		t.Error("scalar bounds")
	}
	if v, ok := AsInt(NewInt(42)); !ok || v != 42 {
		t.Error("AsInt literal")
	}
	if _, ok := AsInt(NewSym("x")); ok {
		t.Error("AsInt symbol")
	}
}

func TestStripTagsNested(t *testing.T) {
	v := NewSet(
		Tagged{Cond: BoolLit{Val: true}, E: NewSym("a")},
		Tagged{Cond: BoolLit{Val: false}, E: Tagged{Cond: BoolLit{Val: true}, E: NewSym("b")}},
	)
	got := StripTags(v)
	if got.String() != "{a, b}" {
		t.Errorf("got %s", got)
	}
	if !IsBottom(StripTags(nil)) {
		t.Error("nil strips to ⊥")
	}
}

func TestCoefficientOfLinear(t *testing.T) {
	i := NewSym("i")
	// 3*i - 2*i = i: coefficient 1.
	e := SubExpr(MulExpr(NewInt(3), i), MulExpr(NewInt(2), i))
	coef, rest, ok := LinearIn(e, i)
	if !ok || coef.String() != "1" || rest.String() != "0" {
		t.Errorf("coef=%v rest=%v ok=%v", coef, rest, ok)
	}
	// i inside an array ref: not linear.
	bad := ArrayRef{Name: "a", Indices: []Expr{i}}
	if _, _, ok := LinearIn(bad, i); ok {
		t.Error("opaque occurrence should fail")
	}
}

func TestSignOfMonoAndTagged(t *testing.T) {
	ctx := ctxMap{"n": {One, nil}}
	m := Mono{Base: NewRange(One, NewSym("n")), Strict: true}
	if SignOf(m, ctx) != SignPositive {
		t.Error("mono sign")
	}
	tg := Tagged{Cond: BoolLit{Val: true}, E: NewInt(-1)}
	if SignOf(tg, ctx) != SignNegative {
		t.Error("tagged sign")
	}
	set := NewSet(NewInt(1), NewInt(3))
	if s := SignOf(set, ctx); s != SignPositive {
		t.Errorf("set sign: %s", s)
	}
	mixed := Set{Items: []Expr{NewInt(-1), NewInt(2)}}
	if s := SignOf(mixed, ctx); s != SignUnknown {
		t.Errorf("mixed set sign: %s", s)
	}
}
