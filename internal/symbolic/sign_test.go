package symbolic

import "testing"

// TestProveBoundSubstitution pins the sign prover's Add fallback, which
// substitutes each symbol's bound into a sum. A substituted lower bound
// of 0 shows the sum is ≥ 0, and an upper bound of 0 that it is ≤ 0;
// neither shows it is 0. Each false row is a claim that fails at some
// point of its context.
func TestProveBoundSubstitution(t *testing.T) {
	n, i, x, y := NewSym("n"), NewSym("i"), NewSym("x"), NewSym("y")
	nPos := ctxMap{"n": {One, nil}}
	// The range Phase 2 pushes for a loop i = 0 .. n-1 under -assume n.
	loop := ctxMap{"n": {One, nil}, "i": {Zero, SubExpr(n, One)}}
	pinned := ctxMap{"x": {NewInt(3), NewInt(3)}, "y": {NewInt(2), NewInt(3)}}
	isZero := func(e, _ Expr, ctx Context) bool { return SignOf(e, ctx) == SignZero }
	isPNN := func(e, _ Expr, ctx Context) bool { return SignOf(e, ctx).IsPNN() }
	cases := []struct {
		name  string
		prove func(a, b Expr, ctx Context) bool
		a, b  Expr
		ctx   Context
		want  bool
	}{
		// n = 2 breaks 1 >= n.
		{"1 >= n", ProveGE, One, n, nPos, false},
		{"n >= 1", ProveGE, n, One, nPos, true},
		{"n - 1 is zero", isZero, SubExpr(n, One), nil, nPos, false},
		{"n - 1 is PNN", isPNN, SubExpr(n, One), nil, nPos, true},
		// n = 2, i = 1 breaks each of these.
		{"i is zero", isZero, i, nil, loop, false},
		{"0 >= i", ProveGE, Zero, i, loop, false},
		{"1 > i", ProveGT, One, i, loop, false},
		{"i >= 0", ProveGE, i, Zero, loop, true},
		{"i is PNN", isPNN, i, nil, loop, true},
		// y = 2 breaks y >= x.
		{"y >= x", ProveGE, y, x, pinned, false},
		{"x >= y", ProveGE, x, y, pinned, true},
		{"y <= x", ProveLE, y, x, pinned, true},
	}
	for _, c := range cases {
		if got := c.prove(c.a, c.b, c.ctx); got != c.want {
			t.Errorf("%s: proved %v, want %v", c.name, got, c.want)
		}
	}
}
