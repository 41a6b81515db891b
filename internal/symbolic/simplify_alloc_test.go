package symbolic

import (
	"fmt"
	"testing"
)

// TestSimplifyAllocs pins the allocation cost of the hot canonicalization
// paths: min/max dedup+ordering and product distribution. Both used to
// re-render expression strings inside sort comparators, so allocations
// scaled with the comparison count; keys are now rendered once per
// element (min/max operands) or per term (linear forms). The cache is
// disabled so the work (not a lookup) is measured.
func TestSimplifyAllocs(t *testing.T) {
	prev := SetCacheEnabled(false)
	defer SetCacheEnabled(prev)

	// min over many distinct offset expressions: exercises dedup + sort.
	var minArgs []Expr
	for i := 24; i > 0; i-- {
		minArgs = append(minArgs, AddExpr(NewSym(fmt.Sprintf("s%02d", i)), NewSym(fmt.Sprintf("t%02d", i))))
	}
	minExpr := Min{Args: minArgs}

	// Product of sums of two-atom products over λ atoms (renders that
	// allocate, like the iteration markers and array refs the analysis
	// manipulates): distribution merges sorted multi-atom terms for
	// every term pair.
	sum := func(prefix string, n int) Expr {
		terms := make([]Expr, n)
		for i := 0; i < n; i++ {
			terms[i] = Mul{Factors: []Expr{NewLambda(fmt.Sprintf("%s%da", prefix, i)), NewLambda(fmt.Sprintf("%s%db", prefix, i))}}
		}
		return Add{Terms: terms}
	}
	prod := Mul{Factors: []Expr{sum("l", 6), sum("r", 6)}}

	avg := testing.AllocsPerRun(100, func() {
		Simplify(minExpr)
		Simplify(prod)
	})
	t.Logf("Simplify allocs/run: %.1f", avg)
	// Measured 572 allocs/run with linear forms as key-sorted term
	// slices, vs ~1600 when they were maps re-rendering each key on every
	// add and ~2010 when sorts rendered inside their comparators. The
	// bound leaves headroom for runtime/toolchain noise and trips on a
	// return to either.
	const maxAllocs = 640
	if avg > maxAllocs {
		t.Fatalf("Simplify allocates %.1f allocs/run, want <= %d", avg, maxAllocs)
	}
}

// TestMemoHitAllocs pins that a memo hit allocates nothing: Simplify,
// CanonicalString and Intern render their structural key into a reused
// buffer and probe with it, so only an insert copies the key; AddExpr,
// SubExpr and MulExpr of plain operands render the key of the tree they
// would build and build it only on a miss.
func TestMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ResetCache()
	defer ResetCache()

	// A range over a subscripted subscript, like the bounds Phase 2
	// aggregates.
	var e Expr = Range{
		Lo: Add{Terms: []Expr{NewLambda("irownnz"), ArrayRef{Name: "A_i", Indices: []Expr{NewSym("i")}}}},
		Hi: Add{Terms: []Expr{One, Mul{Factors: []Expr{NewInt(2), NewBigLambda("num_rows")}}}},
	}
	s := Simplify(e)
	CanonicalString(e)
	Intern(s)
	x, y := NewLambda("m"), Expr(ArrayRef{Name: "p", Indices: []Expr{NewSym("i")}})
	AddExpr(x, y)
	SubExpr(x, y)
	MulExpr(x, y)

	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Simplify", func() { Simplify(e) }},
		{"CanonicalString", func() { CanonicalString(e) }},
		{"Intern", func() { Intern(s) }},
		{"AddExpr", func() { AddExpr(x, y) }},
		{"SubExpr", func() { SubExpr(x, y) }},
		{"MulExpr", func() { MulExpr(x, y) }},
	} {
		if avg := testing.AllocsPerRun(100, c.fn); avg != 0 {
			t.Errorf("%s memo hit allocates %.1f allocs/run, want 0", c.name, avg)
		}
	}
}
