package symbolic

import (
	"testing"
)

// exprDecoder builds an expression from an arbitrary byte string — the
// fuzz driver for the simplifier and its memoization layer (mirroring
// internal/cminus's FuzzParse). Every byte string decodes to some
// expression, so the fuzzer explores the full node-kind space including
// the cache-key encoder's corners.
type exprDecoder struct {
	data []byte
	pos  int
	// budget bounds total node count so adversarial inputs cannot build
	// pathologically large trees.
	budget int
}

func (d *exprDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

var fuzzNames = []string{"n", "m", "i", "j", "num_rows", "col_ptr", "Λ", "5"}

func (d *exprDecoder) name() string { return fuzzNames[int(d.next())%len(fuzzNames)] }

func (d *exprDecoder) expr(depth int) Expr {
	d.budget--
	if depth <= 0 || d.budget <= 0 {
		switch d.next() % 5 {
		case 0:
			return NewInt(int64(int8(d.next())))
		case 1:
			return NewSym(d.name())
		case 2:
			return NewLambda(d.name())
		case 3:
			return NewBigLambda(d.name())
		default:
			return Bottom{}
		}
	}
	kids := func(n int) []Expr {
		out := make([]Expr, n)
		for i := range out {
			out[i] = d.expr(depth - 1)
		}
		return out
	}
	switch d.next() % 16 {
	case 0:
		return Add{Terms: kids(2 + int(d.next()%3))}
	case 1:
		return Mul{Factors: kids(2 + int(d.next()%2))}
	case 2:
		return Div{Num: d.expr(depth - 1), Den: d.expr(depth - 1)}
	case 3:
		return Mod{Num: d.expr(depth - 1), Den: d.expr(depth - 1)}
	case 4:
		return Min{Args: kids(1 + int(d.next()%3))}
	case 5:
		return Max{Args: kids(1 + int(d.next()%3))}
	case 6:
		return Range{Lo: d.expr(depth - 1), Hi: d.expr(depth - 1)}
	case 7:
		return ArrayRef{Name: d.name(), Indices: kids(1 + int(d.next()%3))}
	case 8:
		return Call{Name: d.name(), Args: kids(int(d.next() % 3))}
	case 9:
		return Tagged{Cond: d.expr(depth - 1), E: d.expr(depth - 1)}
	case 10:
		return Set{Items: kids(1 + int(d.next()%3))}
	case 11:
		return Mono{Base: d.expr(depth - 1), Strict: d.next()%2 == 0, Dim: int(d.next() % 4)}
	case 12:
		return Cmp{Op: CmpOp(d.next() % 6), L: d.expr(depth - 1), R: d.expr(depth - 1)}
	case 13:
		if d.next()%2 == 0 {
			return And{Conds: kids(2)}
		}
		return Or{Conds: kids(2)}
	case 14:
		return Not{C: d.expr(depth - 1)}
	default:
		return BoolLit{Val: d.next()%2 == 0}
	}
}

// simplifySeeds are the FuzzSimplify seed inputs.
var simplifySeeds = [][]byte{
	{},
	{0},
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	{9, 9, 9, 9, 9, 9, 9, 9},             // nested tagged
	{12, 0, 1, 2, 12, 3, 4, 5},           // comparisons
	{6, 6, 1, 2, 3, 6, 4, 5, 0},          // nested ranges
	{0, 2, 255, 1, 0, 2, 255, 1, 0},      // sums with negative ints
	{4, 2, 0, 10, 1, 5, 2, 0, 10, 1},     // min/max folding
	{1, 1, 0, 3, 0, 0, 1, 1, 0, 3, 0, 0}, // products over sums
	{10, 2, 4, 4, 4, 4},                  // sets
	{11, 1, 7, 3, 11, 0, 7, 3},           // mono annotations
	{2, 3, 128, 2, 3, 128},               // div/mod by decoded bytes
	// i*i and 2*i+n (min of one argument wraps a leaf): a square that
	// LinearIn must refuse and a sum it must split exactly.
	{1, 0, 4, 0, 4, 0, 4, 0, 4, 0, 1, 2, 4, 0, 4, 0, 4, 0, 4, 0, 1, 2},
	{0, 0, 1, 0, 4, 0, 4, 0, 4, 0, 0, 2, 4, 0, 4, 0, 4, 0, 1, 2, 4, 0, 4, 0, 4, 0, 4, 0, 1, 0},
}

// decodeFuzzExpr is the expression FuzzSimplify builds from data.
func decodeFuzzExpr(data []byte) Expr {
	dec := &exprDecoder{data: data, budget: 128}
	return dec.expr(5)
}

// FuzzSimplify: the simplifier must never panic, must be idempotent, and
// the memoized result must match the uncached one — so the fuzzer drives
// both the canonicalization rules and the new cache paths (structural
// keys, sharding, interning). The memo key must also match the reference
// renderer's, and LinearIn's decomposition must be exact (checkLinearIn).
func FuzzSimplify(f *testing.F) {
	for _, s := range simplifySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := decodeFuzzExpr(data)

		prev := SetCacheEnabled(false)
		uncached := Simplify(e)
		uncachedStr := uncached.String()
		SetCacheEnabled(true)
		cached := Simplify(e)
		SetCacheEnabled(prev)

		if got := cached.String(); got != uncachedStr {
			t.Fatalf("cached Simplify diverges:\n  expr:     %s\n  cached:   %q\n  uncached: %q", e, got, uncachedStr)
		}
		if again := Simplify(cached).String(); again != uncachedStr {
			t.Fatalf("Simplify not idempotent:\n  expr:  %s\n  once:  %q\n  twice: %q", e, uncachedStr, again)
		}
		key, over := renderedKey(e)
		if over {
			t.Fatalf("decoded expression exceeds the caps: %s", e)
		}
		if want := string(refAppendKey(nil, e)); key != want {
			t.Fatalf("memo key diverges from the reference:\n  expr: %s\n  key:  %q\n  ref:  %q", e, key, want)
		}
		checkLinearIn(t, e)
	})
}
