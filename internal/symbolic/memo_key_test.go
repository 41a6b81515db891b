package symbolic

import (
	"math/rand"
	"strconv"
	"testing"
)

// refAppendKey and refMeasure are the memo-key renderer and the cap
// pre-walk as they stood before the cap check moved into the render.
// They are the reference the single-pass renderer must reproduce byte
// for byte and verdict for verdict: the memo's hit, miss and intern
// counts, and therefore its observable behaviour, depend on both.
func refAppendKey(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case nil:
		b = append(b, 'N')
	case Int:
		b = append(b, 'i')
		b = strconv.AppendInt(b, x.Val, 10)
	case Sym:
		b = refKeyName(b, 's', x.Name)
	case Lambda:
		b = refKeyName(b, 'l', x.Name)
	case BigLambda:
		b = refKeyName(b, 'G', x.Name)
	case Add:
		b = refKeyList(b, '+', x.Terms)
	case Mul:
		b = refKeyList(b, '*', x.Factors)
	case Div:
		b = append(b, '/')
		b = refAppendKey(b, x.Num)
		b = refAppendKey(b, x.Den)
	case Mod:
		b = append(b, '%')
		b = refAppendKey(b, x.Num)
		b = refAppendKey(b, x.Den)
	case Min:
		b = refKeyList(b, 'm', x.Args)
	case Max:
		b = refKeyList(b, 'M', x.Args)
	case ArrayRef:
		b = refKeyName(b, 'a', x.Name)
		b = refKeyList(b, '[', x.Indices)
	case Call:
		b = refKeyName(b, 'c', x.Name)
		b = refKeyList(b, '(', x.Args)
	case Range:
		b = append(b, 'R')
		b = refAppendKey(b, x.Lo)
		b = refAppendKey(b, x.Hi)
	case Tagged:
		b = append(b, 'T')
		b = refAppendKey(b, x.Cond)
		b = refAppendKey(b, x.E)
	case Set:
		b = refKeyList(b, '{', x.Items)
	case Mono:
		b = append(b, 'o')
		if x.Strict {
			b = append(b, 'S')
		}
		b = strconv.AppendInt(b, int64(x.Dim), 10)
		b = append(b, ':')
		b = refAppendKey(b, x.Base)
	case Bottom:
		b = append(b, 'B')
	case Cmp:
		b = append(b, 'C')
		b = strconv.AppendInt(b, int64(x.Op), 10)
		b = refAppendKey(b, x.L)
		b = refAppendKey(b, x.R)
	case And:
		b = refKeyList(b, '&', x.Conds)
	case Or:
		b = refKeyList(b, '|', x.Conds)
	case Not:
		b = append(b, '!')
		b = refAppendKey(b, x.C)
	case BoolLit:
		if x.Val {
			b = append(b, "b1"...)
		} else {
			b = append(b, "b0"...)
		}
	default:
		s := e.String()
		b = append(b, '?')
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	return b
}

func refKeyName(b []byte, tag byte, name string) []byte {
	b = append(b, tag)
	b = strconv.AppendInt(b, int64(len(name)), 10)
	b = append(b, ':')
	return append(b, name...)
}

func refKeyList(b []byte, tag byte, es []Expr) []byte {
	b = append(b, tag)
	b = strconv.AppendInt(b, int64(len(es)), 10)
	b = append(b, ':')
	for _, e := range es {
		b = refAppendKey(b, e)
	}
	return append(b, ';')
}

func refMeasure(e Expr) (nodes int, exceeded bool) {
	type frame struct {
		e Expr
		d int
	}
	stack := []frame{{e, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.e == nil {
			continue
		}
		nodes++
		if nodes > maxExprNodes || f.d > maxExprDepth {
			return nodes, true
		}
		d := f.d + 1
		push := func(es ...Expr) {
			for _, c := range es {
				stack = append(stack, frame{c, d})
			}
		}
		switch x := f.e.(type) {
		case Add:
			push(x.Terms...)
		case Mul:
			push(x.Factors...)
		case Div:
			push(x.Num, x.Den)
		case Mod:
			push(x.Num, x.Den)
		case Min:
			push(x.Args...)
		case Max:
			push(x.Args...)
		case ArrayRef:
			push(x.Indices...)
		case Call:
			push(x.Args...)
		case Range:
			push(x.Lo, x.Hi)
		case Tagged:
			push(x.Cond, x.E)
		case Set:
			push(x.Items...)
		case Mono:
			push(x.Base)
		case Cmp:
			push(x.L, x.R)
		case And:
			push(x.Conds...)
		case Or:
			push(x.Conds...)
		case Not:
			push(x.C)
		}
	}
	return nodes, false
}

// opaqueExpr is an Expr implementation the key renderer does not know,
// which takes its length-prefixed String fallback.
type opaqueExpr struct{}

func (opaqueExpr) Kind() Kind     { return KCall }
func (opaqueExpr) String() string { return "opaque(7)" }

// notChain nests n Not nodes over a symbol, iteratively: the cheapest
// way to build an input deeper than any recursion could survive.
func notChain(n int) Expr {
	e := Expr(NewSym("x"))
	for i := 0; i < n; i++ {
		e = Not{C: e}
	}
	return e
}

// wideAdd is one Add over n copies of 1 (n+1 nodes, depth 2).
func wideAdd(n int) Expr {
	terms := make([]Expr, n)
	for i := range terms {
		terms[i] = One
	}
	return Add{Terms: terms}
}

// capEdgeInputs are the deep and wide inputs of limits_test.go plus
// inputs one node or one level either side of each cap.
func capEdgeInputs() []Expr {
	return []Expr{
		deepAdd(maxExprDepth * 4),
		deepAdd(maxExprDepth * 2),
		deepAdd(maxExprDepth + 5),
		deepAdd(maxExprDepth - 1), // depth exactly maxExprDepth
		deepAdd(maxExprDepth),     // one level past it
		wideAdd(maxExprNodes + 10),
		wideAdd(maxExprNodes - 1), // exactly maxExprNodes nodes
		wideAdd(maxExprNodes),     // one node past it
		notChain(maxExprDepth - 1),
		notChain(maxExprDepth),
	}
}

// keyRenderInputs is every expression the renderer is checked on: the
// FuzzSimplify seed expressions, the cap-edge inputs, random trees, and
// nil children and unknown implementations, which the key encodes but
// the caps do not count.
func keyRenderInputs() []Expr {
	var es []Expr
	for _, s := range simplifySeeds {
		es = append(es, decodeFuzzExpr(s))
	}
	es = append(es, capEdgeInputs()...)
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 400; i++ {
		es = append(es, genExpr(r, 4))
	}
	return append(es,
		Add{Terms: []Expr{nil, NewSym("x")}},
		Tagged{Cond: nil, E: NewSym("x")},
		Mul{Factors: []Expr{opaqueExpr{}, NewInt(-3)}},
		opaqueExpr{},
	)
}

// TestKeyRenderMatchesReference: the memo-key renderer writes the same
// key bytes as the reference renderer and reaches the same cap verdict
// as the reference pre-walk.
func TestKeyRenderMatchesReference(t *testing.T) {
	for i, e := range keyRenderInputs() {
		_, wantOver := refMeasure(e)
		key, over := renderedKey(e)
		if over != wantOver {
			t.Errorf("input %d: exceeded = %v, reference %v", i, over, wantOver)
			continue
		}
		if over {
			continue
		}
		if want := string(refAppendKey(nil, e)); key != want {
			t.Errorf("input %d: key %q, reference %q", i, key, want)
		}
	}
}

// TestMillionDeepDegrades: an input far deeper than the Go stack could
// recurse through degrades to ⊥ (Intern hands it back) without
// overflowing.
func TestMillionDeepDegrades(t *testing.T) {
	e := notChain(1_000_000)
	if _, over := refMeasure(e); !over {
		t.Fatal("reference pre-walk does not flag the chain")
	}
	if got := Simplify(e); !IsBottom(got) {
		t.Fatalf("Simplify = %v, want ⊥", got)
	}
	if got := CanonicalString(e); got != (Bottom{}).String() {
		t.Fatalf("CanonicalString = %q, want ⊥", got)
	}
	if got, ok := Intern(e).(Not); !ok || got.C.Kind() != KNot {
		t.Fatal("Intern did not hand the capped input back")
	}
}

// arithOperands returns operand pairs for the arithmetic combinators:
// random trees with neither operand a Set, Tagged or ⊥ at the top, the
// case the combinators hand straight to the memoized builder.
func arithOperands() [][2]Expr {
	r := rand.New(rand.NewSource(59))
	plain := func() Expr {
		for {
			e := genExpr(r, 3)
			switch e.(type) {
			case Set, Tagged, Bottom:
				continue
			}
			return e
		}
	}
	pairs := [][2]Expr{
		{NewSym("i"), One},
		{NewLambda("m"), NewInt(-1)},
		{ArrayRef{Name: "A_i", Indices: []Expr{NewSym("i")}}, NewBigLambda("n")},
	}
	for i := 0; i < 150; i++ {
		pairs = append(pairs, [2]Expr{plain(), plain()})
	}
	return pairs
}

// TestArithProbesTheBuiltKey: AddExpr, SubExpr and MulExpr look up the
// memo under the key of the Add/Mul they simplify, so simplifying that
// tree afterwards is a hit and not a second miss.
func TestArithProbesTheBuiltKey(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	defer ResetCache()
	for _, c := range []struct {
		name  string
		op    func(a, b Expr) Expr
		built func(a, b Expr) Expr
	}{
		{"AddExpr", AddExpr, func(a, b Expr) Expr { return Add{Terms: []Expr{a, b}} }},
		{"SubExpr", SubExpr, func(a, b Expr) Expr {
			return Add{Terms: []Expr{a, Mul{Factors: []Expr{NewInt(-1), b}}}}
		}},
		{"MulExpr", MulExpr, func(a, b Expr) Expr { return Mul{Factors: []Expr{a, b}} }},
	} {
		for _, p := range arithOperands() {
			ResetCache()
			got := c.op(p[0], p[1])
			before := ReadCacheStats()
			again := Simplify(c.built(p[0], p[1]))
			after := ReadCacheStats()
			if after.SimplifyMisses != before.SimplifyMisses || after.SimplifyHits != before.SimplifyHits+1 {
				t.Fatalf("%s(%s, %s): rebuilding the tree missed the memo (hits %d→%d, misses %d→%d)",
					c.name, p[0], p[1], before.SimplifyHits, after.SimplifyHits, before.SimplifyMisses, after.SimplifyMisses)
			}
			if !IsBottom(got) && got.String() != again.String() {
				t.Fatalf("%s(%s, %s) = %s, the tree simplifies to %s", c.name, p[0], p[1], got, again)
			}
		}
	}
}

// TestArithKeyIsTreeKey: the key rawArith renders from the operands is
// the key of the tree it builds on a miss, with the same cap verdict.
func TestArithKeyIsTreeKey(t *testing.T) {
	pairs := arithOperands()
	pairs = append(pairs,
		[2]Expr{deepAdd(maxExprDepth - 2), One}, // the tree is exactly at the depth cap
		[2]Expr{One, deepAdd(maxExprDepth - 2)}, // the subtrahend sits one level deeper
		[2]Expr{deepAdd(maxExprDepth), One},
		[2]Expr{wideAdd(maxExprNodes - 3), NewSym("x")},
		[2]Expr{NewSym("x"), wideAdd(maxExprNodes - 3)},
	)
	for _, op := range []arithOp{opAdd, opSub, opMul, opDiv, opMod} {
		for _, p := range pairs {
			r := newKeyRender()
			r.arith(op, p[0], p[1])
			key, over := string(r.b), r.over
			keyRenders.Put(r)
			wantKey, wantOver := renderedKey(arithTree(op, p[0], p[1]))
			if over != wantOver || (!over && key != wantKey) {
				t.Fatalf("op %c over (%.40s, %.40s): key %.60q over=%v, tree key %.60q over=%v",
					op, p[0], p[1], key, over, wantKey, wantOver)
			}
		}
	}
}

// TestShardHash pins the shard hash (it must not vary between runs, or
// shard eviction would) and checks that memo keys spread over the
// shards.
func TestShardHash(t *testing.T) {
	for _, c := range []struct {
		key  string
		want uint64
	}{
		{"", 0},
		{"+2:s1:ii1;", 0x26b0fe7b63a66c47},
		{"R+2:l7:irownnza3:A_i[1:s1:i;;+2:i1*2:i2G8:num_rows;;", 0xf4abc861662b41f0},
	} {
		if got := shardHash([]byte(c.key)); got != c.want {
			t.Errorf("shardHash(%q) = %#x, want %#x", c.key, got, c.want)
		}
	}
	var counts [cacheShardCount]int
	r := rand.New(rand.NewSource(61))
	seen := map[string]bool{}
	for len(seen) < 4000 {
		key := structuralKey(genExpr(r, 3))
		if !seen[key] {
			seen[key] = true
			counts[shardHash([]byte(key))&(cacheShardCount-1)]++
		}
	}
	for i, n := range counts {
		if share := len(seen) / cacheShardCount; n < share/2 || n > 2*share {
			t.Errorf("shard %d holds %d of %d keys", i, n, len(seen))
		}
	}
}
