package symbolic

import (
	"testing"
)

// deepAdd builds an Add chain of the given nesting depth iteratively (the
// test harness must not itself recurse).
func deepAdd(depth int) Expr {
	e := Expr(NewSym("x"))
	for i := 0; i < depth; i++ {
		e = Add{Terms: []Expr{e, One}}
	}
	return e
}

func TestDepthCapDegradesToBottom(t *testing.T) {
	before := ReadCacheStats().CapHits
	e := deepAdd(maxExprDepth * 4)
	if got := Simplify(e); !IsBottom(got) {
		t.Fatalf("Simplify(deep) = %v, want ⊥", got)
	}
	if got := CanonicalString(e); got != (Bottom{}).String() {
		t.Fatalf("CanonicalString(deep) = %q", got)
	}
	if after := ReadCacheStats().CapHits; after <= before {
		t.Fatalf("CapHits did not increase (%d -> %d)", before, after)
	}
}

func TestNodeCapDegradesToBottom(t *testing.T) {
	// Shallow but enormous: one Add with maxExprNodes+10 children.
	terms := make([]Expr, maxExprNodes+10)
	for i := range terms {
		terms[i] = One
	}
	if got := Simplify(Add{Terms: terms}); !IsBottom(got) {
		t.Fatalf("Simplify(wide) = %v, want ⊥", got)
	}
}

func TestCapIsDeterministicAcrossCacheStates(t *testing.T) {
	e := deepAdd(maxExprDepth * 2)
	warm := Simplify(e)
	again := Simplify(e)
	prev := SetCacheEnabled(false)
	cold := Simplify(e)
	SetCacheEnabled(prev)
	if !IsBottom(warm) || !IsBottom(again) || !IsBottom(cold) {
		t.Fatalf("capped results differ: warm=%v again=%v cold=%v", warm, again, cold)
	}
}

func TestWithinLimitsUnaffected(t *testing.T) {
	e := AddExpr(NewSym("n"), NewInt(3))
	if got := Simplify(e).String(); got != AddExpr(NewSym("n"), NewInt(3)).String() {
		// The exact rendering is covered elsewhere; here we only require
		// that a normal expression does not degrade.
		if IsBottom(Simplify(e)) {
			t.Fatalf("small expression degraded to ⊥")
		}
		_ = got
	}
}

func TestMeasureCountsNodes(t *testing.T) {
	r := renderKey(AddExpr(NewSym("a"), NewSym("b")))
	defer keyRenders.Put(r)
	if r.over || r.nodes != 3 {
		t.Fatalf("render counted %d nodes (over=%v), want 3", r.nodes, r.over)
	}
	deep := renderKey(deepAdd(maxExprDepth + 5))
	defer keyRenders.Put(deep)
	if !deep.over {
		t.Fatalf("deep expression not flagged")
	}
	// The render stops at the first node past the depth cap: one chain
	// of Add nodes and the 1s beside them, never the rest of the input.
	if deep.nodes > 2*maxExprDepth {
		t.Fatalf("render visited %d nodes of a capped input", deep.nodes)
	}
}
