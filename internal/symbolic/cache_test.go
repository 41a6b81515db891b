package symbolic

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// structuralKey is e's memo key as a string.
func structuralKey(e Expr) string {
	key, _ := renderedKey(e)
	return key
}

// renderedKey is e's memo key and whether e exceeds the structural caps.
func renderedKey(e Expr) (key string, exceeded bool) {
	r := renderKey(e)
	defer keyRenders.Put(r)
	return string(r.b), r.over
}

// ---- random expression generation ----

var genNames = []string{"n", "m", "i", "num_rows", "bs", "x"}

func genLeaf(r *rand.Rand) Expr {
	switch r.Intn(6) {
	case 0:
		return NewInt(int64(r.Intn(21) - 10))
	case 1:
		return NewSym(genNames[r.Intn(len(genNames))])
	case 2:
		return NewLambda(genNames[r.Intn(len(genNames))])
	case 3:
		return NewBigLambda(genNames[r.Intn(len(genNames))])
	case 4:
		return Bottom{}
	default:
		return NewInt(int64(r.Intn(5)))
	}
}

func genCond(r *rand.Rand, depth int) Expr {
	switch r.Intn(5) {
	case 0:
		return BoolLit{Val: r.Intn(2) == 0}
	case 1:
		if depth > 0 {
			return Not{C: genCond(r, depth-1)}
		}
		return BoolLit{Val: true}
	case 2:
		if depth > 0 {
			return And{Conds: []Expr{genCond(r, depth-1), genCond(r, depth-1)}}
		}
		fallthrough
	case 3:
		if depth > 0 {
			return Or{Conds: []Expr{genCond(r, depth-1), genCond(r, depth-1)}}
		}
		fallthrough
	default:
		return Cmp{Op: CmpOp(r.Intn(6)), L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	}
}

func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		return genLeaf(r)
	}
	kids := func(n int) []Expr {
		out := make([]Expr, n)
		for i := range out {
			out[i] = genExpr(r, depth-1)
		}
		return out
	}
	switch r.Intn(13) {
	case 0:
		return Add{Terms: kids(2 + r.Intn(2))}
	case 1:
		return Mul{Factors: kids(2)}
	case 2:
		return Div{Num: genExpr(r, depth-1), Den: genExpr(r, depth-1)}
	case 3:
		return Mod{Num: genExpr(r, depth-1), Den: genExpr(r, depth-1)}
	case 4:
		return Min{Args: kids(2 + r.Intn(2))}
	case 5:
		return Max{Args: kids(2 + r.Intn(2))}
	case 6:
		return Range{Lo: genExpr(r, depth-1), Hi: genExpr(r, depth-1)}
	case 7:
		return ArrayRef{Name: genNames[r.Intn(len(genNames))], Indices: kids(1 + r.Intn(2))}
	case 8:
		return Tagged{Cond: genCond(r, depth-1), E: genExpr(r, depth-1)}
	case 9:
		return Set{Items: kids(2)}
	case 10:
		return Mono{Base: genExpr(r, depth-1), Strict: r.Intn(2) == 0, Dim: r.Intn(3)}
	case 11:
		return genCond(r, depth-1)
	default:
		return genLeaf(r)
	}
}

// exprGen adapts the random expression builder to testing/quick.
type exprGen struct{ E Expr }

// Generate implements quick.Generator.
func (exprGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(exprGen{E: genExpr(r, 3)})
}

// ---- properties ----

// TestQuickCachedMatchesUncached: for random expressions, the memoized
// Simplify and CanonicalString results must equal the uncached ones, and
// simplification must stay idempotent through the cache.
func TestQuickCachedMatchesUncached(t *testing.T) {
	defer SetCacheEnabled(SetCacheEnabled(true))
	prop := func(g exprGen) bool {
		SetCacheEnabled(false)
		want := Simplify(g.E).String()
		SetCacheEnabled(true)
		s := Simplify(g.E)
		if s.String() != want {
			t.Logf("cached %q != uncached %q for %s", s.String(), want, g.E)
			return false
		}
		if Simplify(s).String() != want {
			t.Logf("not idempotent through cache: %s", g.E)
			return false
		}
		if CanonicalString(g.E) != want {
			t.Logf("CanonicalString mismatch for %s", g.E)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInternPreservesStructure: interning returns a structurally
// identical expression, and repeated interning of equal expressions
// returns one shared instance.
func TestQuickInternPreservesStructure(t *testing.T) {
	prop := func(g exprGen) bool {
		a := Intern(g.E)
		b := Intern(g.E)
		if a.String() != g.E.String() || structuralKey(a) != structuralKey(g.E) {
			return false
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCompareContract: the canonical-string memo behind Equal (the
// Compare hit/miss counters) answers consistently: Equal is reflexive
// and symmetric, and a cached render matches an uncached one.
func TestQuickCompareContract(t *testing.T) {
	prop := func(a, b exprGen) bool {
		if !Equal(a.E, a.E) || Equal(a.E, b.E) != Equal(b.E, a.E) {
			return false
		}
		cached := CanonicalString(a.E)
		prev := SetCacheEnabled(false)
		uncached := CanonicalString(a.E)
		SetCacheEnabled(prev)
		return cached == uncached
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSimplifyAgreesWithSerial: 8 goroutines hammering the
// shared caches over the same expression set must each produce exactly
// the serial (uncached) answers. Run under -race this also exercises the
// shard locking.
func TestConcurrentSimplifyAgreesWithSerial(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const nExprs = 250
	exprs := make([]Expr, nExprs)
	for i := range exprs {
		exprs[i] = genExpr(r, 3)
	}
	defer SetCacheEnabled(SetCacheEnabled(true))
	SetCacheEnabled(false)
	want := make([]string, nExprs)
	for i, e := range exprs {
		want[i] = Simplify(e).String()
	}
	SetCacheEnabled(true)
	ResetCache()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker visits the expressions in a different order so
			// cache fills race from every direction.
			for k := 0; k < nExprs; k++ {
				i := (k*7 + w*31) % nExprs
				if got := Simplify(exprs[i]).String(); got != want[i] {
					errs <- fmt.Sprintf("worker %d: Simplify(%s) = %q, want %q", w, exprs[i], got, want[i])
					return
				}
				if got := CanonicalString(exprs[i]); got != want[i] {
					errs <- fmt.Sprintf("worker %d: CanonicalString mismatch on %s", w, exprs[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := ReadCacheStats()
	if st.SimplifyHits == 0 {
		t.Error("expected cache hits from 8 workers over a shared expression set")
	}
}

// TestCacheBounded: flooding the cache with distinct expressions must
// trigger epoch eviction and keep the entry count under the global cap.
func TestCacheBounded(t *testing.T) {
	ResetCache()
	defer ResetCache()
	for i := 0; i < 3*cacheShardCount*cacheShardCap/2; i++ {
		Simplify(Add{Terms: []Expr{NewSym(fmt.Sprintf("v%d", i)), One}})
	}
	st := ReadCacheStats()
	if st.Entries > cacheShardCount*cacheShardCap {
		t.Errorf("cache unbounded: %d entries > cap %d", st.Entries, cacheShardCount*cacheShardCap)
	}
	if st.Evictions == 0 {
		t.Error("expected at least one shard eviction")
	}
}

// TestStructuralKeyInjective: expressions whose String renderings collide
// (a known lossy case: Tagged drops its condition, Sym can render like an
// Int) must still get distinct cache keys.
func TestStructuralKeyInjective(t *testing.T) {
	pairs := [][2]Expr{
		{Tagged{Cond: BoolLit{Val: true}, E: NewSym("x")},
			Tagged{Cond: BoolLit{Val: false}, E: NewSym("x")}},
		{NewSym("5"), NewInt(5)},
		{NewSym("λ_x"), NewLambda("x")},
		{Cmp{Op: OpLT, L: NewSym("a"), R: NewSym("bc")},
			Cmp{Op: OpLT, L: NewSym("ab"), R: NewSym("c")}},
	}
	for _, p := range pairs {
		if structuralKey(p[0]) == structuralKey(p[1]) {
			t.Errorf("key collision: %s vs %s", p[0], p[1])
		}
	}
}

// BenchmarkSimplifyCached measures the memoized vs raw engine on a
// representative expression mix.
func BenchmarkSimplifyCached(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	exprs := make([]Expr, 64)
	for i := range exprs {
		exprs[i] = genExpr(r, 3)
	}
	run := func(b *testing.B, cached bool) {
		defer SetCacheEnabled(SetCacheEnabled(cached))
		ResetCache()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Simplify(exprs[i%len(exprs)])
		}
	}
	b.Run("on", func(b *testing.B) { run(b, true) })
	b.Run("off", func(b *testing.B) { run(b, false) })
}
