package property

import (
	"strings"
	"testing"

	"repro/internal/symbolic"
)

func TestStringRendering(t *testing.T) {
	p := &ArrayProperty{
		Array:      "A_rownnz",
		Kind:       KindIntermittent,
		Strict:     true,
		NumDims:    1,
		IndexLo:    symbolic.Zero,
		IndexHi:    symbolic.NewSym("irownnz_max"),
		ValueRange: symbolic.NewRange(symbolic.Zero, symbolic.SubExpr(symbolic.NewSym("num_rows"), symbolic.One)),
	}
	got := p.String()
	want := "A_rownnz[0:irownnz_max] = [0:-1+num_rows]#SMA"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
	md := &ArrayProperty{
		Array:   "idel",
		Kind:    KindMultiDim,
		Strict:  true,
		Dim:     0,
		NumDims: 4,
		IndexLo: symbolic.Zero,
		IndexHi: symbolic.SubExpr(symbolic.NewSym("LELT"), symbolic.One),
	}
	if !strings.Contains(md.String(), "#(SMA;0)") || !strings.Contains(md.String(), "[*][*][*]") {
		t.Errorf("multi-dim rendering: %s", md)
	}
	nonStrict := &ArrayProperty{Array: "p", Kind: KindSRA, NumDims: 1}
	if !strings.HasSuffix(nonStrict.String(), "#MA") {
		t.Errorf("non-strict rendering: %s", nonStrict)
	}
}

func TestInjective(t *testing.T) {
	if (&ArrayProperty{Strict: true}).Injective() != true {
		t.Error("strict is injective")
	}
	if (&ArrayProperty{Strict: false}).Injective() != false {
		t.Error("non-strict is not injective")
	}
}

func TestDBBestPrefersStrict(t *testing.T) {
	db := NewDB()
	db.Add(&ArrayProperty{Array: "a", Strict: false})
	db.Add(&ArrayProperty{Array: "a", Strict: true})
	if p := db.BestMonotone("a"); p == nil || !p.Strict {
		t.Error("BestMonotone should prefer the strict property")
	}
	if db.BestMonotone("missing") != nil {
		t.Error("missing array has no property")
	}
	if len(db.Lookup("a")) != 2 {
		t.Error("Lookup should return all")
	}
}

func TestDBArraysSorted(t *testing.T) {
	db := NewDB()
	db.Add(&ArrayProperty{Array: "zz"})
	db.Add(&ArrayProperty{Array: "aa"})
	got := db.Arrays()
	if len(got) != 2 || got[0] != "aa" || got[1] != "zz" {
		t.Errorf("got %v", got)
	}
	if !strings.Contains(db.String(), "aa") {
		t.Error("String should render all entries")
	}
}

func TestKindString(t *testing.T) {
	if KindSRA.String() != "SRA" || KindIntermittent.String() != "intermittent" || KindMultiDim.String() != "multi-dim" {
		t.Error("kind names")
	}
}

func TestLatticeRanks(t *testing.T) {
	perm := &ArrayProperty{Array: "p", Kind: KindPermutation}
	smas := &ArrayProperty{Array: "p", Kind: KindSRA, Strict: true}
	inj := &ArrayProperty{Array: "p", Kind: KindInjective}
	ma := &ArrayProperty{Array: "p", Kind: KindSRA}
	if !(perm.Rank() > smas.Rank() && smas.Rank() > inj.Rank() && inj.Rank() > ma.Rank()) {
		t.Errorf("rank order: PERM=%d SMA=%d INJ=%d MA=%d",
			perm.Rank(), smas.Rank(), inj.Rank(), ma.Rank())
	}
	// Implication order: Permutation ⇒ Injective, SMA ⇒ Injective;
	// injectivity-only facts carry no monotonicity claim.
	if !perm.Injective() || !perm.Permutation() || perm.Monotone() {
		t.Error("permutation fact: injective, not monotone")
	}
	if !smas.Injective() || !smas.Monotone() || smas.Permutation() {
		t.Error("strict SRA: injective and monotone, not a permutation")
	}
	if !inj.Injective() || inj.Monotone() || inj.Permutation() {
		t.Error("injective fact: injective only")
	}
	if ma.Injective() || !ma.Monotone() {
		t.Error("non-strict MA: monotone only")
	}
}

func TestBestSelectors(t *testing.T) {
	db := NewDB()
	db.Add(&ArrayProperty{Array: "p", Kind: KindSRA})
	db.Add(&ArrayProperty{Array: "p", Kind: KindInjective})
	// BestInjective must skip the monotone-only fact; BestMonotone must
	// skip the injectivity-only fact (soundness: an unordered injective
	// section must not satisfy window-disjointness consumers).
	if got := db.BestInjective("p"); got == nil || got.Kind != KindInjective {
		t.Errorf("BestInjective = %v", got)
	}
	if got := db.BestMonotone("p"); got == nil || got.Kind != KindSRA {
		t.Errorf("BestMonotone = %v", got)
	}
	db.Add(&ArrayProperty{Array: "p", Kind: KindPermutation})
	if got := db.BestInjective("p"); got == nil || got.Kind != KindPermutation {
		t.Errorf("BestInjective should prefer the permutation fact, got %v", got)
	}
	if got := db.BestMonotone("p"); got == nil || got.Kind != KindSRA {
		t.Errorf("BestMonotone must skip the unordered permutation fact, got %v", got)
	}
	if db.BestInjective("missing") != nil || db.BestMonotone("missing") != nil {
		t.Error("missing array has no facts")
	}
	onlyInj := NewDB()
	onlyInj.Add(&ArrayProperty{Array: "q", Kind: KindInjective})
	if onlyInj.BestMonotone("q") != nil {
		t.Error("injectivity-only DB must yield no monotone fact")
	}
}

func TestInvalidateAndReplace(t *testing.T) {
	db := NewDB()
	db.Add(&ArrayProperty{Array: "p", Kind: KindSRA, Strict: true})
	db.Add(&ArrayProperty{Array: "q", Kind: KindSRA})
	db.Invalidate("p")
	if len(db.Lookup("p")) != 0 {
		t.Error("Invalidate must drop all facts of the array")
	}
	if len(db.Lookup("q")) == 0 {
		t.Error("Invalidate must not touch other arrays")
	}
	db.Replace("q", []*ArrayProperty{{Array: "q", Kind: KindInjective}})
	if got := db.Lookup("q"); len(got) != 1 || got[0].Kind != KindInjective {
		t.Errorf("Replace should substitute the fact list, got %v", got)
	}
	db.Replace("q", nil)
	if len(db.Lookup("q")) != 0 {
		t.Error("Replace with an empty list invalidates")
	}
}

func TestLatticeRendering(t *testing.T) {
	inj := &ArrayProperty{
		Array: "p", Kind: KindInjective, NumDims: 1,
		IndexLo: symbolic.Zero, IndexHi: symbolic.NewSym("m"),
	}
	if !strings.HasSuffix(inj.String(), "#INJ") {
		t.Errorf("injective rendering: %s", inj)
	}
	perm := &ArrayProperty{
		Array: "p", Kind: KindPermutation, NumDims: 1,
		IndexLo:    symbolic.Zero,
		IndexHi:    symbolic.SubExpr(symbolic.NewSym("n"), symbolic.One),
		ValueRange: symbolic.NewRange(symbolic.Zero, symbolic.SubExpr(symbolic.NewSym("n"), symbolic.One)),
	}
	if got := perm.String(); got != "p[0:-1+n] = [0:-1+n]#PERM" {
		t.Errorf("permutation rendering: %q", got)
	}
	if KindInjective.String() != "injective" || KindPermutation.String() != "permutation" {
		t.Error("kind names for the lattice extension")
	}
	if KindInjective.Monotone() || KindPermutation.Monotone() || !KindSRA.Monotone() {
		t.Error("Kind.Monotone classification")
	}
}
