package depend

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cminus"
	"repro/internal/faults"
	"repro/internal/normalize"
	"repro/internal/property"
	"repro/internal/ranges"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// Decision is the outcome of dependence testing for one loop.
type Decision struct {
	Label    string
	Parallel bool
	// Reason explains a negative decision (first blocking dependence).
	Reason string
	// Privates lists scalars to privatize when parallelizing.
	Privates []string
	// Reductions maps reduction scalars to their operators.
	Reductions map[string]string
	// RuntimeChecks are conditions that must hold at run time for the
	// parallel execution to be valid. Every engine evaluates them at
	// region entry (parallelize.LoopPlan.Checks) and runs the serial loop
	// when one fails.
	RuntimeChecks []symbolic.Expr
	// Guards are array-shaped runtime obligations: the subscript-array
	// properties the decision relied on, restated as entry checks that
	// scan the array (internal/guard). Every engine runs them after the
	// checks and falls back to the serial loop on failure. Only emitted
	// when the subscript is the loop index itself, so the scanned section
	// equals the accessed one.
	Guards []Guard
	// UsedProperties lists the subscript-array properties the decision
	// relied on (empty for purely classical decisions).
	UsedProperties []string
}

// CheckString renders the runtime checks as a C conjunction for the
// OpenMP if-clause.
func (d *Decision) CheckString() string {
	if len(d.RuntimeChecks) == 0 {
		return ""
	}
	parts := make([]string, len(d.RuntimeChecks))
	for i, c := range d.RuntimeChecks {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}

// Reduction is one reduction clause: a scalar and its operator.
type Reduction struct{ Name, Op string }

// SortedReductions returns the reduction clauses in name order. Each
// variable combines on its own, so the engines, which all walk the
// clauses in this order, reach the same result.
func (d *Decision) SortedReductions() []Reduction {
	out := make([]Reduction, 0, len(d.Reductions))
	for v, op := range d.Reductions {
		out = append(out, Reduction{v, op})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Tester runs dependence tests for loops of one function.
type Tester struct {
	// Props is the subscript-array property database (may be empty for
	// classical-only testing).
	Props *property.DB
	// Dict supplies symbol ranges for symbolic proofs.
	Dict *ranges.Dict
}

// NewTester returns a Tester; nil arguments become empty defaults.
func NewTester(props *property.DB, dict *ranges.Dict) *Tester {
	if props == nil {
		props = property.NewDB()
	}
	if dict == nil {
		dict = ranges.New()
	}
	return &Tester{Props: props, Dict: dict}
}

// Analyze decides whether loop can be run in parallel. When the range
// dictionary carries a pipeline trace, the whole test runs under a
// "depend" span so proof steps and pair counts are attributed to it.
func (t *Tester) Analyze(loop *cminus.ForStmt, meta *normalize.LoopMeta) *Decision {
	if tr, parent := t.Dict.TraceInfo(); tr.Enabled() {
		sp := tr.StartLoop(parent, "depend", "", loop.Label)
		defer tr.End(sp)
		d := t.Dict.Push()
		d.AttachTrace(tr, sp)
		t = &Tester{Props: t.Props, Dict: d}
	}
	return t.analyze(loop, meta)
}

func (t *Tester) analyze(loop *cminus.ForStmt, meta *normalize.LoopMeta) *Decision {
	t.Dict.Step(1)
	faults.Inject("depend.Analyze", loop.Label, t.Dict.Budget())
	d := &Decision{Label: loop.Label, Reductions: map[string]string{}}
	if meta == nil || !meta.Eligible {
		d.Reason = "loop not in canonical form"
		if meta != nil {
			d.Reason = meta.Reason
		}
		return d
	}
	info := CollectAccesses(loop, meta)
	if info.HasUnknownCall {
		d.Reason = "side-effecting call in body"
		return d
	}

	// Scalars: private, reduction, or blocking.
	names := make([]string, 0, len(info.ScalarWrites))
	for v := range info.ScalarWrites {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		if op, ok := info.Reductions[v]; ok && op != "" {
			d.Reductions[v] = op
			continue
		}
		if info.ScalarFirstIsWrite[v] {
			d.Privates = append(d.Privates, v)
			continue
		}
		d.Reason = fmt.Sprintf("cross-iteration scalar dependence on %q", v)
		return d
	}

	// Arrays: every pair involving a write must be provably disjoint
	// across iterations.
	byArray := map[string][]ArrayAccess{}
	for _, a := range info.Accesses {
		byArray[a.Array] = append(byArray[a.Array], a)
	}
	arrays := make([]string, 0, len(byArray))
	for a := range byArray {
		arrays = append(arrays, a)
	}
	sort.Strings(arrays)
	for _, arr := range arrays {
		accs := byArray[arr]
		hasWrite := false
		for _, a := range accs {
			if a.Kind == Write {
				hasWrite = true
			}
		}
		if !hasWrite {
			continue
		}
		for _, a := range accs {
			if a.Kind != Write {
				continue
			}
			// A write is checked against every access including itself
			// (output dependence across iterations).
			for _, b := range accs {
				t.Dict.Step(1)
				t.Dict.Count(trace.CounterPairs, 1)
				if ok, reason := t.pairIndependent(a, b, info, d); !ok {
					d.Reason = fmt.Sprintf("array %q: %s", arr, reason)
					return d
				}
			}
		}
	}
	d.Parallel = true
	return d
}

// pairIndependent proves that accesses a and b cannot touch the same
// element in different iterations of the tested loop.
func (t *Tester) pairIndependent(a, b ArrayAccess, info *LoopAccessInfo, d *Decision) (bool, string) {
	if len(a.Indices) != len(b.Indices) {
		return false, "dimensionality mismatch"
	}
	for dim := range a.Indices {
		if t.disjointDim(a.Indices[dim], b.Indices[dim], info, d) {
			return true, ""
		}
	}
	return false, fmt.Sprintf("cannot disprove dependence between %s and %s",
		renderAccess(a), renderAccess(b))
}

func renderAccess(a ArrayAccess) string {
	var sb strings.Builder
	sb.WriteString(a.Array)
	for _, ix := range a.Indices {
		fmt.Fprintf(&sb, "[%s]", ix)
	}
	return sb.String()
}

// disjointDim proves that subscripts s1 and s2 in one dimension can never
// be equal for two different values of the tested loop's index.
func (t *Tester) disjointDim(s1, s2 symbolic.Expr, info *LoopAccessInfo, d *Decision) bool {
	if symbolic.IsBottom(s1) || symbolic.IsBottom(s2) {
		return false
	}
	v := info.Meta.Var
	x := symbolic.NewSym(v)
	a1, r1, ok1 := symbolic.LinearIn(s1, x)
	a2, r2, ok2 := symbolic.LinearIn(s2, x)
	if ok1 && ok2 {
		l1, l2 := linear{a1, r1}, linear{a2, r2}
		// Case 1: affine subscripts with a common coefficient large
		// enough to out-stride the residual ranges (classical range
		// test).
		if t.affineDisjoint(l1, l2, info) {
			return true
		}
		// Case 1b: affine subscripts whose residual difference misses
		// every multiple of the coefficient gcd (classical GCD test).
		if t.gcdDisjoint(l1, l2, info) {
			return true
		}
	}
	// Case 2: identical subscripted subscript idx[g(v)] with idx known
	// injective (strictly monotonic).
	if t.injectiveSubscript(s1, s2, v, info, d) {
		return true
	}
	// Case 3: inner-loop index ranging over idx[f(v)] .. idx[f(v)+1] with
	// idx known monotonic: per-iteration windows are disjoint.
	if t.disjointWindows(s1, s2, v, info, d) {
		return true
	}
	// Case 4: multi-dimensional subscript array, range-monotonic w.r.t.
	// the dimension indexed by the tested loop variable.
	if t.multiDimDisjoint(s1, s2, v, info, d) {
		return true
	}
	return false
}

// linear is a subscript split as alpha*v + rest in the tested loop's
// index v (symbolic.LinearIn); rest may reference inner-loop variables.
type linear struct{ alpha, rest symbolic.Expr }

// affineDisjoint: s1 = a*v + r1, s2 = a*v + r2 with residual ranges
// narrower than the stride a.
func (t *Tester) affineDisjoint(s1, s2 linear, info *LoopAccessInfo) bool {
	a1, r1, r2 := s1.alpha, s1.rest, s2.rest
	if !symbolic.Equal(a1, s2.alpha) {
		return false
	}
	if symbolic.SignOf(a1, t.Dict) != symbolic.SignPositive {
		// Handle negative strides by negating.
		if symbolic.SignOf(a1, t.Dict) == symbolic.SignNegative {
			a1 = symbolic.NegExpr(a1)
			r1, r2 = symbolic.NegExpr(r1), symbolic.NegExpr(r2)
		} else {
			return false
		}
	}
	rl1, ru1, ok := t.boundInner(r1, info)
	if !ok {
		return false
	}
	rl2, ru2, ok := t.boundInner(r2, info)
	if !ok {
		return false
	}
	// No nonzero multiple of a in [rl2-ru1, ru2-rl1]:
	// a > ru2-rl1 and a > ru1-rl2.
	return symbolic.ProveGT(a1, symbolic.SubExpr(ru2, rl1), t.Dict) &&
		symbolic.ProveGT(a1, symbolic.SubExpr(ru1, rl2), t.Dict)
}

// gcdDisjoint: s1 = a1·v + r1 and s2 = a2·v + r2 with constant
// coefficients collide only if (r2-r1) ≡ 0 (mod gcd(a1,a2)); when the
// residual difference interval contains no such value, the accesses are
// independent for *any* pair of iterations (e.g. a[2i] never meets
// a[2i+1]).
func (t *Tester) gcdDisjoint(s1, s2 linear, info *LoopAccessInfo) bool {
	a1, ok1 := symbolic.AsInt(s1.alpha)
	a2, ok2 := symbolic.AsInt(s2.alpha)
	if !ok1 || !ok2 || a1 == 0 || a2 == 0 {
		return false
	}
	r1, r2 := s1.rest, s2.rest
	g := gcd64(abs64(a1), abs64(a2))
	if g <= 1 {
		return false
	}
	rl1, ru1, ok := t.boundInner(r1, info)
	if !ok {
		return false
	}
	rl2, ru2, ok := t.boundInner(r2, info)
	if !ok {
		return false
	}
	lo, okLo := symbolic.AsInt(symbolic.Simplify(symbolic.SubExpr(rl2, ru1)))
	hi, okHi := symbolic.AsInt(symbolic.Simplify(symbolic.SubExpr(ru2, rl1)))
	if !okLo || !okHi || lo > hi {
		// Symbolic residuals: check whether the difference is a single
		// constant (width-0 interval) not divisible by g.
		d, okD := symbolic.AsInt(symbolic.Simplify(symbolic.SubExpr(
			symbolic.SubExpr(rl2, rl1), symbolic.Zero)))
		if okD && symbolic.Equal(rl1, ru1) && symbolic.Equal(rl2, ru2) {
			return d%g != 0
		}
		return false
	}
	// Any multiple of g in [lo, hi]?
	first := (lo + g - 1) / g * g
	if lo <= 0 && hi >= 0 {
		return false // zero is a multiple
	}
	return first > hi
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// boundInner bounds an expression over the inner-loop index variables,
// substituting their affine iteration ranges. Fails if unbounded
// variables remain.
func (t *Tester) boundInner(r symbolic.Expr, info *LoopAccessInfo) (lo, hi symbolic.Expr, ok bool) {
	cur := r
	for pass := 0; pass < 3; pass++ {
		sub := symbolic.Subst{}
		for iv, rg := range info.InnerRanges {
			if symbolic.ContainsSym(cur, iv) {
				if symbolic.IsBottom(rg[0]) || symbolic.IsBottom(rg[1]) {
					return nil, nil, false
				}
				if symbolic.ContainsKind(rg[0], symbolic.KArrayRef) ||
					symbolic.ContainsKind(rg[1], symbolic.KArrayRef) {
					return nil, nil, false
				}
				sub[iv] = symbolic.NewRange(rg[0], rg[1])
			}
		}
		if len(sub) == 0 {
			break
		}
		cur = symbolic.Substitute(cur, sub)
	}
	// Any remaining inner variable is unbounded.
	for _, inner := range info.InnerLoops {
		if iv, _, ok := initVar(inner.Init); ok && symbolic.ContainsSym(cur, iv) {
			return nil, nil, false
		}
	}
	if symbolic.IsBottom(cur) {
		return nil, nil, false
	}
	lo, hi = symbolic.Bounds(symbolic.Simplify(cur))
	return lo, hi, true
}

// injectiveSubscript: both subscripts are idx[g(v)] (+ equal offset) for
// the same subscript array idx, g changes every iteration, and idx is
// known strictly monotonic. Emits the run-time section check.
func (t *Tester) injectiveSubscript(s1, s2 symbolic.Expr, v string, info *LoopAccessInfo, d *Decision) bool {
	ar1, off1, ok1 := splitIndirection(s1)
	ar2, off2, ok2 := splitIndirection(s2)
	if !ok1 || !ok2 {
		return false
	}
	if ar1.Name != ar2.Name || len(ar1.Indices) != 1 || len(ar2.Indices) != 1 {
		return false
	}
	if !symbolic.Equal(off1, off2) || !symbolic.Equal(ar1.Indices[0], ar2.Indices[0]) {
		return false
	}
	g := ar1.Indices[0]
	if coef, ok := linearIntCoef(g, v); !ok || coef == 0 {
		return false
	}
	// BestInjective accepts any fact that implies injectivity of the
	// section: strict monotone fills, direct injectivity facts, and
	// permutation facts (which survive value shuffles).
	p := t.Props.BestInjective(ar1.Name)
	if p == nil || p.NumDims != 1 {
		return false
	}
	t.emitSectionCheck(p, g, v, info, d)
	if identitySubscript(g, v) {
		if p.Monotone() && p.Strict && !p.Decreasing {
			addGuard(d, Guard{Array: ar1.Name, Kind: GuardMonotone, Strict: true})
		} else {
			addGuard(d, Guard{Array: ar1.Name, Kind: GuardInjective})
		}
	}
	return true
}

// splitIndirection decomposes s = idx[g] + c.
func splitIndirection(s symbolic.Expr) (symbolic.ArrayRef, symbolic.Expr, bool) {
	if ar, ok := s.(symbolic.ArrayRef); ok {
		return ar, symbolic.Zero, true
	}
	add, ok := s.(symbolic.Add)
	if !ok {
		return symbolic.ArrayRef{}, nil, false
	}
	var ar symbolic.ArrayRef
	found := false
	rest := []symbolic.Expr{}
	for _, term := range add.Terms {
		if a, isRef := term.(symbolic.ArrayRef); isRef && !found {
			ar = a
			found = true
			continue
		}
		rest = append(rest, term)
	}
	if !found {
		return symbolic.ArrayRef{}, nil, false
	}
	return ar, symbolic.Simplify(symbolic.Add{Terms: rest}), true
}

// disjointWindows: after loop normalization, a window access appears as
// idx[f(v)] + iv with iv ranging over [0 : idx[f(v)+1]-idx[f(v)]-1] — the
// original for (iv = idx[f]; iv < idx[f+1]; iv++) body access. Windows for
// different v do not overlap when idx is monotonic (non-strict suffices).
func (t *Tester) disjointWindows(s1, s2 symbolic.Expr, v string, info *LoopAccessInfo, d *Decision) bool {
	iv1, c1, ok1 := symOffset(s1)
	iv2, c2, ok2 := symOffset(s2)
	if !ok1 || !ok2 || iv1 != iv2 || !symbolic.Equal(c1, c2) {
		return false
	}
	// The shared offset must be a one-dimensional subscript-array read
	// idx[f(v)].
	ar, isRef := c1.(symbolic.ArrayRef)
	if !isRef || len(ar.Indices) != 1 {
		return false
	}
	f := ar.Indices[0]
	if coef, ok := linearIntCoef(f, v); !ok || coef == 0 {
		return false
	}
	// The inner variable's range must be exactly the window width:
	// [0 : idx[f+1] - idx[f] - 1].
	rng, has := info.InnerRanges[iv1]
	if !has {
		return false
	}
	if !symbolic.Equal(rng[0], symbolic.Zero) {
		return false
	}
	next := symbolic.ArrayRef{Name: ar.Name, Indices: []symbolic.Expr{symbolic.AddExpr(f, symbolic.One)}}
	wantHi := symbolic.SubExpr(symbolic.SubExpr(next, ar), symbolic.One)
	if !symbolic.Equal(rng[1], wantHi) {
		return false
	}
	// Window disjointness reasons about ordered sections, so only a
	// monotone fact qualifies — an injectivity-only fact says nothing
	// about the order of idx[f] and idx[f+1].
	p := t.Props.BestMonotone(ar.Name)
	if p == nil || p.NumDims != 1 || p.Decreasing {
		return false
	}
	// Non-strict monotonicity suffices for window disjointness.
	t.emitSectionCheck(p, f, v, info, d)
	if identitySubscript(f, v) {
		addGuard(d, Guard{Array: ar.Name, Kind: GuardMonotone, Window: true})
	}
	return true
}

// symOffset decomposes s = sym + c for a plain symbol.
func symOffset(s symbolic.Expr) (string, symbolic.Expr, bool) {
	if sym, ok := s.(symbolic.Sym); ok {
		return sym.Name, symbolic.Zero, true
	}
	add, ok := s.(symbolic.Add)
	if !ok {
		return "", nil, false
	}
	var name string
	rest := []symbolic.Expr{}
	for _, term := range add.Terms {
		if sym, isSym := term.(symbolic.Sym); isSym && name == "" {
			name = sym.Name
			continue
		}
		rest = append(rest, term)
	}
	if name == "" {
		return "", nil, false
	}
	return name, symbolic.Simplify(symbolic.Add{Terms: rest}), true
}

// multiDimDisjoint: subscript is idx[g(v)][*]... with idx range-monotonic
// and strict w.r.t. the dimension indexed by g(v).
func (t *Tester) multiDimDisjoint(s1, s2 symbolic.Expr, v string, info *LoopAccessInfo, d *Decision) bool {
	ar1, off1, ok1 := splitIndirection(s1)
	ar2, off2, ok2 := splitIndirection(s2)
	if !ok1 || !ok2 || ar1.Name != ar2.Name || !symbolic.Equal(off1, off2) {
		return false
	}
	// Multi-dimensional stride reasoning needs the ordered-range claim,
	// not just distinctness.
	p := t.Props.BestMonotone(ar1.Name)
	if p == nil || p.NumDims < 2 || !p.Strict {
		return false
	}
	if p.Dim >= len(ar1.Indices) || len(ar1.Indices) != p.NumDims || len(ar2.Indices) != p.NumDims {
		return false
	}
	g1 := ar1.Indices[p.Dim]
	g2 := ar2.Indices[p.Dim]
	if !symbolic.Equal(g1, g2) {
		return false
	}
	if coef, ok := linearIntCoef(g1, v); !ok || coef == 0 {
		return false
	}
	useProperty(d, p)
	if p.Dim == 0 && identitySubscript(g1, v) {
		addGuard(d, Guard{Array: ar1.Name, Kind: GuardRangeMono, Strict: true})
	}
	return true
}

// useProperty lists p among the facts the decision rests on, once: every
// dependence pair that rests on the same fact reaches here, and the list
// keeps first-use order.
func useProperty(d *Decision, p *property.ArrayProperty) {
	if s := p.String(); !slices.Contains(d.UsedProperties, s) {
		d.UsedProperties = append(d.UsedProperties, s)
	}
}

// emitSectionCheck records that the accessed subscript section must lie
// within the array's known monotonic section; for intermittent sequences
// the upper end (counter_max) is only known at run time, producing the
// paper's "-1+num_rownnz <= irownnz_max" style condition.
func (t *Tester) emitSectionCheck(p *property.ArrayProperty, g symbolic.Expr, v string, info *LoopAccessInfo, d *Decision) {
	useProperty(d, p)
	if p.Kind != property.KindIntermittent || p.IndexHi == nil {
		return
	}
	n := convertSubscript(info.Meta.Count)
	gMax := symbolic.Substitute(g, symbolic.Subst{v: symbolic.SubExpr(n, symbolic.One)})
	check := symbolic.Simplify(symbolic.Cmp{Op: symbolic.OpLE, L: gMax, R: p.IndexHi})
	for _, c := range d.RuntimeChecks {
		if symbolic.Equal(c, check) {
			return
		}
	}
	d.RuntimeChecks = append(d.RuntimeChecks, check)
}

// linearIntCoef returns the coefficient of v in e when e is linear in v
// with an integer coefficient.
func linearIntCoef(e symbolic.Expr, v string) (int64, bool) {
	alpha, _, ok := symbolic.LinearIn(e, symbolic.NewSym(v))
	if !ok {
		return 0, false
	}
	return symbolic.AsInt(alpha)
}
