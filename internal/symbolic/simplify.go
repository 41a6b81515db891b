package symbolic

import (
	"slices"
	"sort"
	"strings"
)

// Simplify returns the canonical form of e: sums are flattened into a
// linear combination of atoms with folded constants, products distribute
// over sums, range arithmetic is applied ([a:b]+[c:d] = [a+c:b+d], and
// k*[a:b] for constant k distributes into the bounds), and ⊥ absorbs any
// arithmetic it participates in. Boolean expressions are simplified
// recursively. The result is deterministic, so String equality on
// simplified expressions is a sound equality test.
//
// Results are memoized in a bounded, sharded, concurrency-safe cache (see
// cache.go); because simplification is deterministic, a cached result is
// identical to a recomputed one.
func Simplify(e Expr) Expr {
	if e == nil {
		return Bottom{}
	}
	// Leaves are already canonical; skip the cache key entirely.
	if isLeaf(e) {
		return e
	}
	// Rendering the memo key also applies the structural caps: an input
	// too deep or too large to canonicalize degrades to ⊥ before any
	// recursion (see limits.go). Children seen during recursive
	// simplification are subtrees of a rendered input, so they pass
	// their own (smaller) check.
	r := renderKey(e)
	defer keyRenders.Put(r)
	return r.simplify(e)
}

// isLeaf reports whether e is an atom Simplify returns unchanged.
func isLeaf(e Expr) bool {
	switch e.(type) {
	case Int, Sym, Lambda, BigLambda, Bottom, BoolLit:
		return true
	}
	return false
}

// simplify returns Simplify(e) for a non-leaf e whose key r holds.
func (r *keyRender) simplify(e Expr) Expr {
	if v, ok := r.probe(); ok {
		return v
	}
	return r.fill(e)
}

// probe looks up the memoized Simplify result for the key r holds: ⊥
// when the rendered input exceeded the caps, the stored result on a hit.
func (r *keyRender) probe() (Expr, bool) {
	if r.over {
		capHits.Add(1)
		return Bottom{}, true
	}
	if cacheOff.Load() {
		return nil, false
	}
	return simpCache.get(r.b)
}

// fill simplifies e, whose key r holds, and memoizes the result.
func (r *keyRender) fill(e Expr) Expr {
	v := simplify1(e)
	if cacheOff.Load() {
		return v
	}
	v = Intern(v)
	simpCache.put(r.b, v)
	return v
}

// simplify1 performs one full (uncached) canonicalization of e; recursive
// work on sub-expressions still goes through the memoized Simplify.
func simplify1(e Expr) Expr {
	switch x := e.(type) {
	case Int, Sym, Lambda, BigLambda, Bottom, BoolLit:
		return e
	case Add, Mul:
		return emitValue(nf(e))
	case Div:
		num, den := Simplify(x.Num), Simplify(x.Den)
		if IsBottom(num) || IsBottom(den) {
			return Bottom{}
		}
		if nv, ok := AsInt(num); ok {
			if dv, ok2 := AsInt(den); ok2 && dv != 0 {
				return NewInt(nv / dv)
			}
		}
		if dv, ok := AsInt(den); ok && dv == 1 {
			return num
		}
		return Div{Num: num, Den: den}
	case Mod:
		num, den := Simplify(x.Num), Simplify(x.Den)
		if IsBottom(num) || IsBottom(den) {
			return Bottom{}
		}
		if nv, ok := AsInt(num); ok {
			if dv, ok2 := AsInt(den); ok2 && dv != 0 {
				return NewInt(nv % dv)
			}
		}
		return Mod{Num: num, Den: den}
	case Min:
		return simplifyMinMax(x.Args, true)
	case Max:
		return simplifyMinMax(x.Args, false)
	case ArrayRef:
		idx := simplifyAll(x.Indices)
		return ArrayRef{Name: x.Name, Indices: idx}
	case Call:
		return Call{Name: x.Name, Args: simplifyAll(x.Args)}
	case Range:
		lo, hi := Simplify(x.Lo), Simplify(x.Hi)
		if IsBottom(lo) || IsBottom(hi) {
			return Bottom{}
		}
		// Flatten nested ranges: a range whose bounds are themselves
		// ranges covers [lo.Lo : hi.Hi] (arises when substituting a range
		// for a variable inside another range's bounds).
		if lr, ok := lo.(Range); ok {
			lo = lr.Lo
		}
		if hr, ok := hi.(Range); ok {
			hi = hr.Hi
		}
		if lo.String() == hi.String() {
			return lo
		}
		return Range{Lo: lo, Hi: hi}
	case Tagged:
		return Tagged{Cond: Simplify(x.Cond), E: Simplify(x.E)}
	case Set:
		items := simplifyAll(x.Items)
		return NewSet(items...)
	case Mono:
		return Mono{Base: Simplify(x.Base), Strict: x.Strict, Dim: x.Dim}
	case Cmp:
		return simplifyCmp(x)
	case And:
		return simplifyAnd(x.Conds)
	case Or:
		return simplifyOr(x.Conds)
	case Not:
		return simplifyNot(x.C)
	}
	return e
}

func simplifyAll(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Simplify(e)
	}
	return out
}

func simplifyMinMax(args []Expr, isMin bool) Expr {
	args = simplifyAll(args)
	var consts []int64
	var rest []Expr
	for _, a := range args {
		if IsBottom(a) {
			return Bottom{}
		}
		if v, ok := AsInt(a); ok {
			consts = append(consts, v)
			continue
		}
		rest = append(rest, a)
	}
	if len(consts) > 0 {
		best := consts[0]
		for _, v := range consts[1:] {
			if (isMin && v < best) || (!isMin && v > best) {
				best = v
			}
		}
		rest = append(rest, NewInt(best))
	}
	uniq := uniqByString(rest)
	if len(uniq) == 1 {
		return uniq[0]
	}
	if folded, ok := foldConstantOffsets(uniq, isMin); ok {
		return folded
	}
	if isMin {
		return Min{Args: uniq}
	}
	return Max{Args: uniq}
}

// foldConstantOffsets resolves min/max over expressions that differ only
// by integer constants (e.g. min(λ+4, λ, λ+20) = λ): the comparison
// reduces to comparing the constants.
func foldConstantOffsets(args []Expr, isMin bool) (Expr, bool) {
	if len(args) < 2 {
		return nil, false
	}
	base := nf(args[0])
	if base.invalid || base.isRange {
		return nil, false
	}
	bestIdx, bestDiff := 0, int64(0)
	for i := 1; i < len(args); i++ {
		v := nf(args[i])
		if v.invalid || v.isRange {
			return nil, false
		}
		c, ok := v.lo.plus(base.lo.scale(-1)).constVal()
		if !ok {
			return nil, false
		}
		if (isMin && c < bestDiff) || (!isMin && c > bestDiff) {
			bestIdx, bestDiff = i, c
		}
	}
	return args[bestIdx], true
}

// ---- linear normal form ----

// term is coef * product(atoms); atoms are canonical non-constant factors
// sorted by their string form. key is those forms joined by "*" (empty
// for the constant term), rendered once when the term is built.
type term struct {
	coef  int64
	atoms []Expr
	key   string
}

// linsum is a canonical linear combination: terms with distinct keys and
// non-zero coefficients, sorted by key, so a constant term (empty key)
// comes first. A linsum is never modified once built; operations return
// new sums, which may share the operands' backing arrays.
type linsum []term

// constLin is the linsum of the constant c.
func constLin(c int64) linsum {
	if c == 0 {
		return nil
	}
	return linsum{{coef: c}}
}

// plus returns l+o, merging the two key-sorted term lists. A term whose
// coefficients cancel is dropped; on equal keys l's term supplies the
// atoms.
func (l linsum) plus(o linsum) linsum {
	if len(l) == 0 {
		return o
	}
	if len(o) == 0 {
		return l
	}
	out := make(linsum, 0, len(l)+len(o))
	i, j := 0, 0
	for i < len(l) && j < len(o) {
		switch c := strings.Compare(l[i].key, o[j].key); {
		case c < 0:
			out = append(out, l[i])
			i++
		case c > 0:
			out = append(out, o[j])
			j++
		default:
			t := l[i]
			t.coef += o[j].coef
			if t.coef != 0 {
				out = append(out, t)
			}
			i++
			j++
		}
	}
	out = append(out, l[i:]...)
	return append(out, o[j:]...)
}

func (l linsum) scale(c int64) linsum {
	if c == 1 {
		return l
	}
	out := make(linsum, 0, len(l))
	for _, t := range l {
		if t.coef *= c; t.coef != 0 {
			out = append(out, t)
		}
	}
	return out
}

func (l linsum) constVal() (int64, bool) {
	switch len(l) {
	case 0:
		return 0, true
	case 1:
		if len(l[0].atoms) == 0 {
			return l[0].coef, true
		}
	}
	return 0, false
}

func mulLin(a, b linsum) (linsum, bool) {
	// Distribute; refuse if the result would be enormous.
	if len(a)*len(b) > 256 {
		return nil, false
	}
	if c, ok := a.constVal(); ok {
		return b.scale(c), true
	}
	if c, ok := b.constVal(); ok {
		return a.scale(c), true
	}
	bkeys := make([][]string, len(b))
	for j, y := range b {
		bkeys[j] = atomKeys(y)
	}
	out := make(linsum, 0, len(a)*len(b))
	for _, x := range a {
		xk := atomKeys(x)
		for j, y := range b {
			out = append(out, mulTerms(x, xk, y, bkeys[j]))
		}
	}
	// Products of distinct term pairs may share a key: sort, then sum
	// equal keys and drop those that cancel.
	slices.SortStableFunc(out, func(x, y term) int { return strings.Compare(x.key, y.key) })
	merged := out[:0]
	for _, t := range out {
		if n := len(merged); n > 0 && merged[n-1].key == t.key {
			merged[n-1].coef += t.coef
		} else {
			merged = append(merged, t)
		}
	}
	return slices.DeleteFunc(merged, func(t term) bool { return t.coef == 0 }), true
}

// atomKeys returns the rendered form of each of t's atoms. A single
// atom's form is t's key, so only multi-atom terms render again.
func atomKeys(t term) []string {
	switch len(t.atoms) {
	case 0:
		return nil
	case 1:
		return []string{t.key}
	}
	ks := make([]string, len(t.atoms))
	for i, a := range t.atoms {
		ks[i] = a.String()
	}
	return ks
}

// mulTerms multiplies two terms whose atoms are sorted by the given keys,
// merging the atom lists (x's atom first on equal keys) and their keys.
func mulTerms(x term, xk []string, y term, yk []string) term {
	coef := x.coef * y.coef
	switch {
	case len(xk) == 0:
		return term{coef: coef, atoms: y.atoms, key: y.key}
	case len(yk) == 0:
		return term{coef: coef, atoms: x.atoms, key: x.key}
	}
	atoms := make([]Expr, 0, len(xk)+len(yk))
	var key strings.Builder
	key.Grow(len(x.key) + 1 + len(y.key))
	i, j := 0, 0
	for i < len(xk) || j < len(yk) {
		if i+j > 0 {
			key.WriteByte('*')
		}
		if j == len(yk) || i < len(xk) && xk[i] <= yk[j] {
			atoms = append(atoms, x.atoms[i])
			key.WriteString(xk[i])
			i++
		} else {
			atoms = append(atoms, y.atoms[j])
			key.WriteString(yk[j])
			j++
		}
	}
	return term{coef: coef, atoms: atoms, key: key.String()}
}

// value is the normal form of an expression: either a single linsum or a
// range of two linsums. invalid marks ⊥.
type value struct {
	lo, hi  linsum
	isRange bool
	invalid bool
}

func scalarValue(l linsum) value { return value{lo: l} }

func bottomValue() value { return value{invalid: true} }

// nf computes the normal form of e. Opaque sub-expressions (array refs,
// calls, min/max, div/mod, tagged, sets, mono) become atoms after internal
// simplification.
func nf(e Expr) value {
	switch x := e.(type) {
	case Int:
		return scalarValue(constLin(x.Val))
	case Bottom:
		return bottomValue()
	case Add:
		acc := scalarValue(nil)
		for _, t := range x.Terms {
			acc = addValues(acc, nf(t))
			if acc.invalid {
				return acc
			}
		}
		return acc
	case Mul:
		acc := scalarValue(constLin(1))
		for _, f := range x.Factors {
			acc = mulValues(acc, nf(f))
			if acc.invalid {
				return acc
			}
		}
		return acc
	case Range:
		lo, hi := nf(x.Lo), nf(x.Hi)
		if lo.invalid || hi.invalid || lo.isRange || hi.isRange {
			return bottomValue()
		}
		return value{lo: lo.lo, hi: hi.lo, isRange: true}
	default:
		s := Simplify(e)
		if IsBottom(s) {
			return bottomValue()
		}
		// Simplification of an opaque node (e.g. a min/max collapsing to a
		// single argument) may expose a linearizable expression; normalize
		// it rather than treating it as an atom.
		switch s.Kind() {
		case KAdd, KMul, KRange, KInt:
			return nf(s)
		}
		return scalarValue(linsum{{coef: 1, atoms: []Expr{s}, key: s.String()}})
	}
}

func addValues(a, b value) value {
	if a.invalid || b.invalid {
		return bottomValue()
	}
	if !a.isRange && !b.isRange {
		return scalarValue(a.lo.plus(b.lo))
	}
	alo, ahi := a.lo, a.lo
	if a.isRange {
		ahi = a.hi
	}
	blo, bhi := b.lo, b.lo
	if b.isRange {
		bhi = b.hi
	}
	return value{lo: alo.plus(blo), hi: ahi.plus(bhi), isRange: true}
}

func mulValues(a, b value) value {
	if a.invalid || b.invalid {
		return bottomValue()
	}
	if !a.isRange && !b.isRange {
		out, ok := mulLin(a.lo, b.lo)
		if !ok {
			// A product too large to distribute degrades to ⊥: the analysis
			// never needs such expressions, and keeping a half-distributed
			// atom would break simplification idempotence.
			return bottomValue()
		}
		return scalarValue(out)
	}
	// Put the range on the left.
	if !a.isRange {
		a, b = b, a
	}
	if b.isRange {
		// Range*range: fold only when all bounds are constant.
		al, aok := a.lo.constVal()
		ah, aok2 := a.hi.constVal()
		bl, bok := b.lo.constVal()
		bh, bok2 := b.hi.constVal()
		if aok && aok2 && bok && bok2 {
			prods := []int64{al * bl, al * bh, ah * bl, ah * bh}
			mn, mx := prods[0], prods[0]
			for _, p := range prods[1:] {
				if p < mn {
					mn = p
				}
				if p > mx {
					mx = p
				}
			}
			return value{lo: constLin(mn), hi: constLin(mx), isRange: true}
		}
		return bottomValue()
	}
	if c, ok := b.lo.constVal(); ok {
		if c >= 0 {
			return value{lo: a.lo.scale(c), hi: a.hi.scale(c), isRange: true}
		}
		return value{lo: a.hi.scale(c), hi: a.lo.scale(c), isRange: true}
	}
	// Symbolic multiplier of unknown sign: without a sign context we cannot
	// orient the bounds, so the result is unknown.
	return bottomValue()
}

func emitValue(v value) Expr {
	if v.invalid {
		return Bottom{}
	}
	if !v.isRange {
		return emitLin(v.lo)
	}
	lo, hi := emitLin(v.lo), emitLin(v.hi)
	if lo.String() == hi.String() {
		return lo
	}
	return Range{Lo: lo, Hi: hi}
}

// emitLin renders l as an expression. Its terms are already in
// canonical order: the constant first, then the rest sorted by key.
func emitLin(l linsum) Expr {
	switch len(l) {
	case 0:
		return Zero
	case 1:
		return emitTerm(l[0])
	}
	out := make([]Expr, len(l))
	for i, t := range l {
		out[i] = emitTerm(t)
	}
	return Add{Terms: out}
}

func emitTerm(t term) Expr {
	if len(t.atoms) == 0 {
		return NewInt(t.coef)
	}
	if t.coef == 1 && len(t.atoms) == 1 {
		return t.atoms[0]
	}
	factors := make([]Expr, 0, len(t.atoms)+1)
	if t.coef != 1 {
		factors = append(factors, NewInt(t.coef))
	}
	factors = append(factors, t.atoms...)
	if len(factors) == 1 {
		return factors[0]
	}
	return Mul{Factors: factors}
}

// ---- boolean simplification ----

func simplifyCmp(c Cmp) Expr {
	l, r := Simplify(c.L), Simplify(c.R)
	if lv, ok := AsInt(l); ok {
		if rv, ok2 := AsInt(r); ok2 {
			return BoolLit{Val: evalCmp(c.Op, lv, rv)}
		}
	}
	// Canonicalize to diff-form: keep as-is but normalize operand order for
	// equality/inequality so that structural comparison of tags works.
	if (c.Op == OpEQ || c.Op == OpNE) && l.String() > r.String() {
		l, r = r, l
	}
	return Cmp{Op: c.Op, L: l, R: r}
}

func evalCmp(op CmpOp, a, b int64) bool {
	switch op {
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	}
	return false
}

func simplifyAnd(conds []Expr) Expr {
	var out []Expr
	for _, c := range conds {
		s := Simplify(c)
		if b, ok := s.(BoolLit); ok {
			if !b.Val {
				return BoolLit{Val: false}
			}
			continue
		}
		if a, ok := s.(And); ok {
			out = append(out, a.Conds...)
			continue
		}
		out = append(out, s)
	}
	out = uniqByString(out)
	switch len(out) {
	case 0:
		return BoolLit{Val: true}
	case 1:
		return out[0]
	}
	return And{Conds: out}
}

func simplifyOr(conds []Expr) Expr {
	var out []Expr
	for _, c := range conds {
		s := Simplify(c)
		if b, ok := s.(BoolLit); ok {
			if b.Val {
				return BoolLit{Val: true}
			}
			continue
		}
		if o, ok := s.(Or); ok {
			out = append(out, o.Conds...)
			continue
		}
		out = append(out, s)
	}
	out = uniqByString(out)
	switch len(out) {
	case 0:
		return BoolLit{Val: false}
	case 1:
		return out[0]
	}
	return Or{Conds: out}
}

func simplifyNot(c Expr) Expr {
	s := Simplify(c)
	switch x := s.(type) {
	case BoolLit:
		return BoolLit{Val: !x.Val}
	case Not:
		return x.C
	case Cmp:
		return Cmp{Op: x.Op.Negate(), L: x.L, R: x.R}
	}
	return Not{C: s}
}

// uniqByString drops each element whose String rendering repeats an
// earlier one and sorts the rest by rendering. Each element renders once:
// String re-renders the whole tree per call, so a comparator that called
// it would render O(n log n) times. The result reuses es's backing array.
func uniqByString(es []Expr) []Expr {
	if len(es) < 2 {
		return es
	}
	k := keyedExprs{exprs: es[:0], keys: make([]string, 0, len(es))}
	seen := map[string]bool{}
	for _, e := range es {
		s := e.String()
		if !seen[s] {
			seen[s] = true
			k.exprs = append(k.exprs, e)
			k.keys = append(k.keys, s)
		}
	}
	sort.Sort(&k)
	return k.exprs
}

// keyedExprs sorts expressions by pre-rendered string keys, keeping the
// two slices aligned; String() runs once per element, not per compare.
type keyedExprs struct {
	exprs []Expr
	keys  []string
}

func (k *keyedExprs) Len() int           { return len(k.exprs) }
func (k *keyedExprs) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedExprs) Swap(i, j int) {
	k.exprs[i], k.exprs[j] = k.exprs[j], k.exprs[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}
