package phase2

import (
	"repro/internal/phase1"
	"repro/internal/property"
	"repro/internal/symbolic"
)

// monoVerdict is the result of is_Mono_Array plus the information the
// aggregation step needs.
type monoVerdict struct {
	Kind   property.Kind
	Strict bool
	// Decreasing marks a monotonically decreasing section (extension).
	Decreasing bool
	// Dim is the monotone dimension for multi-dimensional arrays.
	Dim int
	// Counter is the subscript counter variable for intermittent arrays.
	Counter string
	// ValueVar is the SSR variable whose values the array takes (the loop
	// index for inseq[ic] = j patterns), empty when the value is a closed
	// form of the loop index.
	ValueVar string
	// ValueExpr is the per-iteration value expression (tag-stripped).
	ValueExpr symbolic.Expr
}

// isMonoArray implements Algorithm 2, extended with the Base-level SRA
// and prefix-sum patterns so that the same entry point serves both
// analysis levels. It returns ok=false when no monotonicity property can
// be established at the given level.
func (ag *aggregator) isMonoArray(arr string, writes []phase1.ArrayWrite) (monoVerdict, bool) {
	if len(writes) != 1 || writes[0].Indices == nil {
		return monoVerdict{}, false
	}
	w := writes[0]
	if symbolic.IsBottom(w.Value) {
		return monoVerdict{}, false
	}
	if len(w.Indices) == 1 {
		if v, ok := ag.checkSRA(arr, w); ok {
			return v, true
		}
		if !ag.opts.DisablePrefixSum {
			if v, ok := ag.checkPrefixSum(arr, w); ok {
				return v, true
			}
		}
		if ag.level >= LevelNew && !ag.opts.DisableIntermittent {
			if v, ok := ag.checkIntermittent(arr, w); ok {
				return v, true
			}
		}
		return monoVerdict{}, false
	}
	if ag.level >= LevelNew && !ag.opts.DisableMultiDim {
		return ag.checkMultiDim(arr, w)
	}
	return monoVerdict{}, false
}

// unconditionalValue returns the single untagged value of a write, or
// ok=false when the write is conditional (its value set contains λ_arr or
// tagged alternatives).
func unconditionalValue(arr string, v symbolic.Expr) (symbolic.Expr, bool) {
	if _, ok := v.(symbolic.Set); ok {
		return nil, false
	}
	if _, ok := v.(symbolic.Tagged); ok {
		return nil, false
	}
	if symbolic.Equal(v, symbolic.NewLambda(arr)) {
		return nil, false
	}
	return v, true
}

// checkSRA recognizes the Base-algorithm SRA pattern: ar[i+c] = ssr_expr
// assigned unconditionally in contiguous iterations, where ssr_expr is an
// SSR variable plus an invariant term, or a closed form linear in the
// loop index with non-negative slope.
func (ag *aggregator) checkSRA(arr string, w phase1.ArrayWrite) (monoVerdict, bool) {
	val, ok := unconditionalValue(arr, w.Value)
	if !ok {
		return monoVerdict{}, false
	}
	if !ag.isSimpleSubscript(w.Indices[0]) {
		return monoVerdict{}, false
	}
	return ag.classifyMonotoneValue(val)
}

// classifyMonotoneValue decides whether a per-iteration value expression
// forms a monotone sequence across iterations: linear in the loop index
// with PNN slope, or λ_sc + invariant for an SSR variable sc.
func (ag *aggregator) classifyMonotoneValue(val symbolic.Expr) (monoVerdict, bool) {
	// Closed form in the loop index.
	if alpha, rest, ok := symbolic.LinearIn(val, symbolic.NewSym(ag.ivar)); ok && ag.isInvariant(rest) && ag.isInvariant(alpha) {
		sign := symbolic.SignOf(alpha, ag.ctx)
		switch sign {
		case symbolic.SignPositive:
			return monoVerdict{Kind: property.KindSRA, Strict: true, ValueVar: ag.ivar, ValueExpr: val}, true
		case symbolic.SignNonNegative, symbolic.SignZero:
			return monoVerdict{Kind: property.KindSRA, Strict: false, ValueVar: ag.ivar, ValueExpr: val}, true
		case symbolic.SignNegative:
			return monoVerdict{Kind: property.KindSRA, Strict: true, Decreasing: true, ValueVar: ag.ivar, ValueExpr: val}, true
		case symbolic.SignNonPositive:
			return monoVerdict{Kind: property.KindSRA, Decreasing: true, ValueVar: ag.ivar, ValueExpr: val}, true
		}
	}
	// λ_sc + invariant for a detected SSR variable.
	for name, info := range ag.ssr {
		if name == ag.ivar {
			continue
		}
		alpha, rest, ok := symbolic.LinearIn(val, symbolic.NewLambda(name))
		if !ok || !ag.isInvariant(rest) {
			continue
		}
		if c, isInt := symbolic.AsInt(alpha); isInt && c == 1 {
			return monoVerdict{Kind: property.KindSRA, Strict: info.Strict, Decreasing: info.Decreasing, ValueVar: name, ValueExpr: val}, true
		}
	}
	return monoVerdict{}, false
}

// checkPrefixSum recognizes the Figure 2(b) recurrence ar[f(i)] =
// ar[f(i)-1] + k with k an invariant PNN term: the array becomes
// monotonic (strictly if k is positive).
func (ag *aggregator) checkPrefixSum(arr string, w phase1.ArrayWrite) (monoVerdict, bool) {
	val, ok := unconditionalValue(arr, w.Value)
	if !ok {
		return monoVerdict{}, false
	}
	s := w.Indices[0]
	if !ag.isSimpleSubscript(s) {
		return monoVerdict{}, false
	}
	// val must be ArrayRef(arr, s-1) + k.
	prev := symbolic.ArrayRef{Name: arr, Indices: []symbolic.Expr{symbolic.SubExpr(s, symbolic.One)}}
	k := symbolic.Simplify(symbolic.SubExpr(val, prev))
	if !ag.isInvariant(k) || symbolic.ContainsKind(k, symbolic.KArrayRef) {
		return monoVerdict{}, false
	}
	if !symbolic.IsPNNValue(k, ag.ctx) {
		return monoVerdict{}, false
	}
	return monoVerdict{
		Kind:      property.KindSRA,
		Strict:    symbolic.IsPositiveValue(k, ag.ctx),
		ValueExpr: val,
	}, true
}

// checkIntermittent implements LEMMA 1 / Algorithm 2 lines 10-16: the
// subscript is a scalar counter incremented by 1 under the same
// loop-variant condition that guards the array write, and the written
// value follows an SSR variable.
func (ag *aggregator) checkIntermittent(arr string, w phase1.ArrayWrite) (monoVerdict, bool) {
	// Subscript must be λ_c (+ invariant constant) for a scalar counter c.
	counter, ok := subscriptCounter(w.Indices[0])
	if !ok {
		return monoVerdict{}, false
	}
	// R_s: the counter's Phase-1 expression must be incremented by 1
	// under a tag.
	rc, ok := ag.svd.Scalars[counter]
	if !ok {
		return monoVerdict{}, false
	}
	counterTags := symbolic.TaggedParts(rc)
	if len(counterTags) != 1 {
		return monoVerdict{}, false
	}
	inc := symbolic.SubExpr(counterTags[0].E, symbolic.NewLambda(counter))
	if c, isInt := symbolic.AsInt(symbolic.Simplify(inc)); !isInt || c != 1 {
		return monoVerdict{}, false
	}
	tagS := counterTags[0].Cond

	// R_v: the write's value must have exactly one tagged alternative.
	valueTags := symbolic.TaggedParts(w.Value)
	if len(valueTags) != 1 {
		return monoVerdict{}, false
	}
	tagV := valueTags[0].Cond
	if !symbolic.Equal(tagS, tagV) || !isLoopVariantCond(tagV, ag.ivar, ag.lvv) {
		return monoVerdict{}, false
	}
	verdict, ok := ag.classifyMonotoneValue(valueTags[0].E)
	if !ok {
		return monoVerdict{}, false
	}
	verdict.Kind = property.KindIntermittent
	verdict.Counter = counter
	return verdict, true
}

// subscriptCounter extracts the counter variable from an intermittent
// subscript expression λ_c or λ_c + const.
func subscriptCounter(s symbolic.Expr) (string, bool) {
	if l, ok := s.(symbolic.Lambda); ok {
		return l.Name, true
	}
	if add, ok := s.(symbolic.Add); ok {
		var lam string
		okShape := true
		for _, t := range add.Terms {
			switch x := t.(type) {
			case symbolic.Lambda:
				if lam != "" {
					okShape = false
				}
				lam = x.Name
			case symbolic.Int:
			default:
				okShape = false
			}
		}
		if okShape && lam != "" {
			return lam, true
		}
	}
	return "", false
}

// checkMultiDim implements LEMMA 2 / Algorithm 2 lines 21-31: an
// n-dimensional array assigned α*i + [rl:ru] with a simple subscript in
// one dimension is monotonic w.r.t. that dimension if [rl:ru] is PNN and
// α+rl ≥ ru (strictly if α+rl > ru).
func (ag *aggregator) checkMultiDim(arr string, w phase1.ArrayWrite) (monoVerdict, bool) {
	val, ok := unconditionalValue(arr, w.Value)
	if !ok {
		return monoVerdict{}, false
	}
	// Exactly one subscript position may reference the loop index, and it
	// must be a simple subscript; the others must be invariant.
	dim := -1
	for i, ix := range w.Indices {
		if symbolic.ContainsSym(ix, ag.ivar) {
			if dim >= 0 {
				return monoVerdict{}, false
			}
			if !ag.isSimpleSubscript(ix) {
				return monoVerdict{}, false
			}
			dim = i
		} else if !ag.isInvariant(ix) {
			return monoVerdict{}, false
		}
	}
	if dim < 0 {
		return monoVerdict{}, false
	}

	// Decompose the value as α*i + [rl:ru] (bounds-wise when the value is
	// itself a range).
	lo, hi := symbolic.Bounds(symbolic.Simplify(val))
	idx := symbolic.NewSym(ag.ivar)
	alphaLo, rl, okLo := symbolic.LinearIn(lo, idx)
	alphaHi, ru, okHi := symbolic.LinearIn(hi, idx)
	if !okLo || !okHi || !symbolic.Equal(alphaLo, alphaHi) {
		return monoVerdict{}, false
	}
	alpha := alphaLo
	if !ag.isInvariant(alpha) || !ag.isInvariant(rl) || !ag.isInvariant(ru) {
		return monoVerdict{}, false
	}
	// remainder must be PNN (Algorithm 2 line 24).
	if !symbolic.SignOf(rl, ag.ctx).IsPNN() {
		return monoVerdict{}, false
	}
	sum := symbolic.AddExpr(alpha, rl)
	switch {
	case symbolic.ProveGT(sum, ru, ag.ctx):
		return monoVerdict{Kind: property.KindMultiDim, Strict: true, Dim: dim, ValueExpr: val, ValueVar: ag.ivar}, true
	case symbolic.ProveGE(sum, ru, ag.ctx):
		return monoVerdict{Kind: property.KindMultiDim, Strict: false, Dim: dim, ValueExpr: val, ValueVar: ag.ivar}, true
	}
	return monoVerdict{}, false
}

// isSimpleSubscript reports whether s has the form i + k with i the loop
// index and k an invariant term (Algorithm 2 line 17).
func (ag *aggregator) isSimpleSubscript(s symbolic.Expr) bool {
	alpha, rest, ok := symbolic.LinearIn(s, symbolic.NewSym(ag.ivar))
	c, isInt := symbolic.AsInt(alpha)
	return ok && isInt && c == 1 && ag.isInvariant(rest)
}

// isInvariant reports loop invariance of an already-symbolic expression.
func (ag *aggregator) isInvariant(e symbolic.Expr) bool {
	return isInvariantValue(e, ag.ivar, ag.lvv)
}
