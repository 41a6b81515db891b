package phase2

import (
	"sort"

	"repro/internal/normalize"
	"repro/internal/phase1"
	"repro/internal/property"
	"repro/internal/ranges"
	"repro/internal/symbolic"
)

// Opts toggles individual analysis capabilities for ablation studies
// (every field false = the full algorithm at the chosen level).
type Opts struct {
	// DisableIntermittent turns off LEMMA 1 (intermittent monotonicity).
	DisableIntermittent bool
	// DisableMultiDim turns off LEMMA 2 (multi-dimensional monotonicity).
	DisableMultiDim bool
	// DisablePrefixSum turns off the Figure 2(b) recurrence pattern.
	DisablePrefixSum bool
}

// aggregator carries the state of one Phase-2 run (Algorithm 1) over a
// single loop.
type aggregator struct {
	level Level
	opts  Opts
	ivar  string
	n     symbolic.Expr
	svd   *phase1.State
	lvv   map[string]bool
	ssr   map[string]SSRInfo
	ctx   *ranges.Dict
}

// LoopAggregate is the Phase-2 result for one loop.
type LoopAggregate struct {
	Label string
	// SVD is the Phase-1 SVD at the end of the loop body (SVD_stn), the
	// input the aggregation read.
	SVD *phase1.State
	// SSR lists the detected simple scalar recurrences.
	SSR map[string]SSRInfo
	// Props holds the array monotonicity properties established at this
	// loop level, with bounds relative to loop entry (Λ markers).
	Props []*property.ArrayProperty
	// Collapsed is the loop's replacement for the enclosing analysis.
	Collapsed *phase1.CollapsedLoop
	// Aggregated maps each LVV to its aggregated symbolic expression
	// (what Algorithm 1 writes back into the SVD).
	Aggregated map[string]symbolic.Expr
}

// AggregateOpts is Aggregate with ablation toggles.
func AggregateOpts(level Level, opts Opts, meta *normalize.LoopMeta, p1 *phase1.Result, parent *ranges.Dict) *LoopAggregate {
	n := convertCount(meta.Count)
	ctx := parent.Push()
	// One budget step per aggregated variable bounds Algorithm 1; the
	// proofs it issues charge separately through ctx.
	ctx.Step(int64(len(p1.LVVs) + len(p1.ArraysWritten) + 1))
	// The loop runs iterations 0..N-1; the analysis considers a loop that
	// executes, so the index range assumes N >= 1.
	ctx.Set(meta.Var, symbolic.Zero, symbolic.SubExpr(n, symbolic.One))

	ag := &aggregator{
		level: level,
		opts:  opts,
		ivar:  meta.Var,
		n:     n,
		svd:   p1.Final,
		lvv:   map[string]bool{},
		ssr:   map[string]SSRInfo{},
		ctx:   ctx,
	}
	for _, v := range p1.LVVs {
		ag.lvv[v] = true
	}

	out := &LoopAggregate{
		Label:      meta.Label,
		SVD:        p1.Final,
		SSR:        ag.ssr,
		Aggregated: map[string]symbolic.Expr{},
	}

	// Pass 1: detect SSR variables (Algorithm 1 lines 11-14). The loop
	// index is a known strictly monotonic SSR variable.
	ag.ssr[ag.ivar] = SSRInfo{Var: ag.ivar, K: symbolic.One, Strict: true}
	scalarNames := make([]string, 0, len(ag.svd.Scalars))
	for v := range ag.svd.Scalars {
		scalarNames = append(scalarNames, v)
	}
	sort.Strings(scalarNames)
	for _, v := range scalarNames {
		if info, ok := isSSR(v, ag.svd.Scalars[v], ag.ivar, ag.lvv, ag.ctx); ok {
			ag.ssr[v] = info
		}
	}

	// Pass 2: arrays (Algorithm 1 lines 15-17 calling is_Mono_Array).
	arrayNames := make([]string, 0, len(ag.svd.Arrays))
	for a := range ag.svd.Arrays {
		arrayNames = append(arrayNames, a)
	}
	sort.Strings(arrayNames)
	verdicts := map[string]monoVerdict{}
	if level >= LevelBase {
		for _, a := range arrayNames {
			if v, ok := ag.isMonoArray(a, ag.svd.Arrays[a]); ok {
				verdicts[a] = v
				out.Props = append(out.Props, ag.buildProperty(a, v, meta.Label))
			}
		}
	}
	// Pass 2b: injectivity/permutation facts (property-lattice extension;
	// strict monotone facts already imply injectivity, so the recognizer
	// only adds facts the monotone pass cannot express).
	if level >= LevelNew {
		for _, a := range arrayNames {
			mv, hasMono := verdicts[a]
			if v, ok := ag.isInjectiveArray(a, ag.svd.Arrays[a], mv, hasMono); ok {
				out.Props = append(out.Props, ag.buildInjectProperty(a, v, meta.Label))
			}
		}
	}

	// Pass 3: aggregated expressions and the collapsed loop
	// (Algorithm 1 lines 13, 17-24).
	col := &phase1.CollapsedLoop{
		Label:   meta.Label,
		Scalars: map[string]symbolic.Expr{},
		Arrays:  map[string][]phase1.ArrayWrite{},
	}
	for _, v := range scalarNames {
		agg := ag.aggregateScalar(v)
		out.Aggregated[v] = agg
		col.Scalars[v] = agg
	}
	// The loop index's final value is the iteration count.
	col.Scalars[ag.ivar] = n
	for _, a := range arrayNames {
		ws := ag.aggregateArrayWrites(a, ag.svd.Arrays[a])
		col.Arrays[a] = ws
		for _, w := range ws {
			out.Aggregated[a] = w.Value
		}
	}
	out.Collapsed = col
	return out
}

// aggregateScalar extends a scalar's per-iteration expression to the full
// iteration space, yielding a value in Λ terms.
func (ag *aggregator) aggregateScalar(v string) symbolic.Expr {
	rv := ag.svd.Scalars[v]
	if info, ok := ag.ssr[v]; ok && v != ag.ivar {
		lam := symbolic.NewBigLambda(v)
		lbk, ubk := symbolic.Bounds(info.K)
		if info.Conditional {
			// The increments fire between 0 and N times.
			return ag.ssrSpan(lam, info)
		}
		// Unconditional: exactly N increments; a range K yields a range.
		if symbolic.Equal(lbk, ubk) {
			return symbolic.AddExpr(lam, symbolic.MulExpr(ag.n, info.K))
		}
		return symbolic.NewRange(
			symbolic.AddExpr(lam, symbolic.MulExpr(ag.n, lbk)),
			symbolic.AddExpr(lam, symbolic.MulExpr(ag.n, ubk)),
		)
	}
	// Non-SSR: substitute and simplify (Algorithm 1 line 19).
	return ag.aggregateValueExpr(rv)
}

// ssrSpan returns the value span of an SSR variable across the loop,
// starting from the loop-entry marker: increasing variables span
// [Λ : Λ+N·ubk], decreasing ones span [Λ+N·lbk : Λ].
func (ag *aggregator) ssrSpan(lam symbolic.Expr, info SSRInfo) symbolic.Expr {
	lbk, ubk := symbolic.Bounds(info.K)
	if info.Decreasing {
		return symbolic.NewRange(symbolic.AddExpr(lam, symbolic.MulExpr(ag.n, lbk)), lam)
	}
	return symbolic.NewRange(lam, symbolic.AddExpr(lam, symbolic.MulExpr(ag.n, ubk)))
}

// aggregateValueExpr extends an arbitrary per-iteration value to the whole
// iteration space: λ_v markers of SSR variables become their aggregated
// ranges, the loop index becomes [0:N-1], other λ markers make the value
// unknown, and opaque atoms (array reads, calls) involving the loop index
// make it unknown too.
func (ag *aggregator) aggregateValueExpr(rv symbolic.Expr) symbolic.Expr {
	var alts []symbolic.Expr
	if s, ok := rv.(symbolic.Set); ok {
		alts = s.Items
	} else {
		alts = []symbolic.Expr{rv}
	}
	var outs []symbolic.Expr
	for _, alt := range alts {
		_, inner := splitTag(alt)
		agg := ag.aggregateOneValue(inner)
		if symbolic.IsBottom(agg) {
			return symbolic.Bottom{}
		}
		outs = append(outs, agg)
	}
	// Fold the union of alternatives into a single range when possible.
	u := outs[0]
	for _, o := range outs[1:] {
		u2 := symbolic.RangeUnion(u, o)
		if containsUnresolvedMinMax(u2) {
			return symbolic.NewSet(outs...)
		}
		u = u2
	}
	return u
}

func (ag *aggregator) aggregateOneValue(e symbolic.Expr) symbolic.Expr {
	// Opaque atoms that depend on the loop index have no aggregate.
	badAtom := false
	symbolic.Walk(e, func(x symbolic.Expr) bool {
		switch x.(type) {
		case symbolic.ArrayRef, symbolic.Call, symbolic.Div, symbolic.Mod:
			if symbolic.ContainsSym(x, ag.ivar) || symbolic.ContainsLambda(x, "") {
				badAtom = true
				return false
			}
		}
		return !badAtom
	})
	if badAtom {
		return symbolic.Bottom{}
	}
	sub := symbolic.Subst{
		symbolic.SymKey(ag.ivar): symbolic.NewRange(symbolic.Zero, symbolic.SubExpr(ag.n, symbolic.One)),
	}
	// λ markers: SSR variables take their aggregated spans; anything else
	// poisons the value.
	poisoned := false
	symbolic.Walk(e, func(x symbolic.Expr) bool {
		if l, ok := x.(symbolic.Lambda); ok {
			info, isSSRVar := ag.ssr[l.Name]
			if !isSSRVar {
				poisoned = true
				return false
			}
			lam := symbolic.NewBigLambda(l.Name)
			sub[symbolic.LambdaKey(l.Name)] = ag.ssrSpan(lam, info)
		}
		return true
	})
	if poisoned {
		return symbolic.Bottom{}
	}
	return symbolic.Substitute(e, sub)
}

func containsUnresolvedMinMax(e symbolic.Expr) bool {
	return symbolic.ContainsKind(e, symbolic.KMin) || symbolic.ContainsKind(e, symbolic.KMax)
}

// aggregateArrayWrites produces the collapsed write descriptors of an
// array for the enclosing loop level.
func (ag *aggregator) aggregateArrayWrites(arr string, ws []phase1.ArrayWrite) []phase1.ArrayWrite {
	var out []phase1.ArrayWrite
	for _, w := range ws {
		if w.Indices == nil || symbolic.IsBottom(w.Value) {
			return []phase1.ArrayWrite{{Value: symbolic.Bottom{}}}
		}
		indices := make([]symbolic.Expr, len(w.Indices))
		okAll := true
		for i, ix := range w.Indices {
			agg := ag.aggregateOneValue(symbolic.StripTags(ix))
			if symbolic.IsBottom(agg) {
				okAll = false
				break
			}
			indices[i] = agg
		}
		if !okAll {
			return []phase1.ArrayWrite{{Value: symbolic.Bottom{}}}
		}
		// Value: aggregate alternatives; the λ_array "unchanged" marker
		// becomes Λ_array.
		val := ag.aggregateArrayValue(arr, w.Value)
		out = append(out, phase1.ArrayWrite{Indices: indices, Value: val})
	}
	return out
}

func (ag *aggregator) aggregateArrayValue(arr string, v symbolic.Expr) symbolic.Expr {
	var alts []symbolic.Expr
	if s, ok := v.(symbolic.Set); ok {
		alts = s.Items
	} else {
		alts = []symbolic.Expr{v}
	}
	lam := symbolic.NewLambda(arr)
	var outs []symbolic.Expr
	for _, alt := range alts {
		_, inner := splitTag(alt)
		if symbolic.Equal(inner, lam) {
			outs = append(outs, symbolic.NewBigLambda(arr))
			continue
		}
		agg := ag.aggregateOneValue(inner)
		if symbolic.IsBottom(agg) {
			return symbolic.Bottom{}
		}
		outs = append(outs, agg)
	}
	if len(outs) == 1 {
		return outs[0]
	}
	// Try folding into a single range; keep the set when min/max cannot
	// be resolved (the paper's Figure 12 inner-loop case).
	hasMarker := false
	for _, o := range outs {
		if o.Kind() == symbolic.KBigLambda {
			hasMarker = true
		}
	}
	if !hasMarker {
		u := outs[0]
		resolved := true
		for _, o := range outs[1:] {
			u = symbolic.RangeUnion(u, o)
			if containsUnresolvedMinMax(u) {
				resolved = false
				break
			}
		}
		if resolved {
			return u
		}
	}
	return symbolic.NewSet(outs...)
}

// buildProperty converts an is_Mono_Array verdict into a recorded
// property with Λ-relative bounds.
func (ag *aggregator) buildProperty(arr string, v monoVerdict, loopLabel string) *property.ArrayProperty {
	w := ag.svd.Arrays[arr][0]
	p := &property.ArrayProperty{
		Array:      arr,
		Kind:       v.Kind,
		Strict:     v.Strict,
		Decreasing: v.Decreasing,
		Dim:        v.Dim,
		NumDims:    len(w.Indices),
		DefLoop:    loopLabel,
	}
	// Value range: aggregate of the per-iteration value expression.
	if v.ValueExpr != nil {
		p.ValueRange = ag.aggregateValueExpr(v.ValueExpr)
	}
	switch v.Kind {
	case property.KindIntermittent:
		p.Counter = v.Counter
		lam := symbolic.NewBigLambda(v.Counter)
		p.IndexLo = lam
		p.IndexHi = symbolic.NewSym(v.Counter + "_max")
		p.CounterFinal = symbolic.NewRange(lam, symbolic.AddExpr(lam, ag.n))
	default:
		s := w.Indices[v.Dim]
		p.IndexLo = symbolic.Substitute(s, symbolic.Subst{ag.ivar: symbolic.Zero})
		p.IndexHi = symbolic.Substitute(s, symbolic.Subst{ag.ivar: symbolic.SubExpr(ag.n, symbolic.One)})
	}
	return p
}
