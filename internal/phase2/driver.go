package phase2

import (
	"sort"

	"repro/internal/cminus"
	"repro/internal/faults"
	"repro/internal/normalize"
	"repro/internal/phase1"
	"repro/internal/property"
	"repro/internal/ranges"
	"repro/internal/symbolic"
)

// FuncAnalysis is the result of running the full two-phase analysis on one
// function: the normalized body with its loop metadata, the per-loop
// Phase-2 aggregates, and the array property database with loop-entry
// values substituted from the enclosing straight-line code.
//
// A FuncAnalysis is read-only once AnalyzeFunc returns. The unit store
// (internal/incr) shares one across requests, and every execution engine
// runs its normalized body (Norm.Func) as the plan's program, so nothing
// may write to it or to any AST node it reaches.
type FuncAnalysis struct {
	Level Level
	// Norm is the normalized function (Norm.Func) and its loop metadata.
	Norm  *normalize.Result
	Loops map[string]*LoopAggregate
	Props *property.DB
	// Failures records per-loop reasons why analysis gave up.
	Failures map[string]string
}

// AnalyzeFunc normalizes fn and analyzes every eligible loop nest inside
// out. assume optionally supplies ranges for symbolic constants (e.g.
// problem sizes known positive); nil means no assumptions.
func AnalyzeFunc(fn *cminus.FuncDecl, level Level, assume *ranges.Dict) *FuncAnalysis {
	return AnalyzeFuncOpts(fn, level, assume, Opts{})
}

// AnalyzeFuncOpts is AnalyzeFunc with ablation toggles. A budget attached
// to assume (ranges.Dict.AttachBudget) bounds the whole analysis of this
// function: the walk, Phase 1, aggregation and every symbolic proof
// charge it, and exhaustion or cancellation unwinds with budget.Abort.
func AnalyzeFuncOpts(fn *cminus.FuncDecl, level Level, assume *ranges.Dict, opts Opts) *FuncAnalysis {
	if assume == nil {
		assume = ranges.New()
	}
	faults.Inject("phase2.AnalyzeFunc", fn.Name, assume.Budget())
	norm := normalize.Func(fn)
	fa := &FuncAnalysis{
		Level:    level,
		Norm:     norm,
		Loops:    map[string]*LoopAggregate{},
		Props:    property.NewDB(),
		Failures: map[string]string{},
	}
	w := &walker{
		fa:        fa,
		level:     level,
		opts:      opts,
		dict:      assume,
		outerVals: map[string]symbolic.Expr{},
		arrayPre:  map[string]map[int64]symbolic.Expr{},
	}
	if norm.Func.Body != nil {
		w.walkBlock(norm.Func.Body)
	}
	return fa
}

// walker performs the top-level statement walk that supplies loop-entry
// values (Λ substitution) and collects properties.
type walker struct {
	fa    *FuncAnalysis
	level Level
	opts  Opts
	dict  *ranges.Dict
	// outerVals maps scalars to their known values in the straight-line
	// code before the current point.
	outerVals map[string]symbolic.Expr
	// arrayPre records pre-loop constant-subscript array writes
	// (col_ptr[0] = 0) used for monotone-prefix seam extension.
	arrayPre map[string]map[int64]symbolic.Expr
}

func (w *walker) walkBlock(blk *cminus.Block) {
	for _, s := range blk.Stmts {
		w.walkStmt(s)
	}
}

func (w *walker) walkStmt(s cminus.Stmt) {
	w.dict.Step(1)
	switch x := s.(type) {
	case *cminus.DeclStmt:
		// Normalization split initializers into assignments.
	case *cminus.AssignStmt:
		if id, ok := x.LHS.(*cminus.Ident); ok {
			val := w.convertOuter(x.RHS)
			if symbolic.IsBottom(val) {
				delete(w.outerVals, id.Name)
			} else {
				w.outerVals[id.Name] = val
				w.dict.SetPoint(id.Name, val)
			}
			return
		}
		if name, idx, ok := cminus.ArrayBase(x.LHS); ok {
			// A straight-line write to the array may break any recorded
			// fact (a stale fact would let the dependence test justify an
			// invalid parallelization).
			w.fa.Props.Invalidate(name)
			if len(idx) == 1 {
				if lit, isLit := idx[0].(*cminus.IntLit); isLit {
					val := w.convertOuter(x.RHS)
					if !symbolic.IsBottom(val) {
						if w.arrayPre[name] == nil {
							w.arrayPre[name] = map[int64]symbolic.Expr{}
						}
						w.arrayPre[name][lit.Val] = val
					}
				}
			}
		}
	case *cminus.ForStmt:
		collapsed := w.analyzeLoop(x)
		w.afterLoop(x, collapsed)
	case *cminus.WhileStmt:
		w.kill(x)
	case *cminus.Block:
		w.walkBlock(x)
	case *cminus.IfStmt:
		// Conservative: values assigned under the if become unknown, and
		// conditionally-written arrays lose their facts.
		w.kill(x)
	}
}

// kill forgets the values of the scalars s may write and the facts and
// pre-loop writes of the arrays it may write.
func (w *walker) kill(s cminus.Stmt) {
	scalars, arrays := cminus.Writes(s)
	for _, v := range scalars {
		delete(w.outerVals, v)
		w.dict.Forget(v)
	}
	for _, a := range arrays {
		w.fa.Props.Invalidate(a)
		delete(w.arrayPre, a)
	}
}

// afterLoop records the loop's properties (with Λ substitution and seam
// extension), reconciles earlier facts with the loop's array writes, and
// updates the straight-line value map from the collapse.
func (w *walker) afterLoop(loop *cminus.ForStmt, collapsed *phase1.CollapsedLoop) {
	agg := w.fa.Loops[loop.Label]

	// Finalize the facts this loop establishes (added below, after the
	// overwritten arrays' stale facts are dropped).
	var newProps []*property.ArrayProperty
	fresh := map[string]bool{}
	if agg != nil {
		sub := w.entrySubst()
		for _, p := range agg.Props {
			fp := w.finalizeProperty(p, sub)
			newProps = append(newProps, fp)
			fresh[fp.Array] = true
		}
	}

	// Every array the loop writes either gets fresh facts, is a
	// recognized fact-preserving swap loop, or loses its facts — keeping
	// a stale fact past an overwrite would be unsound.
	failed := collapsed == nil || collapsed.Failed
	written := map[string]bool{}
	var killed []string
	if failed {
		scalars, arrays := cminus.Writes(loop)
		killed = scalars
		for _, a := range arrays {
			written[a] = true
		}
	} else {
		for a := range collapsed.Arrays {
			written[a] = true
		}
	}
	writtenNames := make([]string, 0, len(written))
	for a := range written {
		writtenNames = append(writtenNames, a)
	}
	sort.Strings(writtenNames)
	for _, arr := range writtenNames {
		if len(w.fa.Props.Lookup(arr)) == 0 || fresh[arr] {
			if fresh[arr] {
				w.fa.Props.Invalidate(arr)
			}
			continue
		}
		if kept, ok := w.swapPreservedFacts(loop, arr); ok {
			w.fa.Props.Replace(arr, kept)
			continue
		}
		w.fa.Props.Invalidate(arr)
	}
	for _, p := range newProps {
		w.fa.Props.Add(p)
	}

	if failed {
		for _, v := range killed {
			delete(w.outerVals, v)
			w.dict.Forget(v)
		}
		return
	}
	sub := w.entrySubst()
	for v, r := range collapsed.Scalars {
		val := symbolic.Substitute(r, sub)
		if symbolic.IsBottom(val) || symbolic.ContainsKind(val, symbolic.KBigLambda) {
			delete(w.outerVals, v)
			w.dict.Forget(v)
			continue
		}
		w.outerVals[v] = val
		lo, hi := symbolic.Bounds(val)
		w.dict.Set(v, lo, hi)
	}
	// Arrays written by the loop invalidate recorded pre-writes.
	for arr := range collapsed.Arrays {
		delete(w.arrayPre, arr)
	}
}

// entrySubst maps Λ_v markers to the current straight-line values.
func (w *walker) entrySubst() symbolic.Subst {
	sub := symbolic.Subst{}
	for v, val := range w.outerVals {
		sub[symbolic.BigLambdaKey(v)] = val
	}
	return sub
}

// finalizeProperty substitutes loop-entry values into a Λ-relative
// property and applies the monotone-prefix seam extension: a pre-loop
// write arr[c0] = v0 with c0+1 == IndexLo and v0 ≤ the section's smallest
// value extends the monotonic section to include c0.
func (w *walker) finalizeProperty(p *property.ArrayProperty, sub symbolic.Subst) *property.ArrayProperty {
	out := *p
	if out.IndexLo != nil {
		out.IndexLo = symbolic.Substitute(out.IndexLo, sub)
	}
	if out.IndexHi != nil {
		out.IndexHi = symbolic.Substitute(out.IndexHi, sub)
	}
	if out.CounterFinal != nil {
		out.CounterFinal = symbolic.Substitute(out.CounterFinal, sub)
	}
	if out.ValueRange != nil {
		out.ValueRange = symbolic.Substitute(out.ValueRange, sub)
	}
	if out.Kind == property.KindIntermittent {
		if lo, ok := symbolic.AsInt(symbolic.Simplify(out.IndexLo)); ok {
			if pre, exists := w.arrayPre[out.Array]; exists {
				if v0, has := pre[lo-1]; has {
					secLo, _ := symbolic.Bounds(out.ValueRange)
					if symbolic.ProveLE(v0, secLo, w.dict) {
						out.IndexLo = symbolic.NewInt(lo - 1)
						if !symbolic.ProveLT(v0, secLo, w.dict) {
							out.Strict = false
						}
					}
				}
			}
		}
	}
	out.DefFunc = w.fa.Norm.Func.Name
	return &out
}

// swapPreservedFacts decides whether loop is a recognized transposition
// (swap) loop over arr whose indices provably stay inside the sections
// of arr's recorded facts. A swap permutes the section's values, so
// injectivity and permutation facts survive (monotone facts demote to
// plain injectivity: the order is destroyed but distinctness is not).
// Returns the transformed fact list.
func (w *walker) swapPreservedFacts(loop *cminus.ForStmt, arr string) ([]*property.ArrayProperty, bool) {
	if w.level < LevelNew {
		return nil, false
	}
	meta := w.fa.Norm.Loops[loop.Label]
	if meta == nil || !meta.Eligible || loop.Body == nil {
		return nil, false
	}
	swapArr, e1, e2, ok := recognizeSwapLoop(loop.Body, meta.Var)
	if !ok || swapArr != arr {
		return nil, false
	}
	n := w.convertOuter(meta.Count)
	if symbolic.IsBottom(n) {
		return nil, false
	}
	// Bound each index expression over the loop's iteration space,
	// substituting known straight-line values for outer scalars.
	ivRange := symbolic.NewRange(symbolic.Zero, symbolic.SubExpr(n, symbolic.One))
	bound := func(e cminus.Expr) (lo, hi symbolic.Expr, ok bool) {
		se := convertCount(e)
		if symbolic.IsBottom(se) {
			return nil, nil, false
		}
		sub := symbolic.Subst{symbolic.SymKey(meta.Var): ivRange}
		for name, val := range w.outerVals {
			if name != meta.Var {
				sub[name] = val
			}
		}
		se = symbolic.Simplify(symbolic.Substitute(se, sub))
		if symbolic.IsBottom(se) {
			return nil, nil, false
		}
		lo, hi = symbolic.Bounds(se)
		return lo, hi, true
	}
	lo1, hi1, ok1 := bound(e1)
	lo2, hi2, ok2 := bound(e2)
	if !ok1 || !ok2 {
		return nil, false
	}
	var kept []*property.ArrayProperty
	for _, p := range w.fa.Props.Lookup(arr) {
		if !p.Injective() || p.NumDims != 1 || p.IndexLo == nil || p.IndexHi == nil {
			continue
		}
		if !symbolic.ProveGE(lo1, p.IndexLo, w.dict) || !symbolic.ProveLE(hi1, p.IndexHi, w.dict) ||
			!symbolic.ProveGE(lo2, p.IndexLo, w.dict) || !symbolic.ProveLE(hi2, p.IndexHi, w.dict) {
			continue
		}
		q := *p
		q.Strict = false
		q.Decreasing = false
		if q.Kind != property.KindPermutation {
			q.Kind = property.KindInjective
		}
		q.DefLoop = loop.Label
		kept = append(kept, &q)
	}
	if len(kept) == 0 {
		return nil, false
	}
	return kept, true
}

// analyzeLoop runs both phases on a loop nest, inside out, and returns the
// collapse for the enclosing level (nil Failed collapse when the loop
// cannot be analyzed).
func (w *walker) analyzeLoop(loop *cminus.ForStmt) *phase1.CollapsedLoop {
	w.dict.Step(1)
	faults.Inject("phase2.analyzeLoop", loop.Label, w.dict.Budget())
	meta := w.fa.Norm.Loops[loop.Label]
	failed := func(reason string) *phase1.CollapsedLoop {
		w.fa.Failures[loop.Label] = reason
		return &phase1.CollapsedLoop{Label: loop.Label, Failed: true}
	}
	if meta == nil {
		return failed("no normalization metadata")
	}
	if !meta.Eligible {
		return failed(meta.Reason)
	}

	// Inner loops first (the algorithm proceeds inside out).
	collapsedMap := map[string]*phase1.CollapsedLoop{}
	for _, inner := range directInnerLoops(loop.Body) {
		switch x := inner.(type) {
		case *cminus.ForStmt:
			collapsedMap[x.Label] = w.analyzeLoop(x)
		case *cminus.WhileStmt:
			// While loops cannot be aggregated; phase1 kills their
			// assignments when it reaches the node.
		}
	}

	// Phase 1 (symbolic execution of one iteration) and Phase 2
	// (aggregation over the iteration space) each get a span per nest,
	// parented to the enclosing function's span via the dictionary.
	tr, parent := w.dict.TraceInfo()
	name := w.fa.Norm.Func.Name
	sp := tr.StartLoop(parent, "phase1", name, loop.Label)
	p1res, err := phase1.Run(loop.Body, &phase1.Config{Meta: meta, Collapsed: collapsedMap, Budget: w.dict.Budget()})
	tr.End(sp)
	if err != nil {
		return failed(err.Error())
	}
	sp = tr.StartLoop(parent, "phase2", name, loop.Label)
	agg := AggregateOpts(w.level, w.opts, meta, p1res, w.dict)
	tr.End(sp)
	w.fa.Loops[loop.Label] = agg
	return agg.Collapsed
}

// directInnerLoops returns the loops nested immediately inside a block
// (not inside a deeper loop).
func directInnerLoops(blk *cminus.Block) []cminus.Stmt {
	var out []cminus.Stmt
	var walkS func(s cminus.Stmt)
	walkS = func(s cminus.Stmt) {
		switch x := s.(type) {
		case *cminus.ForStmt, *cminus.WhileStmt:
			out = append(out, s)
		case *cminus.Block:
			for _, st := range x.Stmts {
				walkS(st)
			}
		case *cminus.IfStmt:
			walkS(x.Then)
			if x.Else != nil {
				walkS(x.Else)
			}
		}
	}
	for _, s := range blk.Stmts {
		walkS(s)
	}
	return out
}

// convertOuter converts a straight-line mini-C expression to a symbolic
// value, substituting known outer values.
func (w *walker) convertOuter(e cminus.Expr) symbolic.Expr {
	v := convertCount(e)
	if symbolic.IsBottom(v) {
		return v
	}
	sub := symbolic.Subst{}
	for name, val := range w.outerVals {
		sub[name] = val
	}
	return symbolic.Substitute(v, sub)
}

// convertCount converts a loop-invariant mini-C expression into a symbolic
// expression: identifiers become symbols, arithmetic maps directly, and
// anything non-integer becomes ⊥.
func convertCount(e cminus.Expr) symbolic.Expr {
	switch x := e.(type) {
	case nil:
		return symbolic.Bottom{}
	case *cminus.IntLit:
		return symbolic.NewInt(x.Val)
	case *cminus.Ident:
		return symbolic.NewSym(x.Name)
	case *cminus.BinaryExpr:
		l := convertCount(x.X)
		r := convertCount(x.Y)
		switch x.Op {
		case "+":
			return symbolic.AddExpr(l, r)
		case "-":
			return symbolic.SubExpr(l, r)
		case "*":
			return symbolic.MulExpr(l, r)
		case "/":
			return symbolic.DivExpr(l, r)
		case "%":
			return symbolic.ModExpr(l, r)
		}
		return symbolic.Bottom{}
	case *cminus.UnaryExpr:
		if x.Op == "-" {
			return symbolic.NegExpr(convertCount(x.X))
		}
		return symbolic.Bottom{}
	case *cminus.IndexExpr:
		name, idx, ok := cminus.ArrayBase(e)
		if !ok {
			return symbolic.Bottom{}
		}
		indices := make([]symbolic.Expr, len(idx))
		for i, ie := range idx {
			indices[i] = convertCount(ie)
			if symbolic.IsBottom(indices[i]) {
				return symbolic.Bottom{}
			}
		}
		return symbolic.ArrayRef{Name: name, Indices: indices}
	case *cminus.CastExpr:
		return convertCount(x.X)
	}
	return symbolic.Bottom{}
}
