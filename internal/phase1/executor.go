package phase1

import (
	"repro/internal/cminus"
	"repro/internal/symbolic"
)

// executor applies statements symbolically to an SVD state.
type executor struct {
	cf  *Config
	lvv map[string]bool
}

// applyStmt updates st with the effect of a straight-line statement
// executed under path condition cond (nil = unconditional).
func (ex *executor) applyStmt(st *State, s cminus.Stmt, cond symbolic.Expr) {
	switch x := s.(type) {
	case *cminus.DeclStmt:
		// Body-local declarations (normalization temps): fresh λ values.
		for _, it := range x.Items {
			if len(it.Dims) == 0 && it.PtrDeep == 0 {
				st.Scalars[it.Name] = symbolic.NewLambda(it.Name)
			}
		}
	case *cminus.AssignStmt:
		if id, ok := x.LHS.(*cminus.Ident); ok {
			val := ex.evalExpr(st, x.RHS)
			if cond != nil {
				val = tagValue(val, cond)
			}
			st.Scalars[id.Name] = val
			return
		}
		if name, idxExprs, ok := cminus.ArrayBase(x.LHS); ok {
			val := ex.evalExpr(st, x.RHS)
			indices := make([]symbolic.Expr, len(idxExprs))
			for i, ie := range idxExprs {
				indices[i] = symbolic.StripTags(ex.evalExpr(st, ie))
			}
			ex.recordWrite(st, name, indices, val, cond)
			return
		}
		// Unsupported LHS (pointer dereference etc.): unknown effect.
	case *cminus.ExprStmt:
		// Pure calls have no effect on integer state.
	}
}

// tagValue wraps each alternative of val with the path condition.
func tagValue(val symbolic.Expr, cond symbolic.Expr) symbolic.Expr {
	if symbolic.IsBottom(val) {
		return val
	}
	var items []symbolic.Expr
	if s, ok := val.(symbolic.Set); ok {
		items = s.Items
	} else {
		items = []symbolic.Expr{val}
	}
	out := make([]symbolic.Expr, len(items))
	for i, it := range items {
		if t, ok := it.(symbolic.Tagged); ok {
			out[i] = symbolic.Tagged{
				Cond: symbolic.Simplify(symbolic.And{Conds: []symbolic.Expr{t.Cond, cond}}),
				E:    t.E,
			}
			continue
		}
		out[i] = symbolic.Tagged{Cond: cond, E: it}
	}
	return symbolic.NewSet(out...)
}

// recordWrite adds an array write to the state, merging with compatible
// existing writes: identical subscripts union their values; subscripts
// differing in exactly one constant dimension merge into a range (the
// paper's Figure 12 pattern where idel[iel][0..5][j][i] collapses to
// idel[iel][0:5][j][i]).
func (ex *executor) recordWrite(st *State, arr string, indices []symbolic.Expr, val symbolic.Expr, cond symbolic.Expr) {
	if cond != nil {
		val = symbolic.NewSet(symbolic.NewLambda(arr), tagValue(val, cond))
	}
	writes := st.Arrays[arr]
	// Exact subscript match: union values.
	newW := ArrayWrite{Indices: indices, Value: val}
	for i, w := range writes {
		if w.indexKey() == newW.indexKey() {
			writes[i].Value = symbolic.UnionValues(w.Value, val)
			st.Arrays[arr] = writes
			return
		}
	}
	// One-dimension constant merge.
	for i, w := range writes {
		if merged, ok := mergeOneDim(w, newW); ok {
			writes[i] = merged
			st.Arrays[arr] = writes
			return
		}
	}
	st.Arrays[arr] = append(writes, newW)
}

// mergeOneDim merges two writes whose subscripts agree in all but one
// dimension, where both are integer constants or constant ranges.
func mergeOneDim(a, b ArrayWrite) (ArrayWrite, bool) {
	if len(a.Indices) != len(b.Indices) {
		return ArrayWrite{}, false
	}
	diff := -1
	for i := range a.Indices {
		if a.Indices[i].String() == b.Indices[i].String() {
			continue
		}
		if diff >= 0 {
			return ArrayWrite{}, false
		}
		diff = i
	}
	if diff < 0 {
		return ArrayWrite{}, false
	}
	if !constOrConstRange(a.Indices[diff]) || !constOrConstRange(b.Indices[diff]) {
		return ArrayWrite{}, false
	}
	union := symbolic.RangeUnion(a.Indices[diff], b.Indices[diff])
	out := ArrayWrite{Indices: append([]symbolic.Expr(nil), a.Indices...)}
	out.Indices[diff] = union
	out.Value = symbolic.UnionValues(a.Value, b.Value)
	return out, true
}

func constOrConstRange(e symbolic.Expr) bool {
	if _, ok := symbolic.AsInt(e); ok {
		return true
	}
	if r, ok := e.(symbolic.Range); ok {
		_, lok := symbolic.AsInt(r.Lo)
		_, hok := symbolic.AsInt(r.Hi)
		return lok && hok
	}
	return false
}

// applyCollapsed replaces an inner loop node by the aggregated assignments
// from its Phase-2 collapse (Algorithm 1 lines 22-24). Λ_v markers in the
// collapsed expressions denote "value of v at inner loop entry" and are
// substituted with the current outer-iteration values; likewise plain
// symbols naming outer LVVs.
func (ex *executor) applyCollapsed(st *State, s cminus.Stmt, cond symbolic.Expr) {
	var label string
	var inner *CollapsedLoop
	if f, ok := s.(*cminus.ForStmt); ok {
		label = f.Label
		inner = ex.cf.Collapsed[label]
	}
	if inner == nil || inner.Failed {
		// Unknown effect: kill everything the loop writes, its header
		// included.
		scalars, arrays := cminus.Writes(s)
		for _, v := range scalars {
			st.Scalars[v] = symbolic.Bottom{}
		}
		for _, a := range arrays {
			st.Arrays[a] = []ArrayWrite{{Value: symbolic.Bottom{}}}
		}
		return
	}

	sub := ex.entrySubst(st)
	for v, r := range inner.Scalars {
		val := symbolic.Substitute(r, sub)
		if cond != nil {
			val = symbolic.UnionValues(st.Scalars[v], tagValue(val, cond))
		}
		st.Scalars[v] = val
	}
	for arr, ws := range inner.Arrays {
		for _, w := range ws {
			indices := make([]symbolic.Expr, len(w.Indices))
			for i, ix := range w.Indices {
				indices[i] = symbolic.Substitute(ix, sub)
			}
			val := symbolic.Substitute(w.Value, sub)
			ex.recordWrite(st, arr, indices, val, cond)
		}
	}
}

// entrySubst builds the substitution mapping inner-loop-entry markers to
// current outer values.
func (ex *executor) entrySubst(st *State) symbolic.Subst {
	sub := symbolic.Subst{}
	for v, val := range st.Scalars {
		sub[symbolic.BigLambdaKey(v)] = symbolic.StripTags(val)
		if ex.lvv[v] {
			sub[symbolic.SymKey(v)] = symbolic.StripTags(val)
		}
	}
	return sub
}

// evalExpr converts a mini-C expression to a symbolic value under the
// current state: LVVs read their current (possibly tagged) value,
// loop-invariant scalars become symbols, reads of loop-invariant arrays
// become opaque ArrayRef atoms, and floating-point values become ⊥ (the
// analysis reasons about integer values only).
func (ex *executor) evalExpr(st *State, e cminus.Expr) symbolic.Expr {
	switch x := e.(type) {
	case nil:
		return symbolic.Bottom{}
	case *cminus.IntLit:
		return symbolic.NewInt(x.Val)
	case *cminus.FloatLit:
		return symbolic.Bottom{}
	case *cminus.StringLit:
		return symbolic.Bottom{}
	case *cminus.Ident:
		if v, ok := st.Scalars[x.Name]; ok {
			return v
		}
		return symbolic.NewSym(x.Name)
	case *cminus.BinaryExpr:
		l := ex.evalExpr(st, x.X)
		r := ex.evalExpr(st, x.Y)
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
		default:
			// Relational/logical/bitwise used as a value: 0/1, unknown.
			return symbolic.Bottom{}
		}
	case *cminus.UnaryExpr:
		switch x.Op {
		case "-":
			return symbolic.NegExpr(ex.evalExpr(st, x.X))
		case "+":
			return ex.evalExpr(st, x.X)
		}
		return symbolic.Bottom{}
	case *cminus.CondExpr:
		c := ex.evalCond(st, x.C)
		t := ex.evalExpr(st, x.T)
		f := ex.evalExpr(st, x.F)
		if symbolic.IsBottom(t) || symbolic.IsBottom(f) {
			return symbolic.Bottom{}
		}
		return symbolic.UnionValues(tagValue(t, c), tagValue(f, symbolic.Simplify(symbolic.Not{C: c})))
	case *cminus.IndexExpr:
		name, idxExprs, ok := cminus.ArrayBase(e)
		if !ok {
			return symbolic.Bottom{}
		}
		if _, written := st.Arrays[name]; written {
			// Reading an array already modified this iteration: unknown.
			return symbolic.Bottom{}
		}
		indices := make([]symbolic.Expr, len(idxExprs))
		for i, ie := range idxExprs {
			v := symbolic.StripTags(ex.evalExpr(st, ie))
			if _, isSet := v.(symbolic.Set); isSet || symbolic.IsBottom(v) {
				return symbolic.Bottom{}
			}
			indices[i] = v
		}
		return symbolic.ArrayRef{Name: name, Indices: indices}
	case *cminus.CallExpr:
		args := make([]symbolic.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = symbolic.StripTags(ex.evalExpr(st, a))
		}
		return symbolic.Call{Name: x.Fun, Args: args}
	case *cminus.CastExpr:
		return ex.evalExpr(st, x.X)
	}
	return symbolic.Bottom{}
}

// evalCond converts a mini-C condition to a symbolic boolean expression
// under the current state.
func (ex *executor) evalCond(st *State, e cminus.Expr) symbolic.Expr {
	switch x := e.(type) {
	case nil:
		return symbolic.BoolLit{Val: true}
	case *cminus.BinaryExpr:
		switch x.Op {
		case "&&":
			return symbolic.Simplify(symbolic.And{Conds: []symbolic.Expr{
				ex.evalCond(st, x.X), ex.evalCond(st, x.Y),
			}})
		case "||":
			return symbolic.Simplify(symbolic.Or{Conds: []symbolic.Expr{
				ex.evalCond(st, x.X), ex.evalCond(st, x.Y),
			}})
		case "==", "!=", "<", "<=", ">", ">=":
			op := map[string]symbolic.CmpOp{
				"==": symbolic.OpEQ, "!=": symbolic.OpNE,
				"<": symbolic.OpLT, "<=": symbolic.OpLE,
				">": symbolic.OpGT, ">=": symbolic.OpGE,
			}[x.Op]
			l := ex.evalCondOperand(st, x.X)
			r := ex.evalCondOperand(st, x.Y)
			return symbolic.Simplify(symbolic.Cmp{Op: op, L: l, R: r})
		}
	case *cminus.UnaryExpr:
		if x.Op == "!" {
			return symbolic.Simplify(symbolic.Not{C: ex.evalCond(st, x.X)})
		}
	}
	// A scalar used as a condition: e != 0.
	v := ex.evalCondOperand(st, e)
	return symbolic.Simplify(symbolic.Cmp{Op: symbolic.OpNE, L: v, R: symbolic.Zero})
}

// evalCondOperand evaluates a condition operand. Floating-point operands
// are kept as opaque structural expressions (rather than ⊥) so that equal
// source conditions produce equal tags — the property Algorithm 2 line 15
// tests.
func (ex *executor) evalCondOperand(st *State, e cminus.Expr) symbolic.Expr {
	v := symbolic.StripTags(ex.evalExpr(st, e))
	if !symbolic.IsBottom(v) {
		if _, isSet := v.(symbolic.Set); !isSet {
			return v
		}
	}
	return ex.opaqueExpr(st, e)
}

// opaqueExpr builds a structural symbolic rendering of an expression that
// could not be valued (floating point, modified-array reads): enough for
// tag equality and loop-variance checks.
func (ex *executor) opaqueExpr(st *State, e cminus.Expr) symbolic.Expr {
	switch x := e.(type) {
	case nil:
		return symbolic.Bottom{}
	case *cminus.IntLit:
		return symbolic.NewInt(x.Val)
	case *cminus.FloatLit:
		return symbolic.Call{Name: "flt", Args: []symbolic.Expr{symbolic.NewSym(x.Text)}}
	case *cminus.Ident:
		if v, ok := st.Scalars[x.Name]; ok {
			sv := symbolic.StripTags(v)
			if !symbolic.IsBottom(sv) {
				if _, isSet := sv.(symbolic.Set); !isSet {
					return sv
				}
			}
			return symbolic.NewLambda(x.Name)
		}
		return symbolic.NewSym(x.Name)
	case *cminus.BinaryExpr:
		return symbolic.Call{Name: "op" + x.Op, Args: []symbolic.Expr{
			ex.opaqueExpr(st, x.X), ex.opaqueExpr(st, x.Y),
		}}
	case *cminus.UnaryExpr:
		return symbolic.Call{Name: "op" + x.Op, Args: []symbolic.Expr{ex.opaqueExpr(st, x.X)}}
	case *cminus.IndexExpr:
		name, idxExprs, ok := cminus.ArrayBase(e)
		if !ok {
			return symbolic.Bottom{}
		}
		indices := make([]symbolic.Expr, len(idxExprs))
		for i, ie := range idxExprs {
			indices[i] = ex.opaqueExpr(st, ie)
		}
		return symbolic.ArrayRef{Name: name, Indices: indices}
	case *cminus.CallExpr:
		args := make([]symbolic.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = ex.opaqueExpr(st, a)
		}
		return symbolic.Call{Name: x.Fun, Args: args}
	case *cminus.CastExpr:
		return ex.opaqueExpr(st, x.X)
	}
	return symbolic.Bottom{}
}
