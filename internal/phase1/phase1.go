// Package phase1 implements Phase 1 of the subscripted-subscript array
// analysis (Section 2.3 of the paper): a forward symbolic execution of one
// arbitrary loop iteration over the loop-body CFG. It computes, for every
// Loop-Variant Variable (LVV), a symbolic value at the end of the iteration
// relative to its value λ_v at the beginning, stored in a Symbolic Value
// Dictionary (SVD). Values assigned under an if-condition are tagged ⟨e⟩
// with that condition; control-flow merges take the conservative union of
// predecessor values.
package phase1

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/cfg"
	"repro/internal/cminus"
	"repro/internal/faults"
	"repro/internal/normalize"
	"repro/internal/symbolic"
)

// ArrayWrite describes one symbolic write site of an array during the
// analyzed iteration: the subscript expressions (tag-stripped, in λ terms)
// and the value union (which includes λ_array when the write is
// conditional, meaning "may keep its old value").
type ArrayWrite struct {
	Indices []symbolic.Expr
	Value   symbolic.Expr
}

func (w ArrayWrite) indexKey() string {
	parts := make([]string, len(w.Indices))
	for i, ix := range w.Indices {
		parts[i] = ix.String()
	}
	return strings.Join(parts, ",")
}

// String renders the write in the paper's notation.
func (w ArrayWrite) String() string {
	var b strings.Builder
	for _, ix := range w.Indices {
		fmt.Fprintf(&b, "[%s]", ix)
	}
	fmt.Fprintf(&b, " = %s", w.Value)
	return b.String()
}

// CollapsedLoop is the result of Phase 2 for an inner loop: the loop node
// is replaced by assignments of the aggregated expressions (in Λ terms) to
// each LVV. A nil CollapsedLoop (or one with Failed set) kills every name
// the loop writes (cminus.Writes).
type CollapsedLoop struct {
	Label   string
	Scalars map[string]symbolic.Expr
	Arrays  map[string][]ArrayWrite
	// Failed marks a loop whose aggregation failed.
	Failed bool
}

// State is the SVD at one CFG point.
type State struct {
	Scalars map[string]symbolic.Expr
	Arrays  map[string][]ArrayWrite
}

func newState() *State {
	return &State{Scalars: map[string]symbolic.Expr{}, Arrays: map[string][]ArrayWrite{}}
}

func (st *State) clone() *State {
	out := newState()
	for k, v := range st.Scalars {
		out.Scalars[k] = v
	}
	for k, v := range st.Arrays {
		out.Arrays[k] = append([]ArrayWrite(nil), v...)
	}
	return out
}

// String renders the SVD in the paper's notation, deterministically.
func (st *State) String() string {
	var parts []string
	keys := make([]string, 0, len(st.Scalars))
	for k := range st.Scalars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, st.Scalars[k]))
	}
	akeys := make([]string, 0, len(st.Arrays))
	for k := range st.Arrays {
		akeys = append(akeys, k)
	}
	sort.Strings(akeys)
	for _, k := range akeys {
		for _, w := range st.Arrays[k] {
			parts = append(parts, k+w.String())
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Config parameterizes the Phase-1 run.
type Config struct {
	// Meta is the normalized loop's metadata (index variable, count).
	Meta *normalize.LoopMeta
	// Collapsed maps inner loop labels to their Phase-2 collapse results.
	Collapsed map[string]*CollapsedLoop
	// Budget, when non-nil, is charged per CFG node; an exhausted budget
	// or a canceled context aborts the run with budget.Abort (recovered
	// at the per-function guard in the parallelizer).
	Budget *budget.B
}

// Result is the Phase-1 output.
type Result struct {
	// Final is the SVD at the last node (SVD_stn in the paper).
	Final *State
	// LVVs lists the loop-variant scalar variables.
	LVVs []string
	// ArraysWritten lists arrays assigned in the loop body.
	ArraysWritten []string
}

// Run performs the Phase-1 symbolic execution over the loop body.
func Run(body *cminus.Block, cf *Config) (*Result, error) {
	faults.Inject("phase1.Run", "", cf.Budget)
	g, err := cfg.Build(body)
	if err != nil {
		return nil, err
	}
	scalars, arrays := cminus.Writes(body)

	res := &Result{LVVs: scalars, ArraysWritten: arrays}

	lvv := map[string]bool{}
	for _, s := range scalars {
		lvv[s] = true
	}

	ex := &executor{cf: cf, lvv: lvv}

	// Per-edge dataflow facts.
	facts := map[*cfg.Edge]edgeFact{}

	for _, n := range g.Nodes {
		// One budget step per CFG node bounds the symbolic execution; the
		// heavy per-node work (unions, proofs) is charged separately by
		// the symbolic layer through the range dictionary.
		cf.Budget.Step(1)
		// Compute the in-state.
		var in *State
		var inCond symbolic.Expr
		switch len(n.Preds) {
		case 0:
			// Entry: initialize every LVV to λ_v.
			in = newState()
			for _, s := range scalars {
				in.Scalars[s] = symbolic.NewLambda(s)
			}
			inCond = nil
		case 1:
			f := facts[n.Preds[0]]
			in, inCond = f.st, f.cond
		default:
			// Merge point: union predecessor values; the path condition
			// reverts to the common prefix (structured CFGs merge branches
			// of a single if, so the merged condition is the enclosing
			// one, which we recover by intersecting string-equal conds).
			var fs []edgeFact
			for _, e := range n.Preds {
				fs = append(fs, facts[e])
			}
			in = mergeStates(fs[0].st, fs[1].st)
			for _, f := range fs[2:] {
				in = mergeStates(in, f.st)
			}
			inCond = commonCond(fs)
		}

		// Apply the node.
		out := in
		switch n.Kind {
		case cfg.NStmt:
			out = in.clone()
			ex.applyStmt(out, n.Stmt, inCond)
		case cfg.NLoop:
			out = in.clone()
			ex.applyCollapsed(out, n.Stmt, inCond)
		}
		if n == g.Exit {
			res.Final = out
		}

		// Propagate along out edges.
		for _, e := range n.Succs {
			f := edgeFact{st: out, cond: inCond}
			if n.Kind == cfg.NBranch {
				c := ex.evalCond(in, n.Cond)
				if e.Cond == cfg.EdgeFalse {
					c = symbolic.Simplify(symbolic.Not{C: c})
				}
				f.cond = conjoin(inCond, c)
				f.st = out.clone()
			}
			facts[e] = f
		}
	}
	return res, nil
}

func conjoin(a, b symbolic.Expr) symbolic.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return symbolic.Simplify(symbolic.And{Conds: []symbolic.Expr{a, b}})
}

// edgeFact is the dataflow fact on one CFG edge: the SVD and the path
// condition under which the edge is reached (nil = unconditional).
type edgeFact struct {
	st   *State
	cond symbolic.Expr
}

// commonCond returns the longest common path condition of the incoming
// facts (nil unless all are string-equal).
func commonCond(fs []edgeFact) symbolic.Expr {
	if len(fs) == 0 {
		return nil
	}
	c := fs[0].cond
	for _, f := range fs[1:] {
		if c == nil || f.cond == nil || c.String() != f.cond.String() {
			return nil
		}
	}
	return c
}

// mergeStates takes the conservative union of two SVDs (may semantics).
func mergeStates(a, b *State) *State {
	out := newState()
	for k, av := range a.Scalars {
		if bv, ok := b.Scalars[k]; ok {
			out.Scalars[k] = symbolic.UnionValues(av, bv)
		} else {
			out.Scalars[k] = av
		}
	}
	for k, bv := range b.Scalars {
		if _, ok := a.Scalars[k]; !ok {
			out.Scalars[k] = bv
		}
	}
	names := map[string]bool{}
	for k := range a.Arrays {
		names[k] = true
	}
	for k := range b.Arrays {
		names[k] = true
	}
	for name := range names {
		out.Arrays[name] = mergeWrites(name, a.Arrays[name], b.Arrays[name])
	}
	return out
}

// mergeWrites unions two write lists for one array. Writes present on only
// one side may not have happened, so their value set gains λ_array.
func mergeWrites(arr string, a, b []ArrayWrite) []ArrayWrite {
	keyed := map[string]ArrayWrite{}
	counts := map[string]int{}
	var order []string
	add := func(w ArrayWrite) {
		k := w.indexKey()
		if prev, ok := keyed[k]; ok {
			keyed[k] = ArrayWrite{Indices: prev.Indices, Value: symbolic.UnionValues(prev.Value, w.Value)}
		} else {
			keyed[k] = w
			order = append(order, k)
		}
		counts[k]++
	}
	for _, w := range a {
		add(w)
	}
	for _, w := range b {
		add(w)
	}
	lam := symbolic.NewLambda(arr)
	var out []ArrayWrite
	for _, k := range order {
		w := keyed[k]
		if counts[k] < 2 && !containsValue(w.Value, lam) {
			w.Value = symbolic.UnionValues(w.Value, lam)
		}
		out = append(out, w)
	}
	return out
}

func containsValue(set symbolic.Expr, v symbolic.Expr) bool {
	if s, ok := set.(symbolic.Set); ok {
		for _, it := range s.Items {
			if symbolic.Equal(it, v) {
				return true
			}
		}
		return false
	}
	return symbolic.Equal(set, v)
}
