package interp

// Slot resolution for the bytecode compiler. A resolution pass walks
// each function once and assigns frame slots: scalar references become
// integer indices into the frame's typed columns, array references
// become array-bank slots, and globals that a chosen parallel loop
// privatizes or reduces become cell slots. The pass writes the slot
// layout straight into the function's bfunc; the compiler then emits
// instructions against the symbol tables it leaves behind. Runtime
// errors propagate as engineErr panics recovered at the Call boundary
// (and at worker goroutine tops), so the hot path carries no error
// returns.
//
// Semantics deliberately mirror the tree walker (the reference oracle
// behind Machine.Interp = "tree") with one documented relaxation: the
// tree walker scopes implicitly-defined scalars (and locally declared
// names) per block, while resolution gives every name one flat slot per
// function. Programs that read a dead block's variable — which error
// under the tree walker — may observe a stale slot here. The corpus
// (and any well-formed program) never does this; the differential test
// layer pins the engines together on every corpus benchmark.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cminus"
	"repro/internal/parallelize"
)

// engineErr wraps a runtime error for panic-based propagation.
type engineErr struct{ err error }

func throwf(format string, args ...any) {
	panic(engineErr{fmt.Errorf(format, args...)})
}

// control is the statement outcome code (the VM analogue of the tree
// walker's errReturn/errBreak/errContinue sentinels).
type control uint8

const (
	ctlNext control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// ctyp is the static type of an expression.
type ctyp uint8

const (
	tInt ctyp = iota
	tFloat
)

// Scalar symbol kinds.
const (
	syLocalInt uint8 = iota // slot in frame.ints
	syLocalFlt              // slot in frame.flts
	syGlobal                // captured *Value cell in m.Globals
	syCell                  // slot in frame.cells (privatizable global)
	syUnbound               // never assigned nor declared: reads error
)

type scalarSym struct {
	kind  uint8
	idx   int
	g     *Value // syGlobal / syCell
	float bool
	name  string
}

func (s *scalarSym) typ() ctyp {
	if s.float {
		return tFloat
	}
	return tInt
}

type arraySym struct {
	slot  int
	float bool // declared element type (runtime re-checks actual arrays)
}

// resolver holds one function's symbol tables. Slot counts, parameter
// slots and call-entry bindings accumulate in bf.
type resolver struct {
	m       *Machine
	fn      *cminus.FuncDecl
	bf      *bfunc
	scalars map[string]*scalarSym
	arrays  map[string]*arraySym
	fp      *parallelize.FuncPlan
	loops   []*cminus.ForStmt // dense source-order loop ids
}

// newResolver runs the resolution pass of fn for m, laying its slots out
// in bf.
func newResolver(m *Machine, fn *cminus.FuncDecl, bf *bfunc) *resolver {
	r := &resolver{
		m:       m,
		fn:      fn,
		bf:      bf,
		scalars: map[string]*scalarSym{},
		arrays:  map[string]*arraySym{},
		fp:      m.funcPlan(fn.Name),
	}
	r.resolve()
	return r
}

func (r *resolver) newScalarSlot(name string, float bool) *scalarSym {
	s := &scalarSym{name: name, float: float}
	if float {
		s.kind = syLocalFlt
		s.idx = r.bf.nFlts
		r.bf.nFlts++
	} else {
		s.kind = syLocalInt
		s.idx = r.bf.nInts
		r.bf.nInts++
	}
	r.scalars[name] = s
	return s
}

func (r *resolver) newArraySlot(name string, float bool) *arraySym {
	a := &arraySym{slot: r.bf.nArrs, float: float}
	r.bf.nArrs++
	r.arrays[name] = a
	return a
}

// entryArray returns the slot of a named array, registering one bound
// from m.Arrays at call entry when the function has none (the lazy
// analogue of the tree walker's global-array lookup; access errors when
// the array is absent).
func (r *resolver) entryArray(name string) *arraySym {
	if a := r.arrays[name]; a != nil {
		return a
	}
	float := false
	if a, ok := r.m.Arrays[name]; ok {
		float = a.Float
	}
	a := r.newArraySlot(name, float)
	r.bf.entryArrs = append(r.bf.entryArrs, entryArr{slot: a.slot, name: name})
	return a
}

// resolve assigns frame slots: parameters, declared locals, implicitly
// assigned scalars, referenced arrays, and — for globals privatized or
// reduced by some chosen parallel loop — cell slots.
func (r *resolver) resolve() {
	r.loops = cminus.NumberLoops(r.fn.Body)

	// Parameters.
	for _, prm := range r.fn.Params {
		isFloat := cminus.IsFloatType(prm.Type)
		if prm.PtrDeep > 0 || len(prm.Dims) > 0 {
			a := r.newArraySlot(prm.Name, isFloat)
			r.bf.params = append(r.bf.params, paramSlot{kind: psArr, idx: a.slot})
			continue
		}
		s := r.newScalarSlot(prm.Name, isFloat)
		kind := psInt
		if isFloat {
			kind = psFlt
		}
		r.bf.params = append(r.bf.params, paramSlot{kind: kind, idx: s.idx})
	}

	// Declared locals (scalars and arrays), anywhere in the body.
	cminus.WalkStmts(r.fn.Body, func(s cminus.Stmt) bool {
		d, ok := s.(*cminus.DeclStmt)
		if !ok {
			return true
		}
		isFloat := cminus.IsFloatType(d.Type)
		for _, it := range d.Items {
			if len(it.Dims) > 0 || it.PtrDeep > 0 {
				if r.arrays[it.Name] == nil {
					r.newArraySlot(it.Name, isFloat)
				}
				continue
			}
			if r.scalars[it.Name] == nil {
				r.newScalarSlot(it.Name, isFloat)
			}
		}
		return true
	})

	// Arrays referenced by subscript or passed to user calls but not
	// declared here: bound from m.Arrays at call entry.
	cminus.WalkStmts(r.fn.Body, func(s cminus.Stmt) bool {
		cminus.StmtExprs(s, func(e cminus.Expr) bool {
			switch x := e.(type) {
			case *cminus.IndexExpr:
				if name, _, ok := cminus.ArrayBase(x); ok {
					r.entryArray(name)
				}
			case *cminus.CallExpr:
				if callee := r.m.Prog.Func(x.Fun); callee != nil && callee.Body != nil {
					for i, prm := range callee.Params {
						if i >= len(x.Args) {
							break
						}
						if prm.PtrDeep > 0 || len(prm.Dims) > 0 {
							if id, ok := x.Args[i].(*cminus.Ident); ok {
								r.entryArray(id.Name)
							}
						}
					}
				}
			}
			return true
		})
		return true
	})

	// Implicitly assigned scalars (normalized loop indices): a plain
	// assignment to an undeclared, non-global name defines it, typed by
	// its first RHS.
	cminus.WalkStmts(r.fn.Body, func(s cminus.Stmt) bool {
		as, ok := s.(*cminus.AssignStmt)
		if !ok {
			return true
		}
		id, ok := as.LHS.(*cminus.Ident)
		if !ok {
			return true
		}
		if r.scalars[id.Name] != nil {
			return true
		}
		if _, isGlobal := r.m.Globals[id.Name]; isGlobal {
			return true
		}
		r.newScalarSlot(id.Name, r.typeOf(as.RHS) == tFloat)
		return true
	})

	// Globals touched by a chosen parallel loop's private/reduction
	// clauses (or used as its index) get cell slots, so workers can swap
	// in private cells while normal frames alias the real global.
	promote := func(name string) {
		s := r.resolveScalar(name)
		if s.kind != syGlobal {
			return
		}
		s.kind = syCell
		s.idx = r.bf.nCells
		r.bf.nCells++
		r.bf.entryCells = append(r.bf.entryCells, entryCell{slot: s.idx, g: s.g})
	}
	for _, loop := range r.loops {
		lp := r.planFor(loop)
		if lp == nil || !lp.Chosen {
			continue
		}
		d := lp.Decision
		for _, p := range d.Privates {
			promote(p)
		}
		for v := range d.Reductions {
			promote(v)
		}
		if ivar, _, err := parallelize.Canonical(loop); err == nil {
			promote(ivar)
		}
	}
}

// planFor finds the plan for a loop by its dense id, falling back to the
// label map when the ids disagree (e.g. a hand-built plan).
func (r *resolver) planFor(loop *cminus.ForStmt) *parallelize.LoopPlan {
	if r.fp == nil {
		return nil
	}
	for i, l := range r.loops {
		if l == loop {
			if lp := r.fp.LoopAt(i); lp != nil && lp.Label == loop.Label {
				return lp
			}
			break
		}
	}
	return r.fp.Loops[loop.Label]
}

// resolveScalar memoizes name resolution: local slot, global cell, or
// unbound.
func (r *resolver) resolveScalar(name string) *scalarSym {
	if s, ok := r.scalars[name]; ok {
		return s
	}
	if g, ok := r.m.Globals[name]; ok {
		s := &scalarSym{kind: syGlobal, g: g, float: g.Float, name: name}
		r.scalars[name] = s
		return s
	}
	s := &scalarSym{kind: syUnbound, name: name}
	r.scalars[name] = s
	return s
}

// peekScalar resolves without creating unbound entries.
func (r *resolver) peekScalar(name string) *scalarSym {
	if s, ok := r.scalars[name]; ok {
		if s.kind == syUnbound {
			return nil
		}
		return s
	}
	if g, ok := r.m.Globals[name]; ok {
		s := &scalarSym{kind: syGlobal, g: g, float: g.Float, name: name}
		r.scalars[name] = s
		return s
	}
	return nil
}

// ---- static typing ----

func promoteTyp(a, b ctyp) ctyp {
	if a == tFloat || b == tFloat {
		return tFloat
	}
	return tInt
}

func (r *resolver) typeOf(e cminus.Expr) ctyp {
	switch x := e.(type) {
	case *cminus.IntLit, *cminus.StringLit:
		return tInt
	case *cminus.FloatLit:
		return tFloat
	case *cminus.Ident:
		if s := r.peekScalar(x.Name); s != nil {
			return s.typ()
		}
		return tInt
	case *cminus.BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return promoteTyp(r.typeOf(x.X), r.typeOf(x.Y))
		default:
			// Comparisons, logical, %, bitwise, shifts are int-valued.
			return tInt
		}
	case *cminus.UnaryExpr:
		switch x.Op {
		case "-", "++", "--":
			return r.typeOf(x.X)
		default: // !, ~
			return tInt
		}
	case *cminus.CondExpr:
		return promoteTyp(r.typeOf(x.T), r.typeOf(x.F))
	case *cminus.IndexExpr:
		if name, _, ok := cminus.ArrayBase(x); ok {
			if a := r.arrays[name]; a != nil && a.float {
				return tFloat
			}
		}
		return tInt
	case *cminus.CallExpr:
		if fn := r.m.Prog.Func(x.Fun); fn != nil && fn.Body != nil {
			if cminus.IsFloatType(fn.RetType) {
				return tFloat
			}
			return tInt
		}
		if x.Fun == "abs" {
			return tInt
		}
		return tFloat // builtins
	case *cminus.CastExpr:
		if cminus.IsFloatType(x.Type) {
			return tFloat
		}
		return tInt
	}
	return tInt
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---- builtins ----

var builtins1 = map[string]func(float64) float64{
	"exp":   math.Exp,
	"sqrt":  math.Sqrt,
	"fabs":  math.Abs,
	"sin":   math.Sin,
	"cos":   math.Cos,
	"log":   math.Log,
	"floor": math.Floor,
	"ceil":  math.Ceil,
}

var builtins2 = map[string]func(float64, float64) float64{
	"pow":  math.Pow,
	"fmod": math.Mod,
	"fmin": math.Min,
	"fmax": math.Max,
}

// sortedReductions returns a chosen loop's reduction clauses in sorted
// name order (per-variable combines are independent, so any fixed order
// matches the tree walker's result exactly).
func sortedReductions(d map[string]string) [][2]string {
	names := make([]string, 0, len(d))
	for v := range d {
		names = append(names, v)
	}
	sort.Strings(names)
	out := make([][2]string, len(names))
	for i, v := range names {
		out[i] = [2]string{v, d[v]}
	}
	return out
}
