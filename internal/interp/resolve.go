package interp

// Slot resolution for the bytecode compiler. The cminus binder resolves
// each function's names (block scope, scalar and array namespaces,
// implicit scalars; internal/cminus/resolve.go), and this pass gives
// every binding one frame slot: a scalar an index into the frame's
// typed columns, an array an array-bank slot, and a global a chosen
// parallel loop privatizes, reduces or indexes by a cell slot.
// Parameters come first, then the declarations in source order; a
// global array gets its slot where the compiler first uses it. The
// layout lands straight in the function's bfunc; the compiler then
// emits instructions against the symbols it leaves behind. Runtime
// errors propagate as engineErr panics recovered at the Call boundary
// (and at worker goroutine tops), so the hot path carries no error
// returns.
//
// The tree walker, the reference oracle behind Machine.Interp = "tree",
// implements the binder's rules in its own code; the differential tests
// pin the two engines together.

import (
	"fmt"

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

// Scalar symbol kinds.
const (
	syLocalInt uint8 = iota // slot in frame.ints
	syLocalFlt              // slot in frame.flts
	syGlobal                // captured *Value cell in m.Globals
	syCell                  // slot in frame.cells (privatizable global)
	syUnbound               // no binding: reads error
)

type scalarSym struct {
	kind  uint8
	idx   int
	g     *Value // syGlobal / syCell
	float bool
}

// unboundSym is the symbol of every identifier the binder leaves
// unbound.
var unboundSym = &scalarSym{kind: syUnbound}

type arraySym struct {
	slot  int
	float bool // declared element type (runtime re-checks actual arrays)
}

// resolver holds one function's bindings and their symbols. Slot
// counts, parameter slots and call-entry bindings accumulate in bf.
type resolver struct {
	m       *Machine
	fn      *cminus.FuncDecl
	bf      *bfunc
	b       *cminus.Binds
	scalars map[*cminus.Binding]*scalarSym
	arrays  map[*cminus.Binding]*arraySym
	// unbound is the array slot of every array name the binder leaves
	// unbound: nothing binds it, so each access fails its nil check.
	unbound *arraySym
	fp      *parallelize.FuncPlan
}

// newResolver runs the resolution pass of fn for m, laying its slots out
// in bf.
func newResolver(m *Machine, fn *cminus.FuncDecl, bf *bfunc) *resolver {
	r := &resolver{
		m:       m,
		fn:      fn,
		bf:      bf,
		b:       cminus.Bind(m.Prog, fn),
		scalars: map[*cminus.Binding]*scalarSym{},
		arrays:  map[*cminus.Binding]*arraySym{},
		fp:      m.funcPlan(fn.Name),
	}
	r.resolve()
	return r
}

func (r *resolver) newArraySlot(float bool) *arraySym {
	a := &arraySym{slot: r.bf.nArrs, float: float}
	r.bf.nArrs++
	return a
}

// resolve assigns frame slots: one per parameter and declaration, and a
// cell slot per global that a chosen parallel loop privatizes, reduces
// or uses as its index.
func (r *resolver) resolve() {
	for i, bd := range r.b.Locals {
		var ps paramSlot
		if bd.Array {
			a := r.newArraySlot(bd.Float)
			r.arrays[bd] = a
			ps = paramSlot{kind: psArr, idx: a.slot}
		} else {
			s := &scalarSym{kind: syLocalInt, idx: r.bf.nInts, float: bd.Float}
			ps = paramSlot{kind: psInt, idx: s.idx}
			if bd.Float {
				s.kind, s.idx = syLocalFlt, r.bf.nFlts
				ps = paramSlot{kind: psFlt, idx: s.idx}
				r.bf.nFlts++
			} else {
				r.bf.nInts++
			}
			r.scalars[bd] = s
		}
		if i < len(r.fn.Params) {
			r.bf.params = append(r.bf.params, ps)
		}
	}

	// Globals touched by a chosen parallel loop's private/reduction
	// clauses (or used as its index) get cell slots, so workers can swap
	// in private cells while normal frames alias the real global.
	promote := func(s *scalarSym) {
		if s.kind != syGlobal {
			return
		}
		s.kind = syCell
		s.idx = r.bf.nCells
		r.bf.nCells++
		r.bf.entryCells = append(r.bf.entryCells, entryCell{slot: s.idx, g: s.g})
	}
	for _, loop := range cminus.NumberLoops(r.fn.Body) {
		lp := r.planFor(loop)
		if lp == nil || !lp.Chosen {
			continue
		}
		d := lp.Decision
		for _, p := range d.Privates {
			promote(r.scalar(r.b.Lookup(loop, p, false)))
		}
		for _, red := range d.SortedReductions() {
			promote(r.scalar(r.b.Lookup(loop, red.Name, false)))
		}
		if _, _, err := parallelize.Canonical(loop); err == nil {
			promote(r.scalar(r.b.Index(loop)))
		}
	}
}

// planFor finds the plan for a loop by its label.
func (r *resolver) planFor(loop *cminus.ForStmt) *parallelize.LoopPlan {
	if r.fp == nil {
		return nil
	}
	return r.fp.Loops[loop.Label]
}

// scalar returns the symbol of a scalar binding: a local slot, a global
// cell, or unbound.
func (r *resolver) scalar(bd *cminus.Binding) *scalarSym {
	if bd == nil {
		return unboundSym
	}
	if s := r.scalars[bd]; s != nil {
		return s
	}
	g := r.m.Globals[bd.Name]
	if g == nil {
		return unboundSym
	}
	s := &scalarSym{kind: syGlobal, g: g, float: g.Float}
	r.scalars[bd] = s
	return s
}

// sym is the symbol of a scalar identifier.
func (r *resolver) sym(id *cminus.Ident) *scalarSym { return r.scalar(r.b.Of(id)) }

// array returns the slot of an array binding. A global array gets one
// on first use, bound from m.Arrays at call entry.
func (r *resolver) array(bd *cminus.Binding) *arraySym {
	if bd == nil {
		if r.unbound == nil {
			r.unbound = r.newArraySlot(false)
		}
		return r.unbound
	}
	if a := r.arrays[bd]; a != nil {
		return a
	}
	a := r.newArraySlot(bd.Float)
	r.arrays[bd] = a
	r.bf.entryArrs = append(r.bf.entryArrs, entryArr{slot: a.slot, name: bd.Name})
	return a
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
