package parallelize

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/cminus"
	"repro/internal/normalize"
)

// MinWork is the work estimate, in units (Work), below which every
// engine runs a plan-chosen loop serially instead of opening its
// parallel region: such a region costs more to fork and join than its
// second worker saves. It is calibrated on the VM at the corpus's quick
// scale, where gramschmidt's regions, up to 11,685 units, run no faster
// on 2 workers than on 1 and fdtd-2d's, from 14,065, gain (ROADMAP item
// 4). The emitted Go shares it, so every engine declines the same
// regions.
const MinWork = 12288

// Work is the work estimate of a plan-chosen loop of a normalized body:
// its trip count times the units of one iteration. A unit is an
// assignment, an operator, an array access or a builtin call; an if
// counts both arms. An inner loop adds its init's units once, and its
// condition, post and body times its normalized count. That count may
// read only literals, scalars the region does not write and the
// region's own index, which it takes at its mean (n-1)/2, exact for a
// count affine in the index. A count below zero counts as zero. The
// units are doubles, so a product of trip counts never wraps.
type Work struct {
	// Count is the loop's trip count, a node of the normalized body
	// (shared, never modified), and Units the constant units of one
	// iteration, inner loops of literal count folded in.
	Count cminus.Expr
	Units float64
	// Inner holds the work of each other inner loop of an iteration.
	Inner []*Work
	// Index is the region's index, set on the region's own Work.
	Index string
}

// Declines returns the condition under which an engine runs a chosen
// loop serially instead of opening its region: its work estimate below
// MinWork. The estimate is shared with the unit store, so each call
// builds a fresh expression for the engine to bind. Declines returns
// nil when the estimate is unknown or reads a name bound reports
// unbound at the loop; the region then opens as its entry gate decides.
// The condition reads no array, divides nothing and calls nothing, so
// evaluating it ahead of the runtime checks cannot fail.
func (lp *LoopPlan) Declines(bound func(name string) bool) cminus.Expr {
	if lp.Work == nil {
		return nil
	}
	est := lp.Work.expr()
	ok := true
	cminus.WalkExprs(est, func(x cminus.Expr) bool {
		if id, isID := x.(*cminus.Ident); isID && !bound(id.Name) {
			ok = false
		}
		return ok
	})
	if !ok {
		return nil
	}
	return &cminus.BinaryExpr{Op: "<", X: est, Y: floatLit(MinWork)}
}

// expr renders a region's estimate as a fresh expression over the
// scalars at its entry.
func (w *Work) expr() cminus.Expr {
	mid := mul(sub(cminus.CloneExpr(w.Count), &cminus.IntLit{Val: 1}), floatLit(0.5))
	return mul(cminus.CloneExpr(w.Count), w.iteration(w.Index, mid))
}

// iteration renders the work of one iteration, reading the region's
// index ivar in an inner count as mid.
func (w *Work) iteration(ivar string, mid cminus.Expr) cminus.Expr {
	var e cminus.Expr = floatLit(w.Units)
	for _, in := range w.Inner {
		count := substitute(in.Count, ivar, mid)
		if _, lit := count.(*cminus.IntLit); !lit {
			count = &cminus.CondExpr{
				C: &cminus.BinaryExpr{Op: ">", X: count, Y: &cminus.IntLit{Val: 0}},
				T: cminus.CloneExpr(count),
				F: &cminus.IntLit{Val: 0},
			}
		}
		e = &cminus.BinaryExpr{Op: "+", X: e, Y: mul(count, in.iteration(ivar, mid))}
	}
	return e
}

// substitute copies a trip count, replacing the scalar ivar with mid.
func substitute(e cminus.Expr, ivar string, mid cminus.Expr) cminus.Expr {
	switch x := e.(type) {
	case *cminus.Ident:
		if x.Name == ivar {
			return cminus.CloneExpr(mid)
		}
		return &cminus.Ident{Name: x.Name}
	case *cminus.UnaryExpr:
		return &cminus.UnaryExpr{Op: x.Op, X: substitute(x.X, ivar, mid)}
	case *cminus.BinaryExpr:
		return &cminus.BinaryExpr{Op: x.Op, X: substitute(x.X, ivar, mid), Y: substitute(x.Y, ivar, mid)}
	}
	return &cminus.IntLit{Val: e.(*cminus.IntLit).Val}
}

// workOf returns the work estimate of a chosen loop, or nil, an unknown
// estimate, when a count reads anything but literals and the scalars
// Work allows or computes anything but +, - and *, when the region holds
// a while or calls a user function, or when an inner loop is not in
// canonical form.
func workOf(loop *cminus.ForStmt, metas map[string]*normalize.LoopMeta) *Work {
	ivar, n, err := Canonical(loop)
	if err != nil || !(&workScan{}).count(n) {
		return nil
	}
	w := &workScan{metas: metas, body: loop.Body, ivar: ivar}
	work := &Work{Count: n, Index: ivar}
	if !w.iteration(work, loop) {
		return nil
	}
	return work
}

// workScan sums the units of a region's iterations.
type workScan struct {
	metas map[string]*normalize.LoopMeta
	// body is the region's body until the first count that reads a
	// name takes written, the scalars it may change, from it.
	body    *cminus.Block
	written []string
	ivar    string
}

// iteration adds the work of one iteration of loop, its condition, post
// and body, to work.
func (w *workScan) iteration(work *Work, loop *cminus.ForStmt) bool {
	return w.expr(work, loop.Cond) && w.stmt(work, loop.Post) && w.stmt(work, loop.Body)
}

func (w *workScan) stmt(work *Work, s cminus.Stmt) bool {
	switch x := s.(type) {
	case nil:
		return true
	case *cminus.Block:
		for _, st := range x.Stmts {
			if !w.stmt(work, st) {
				return false
			}
		}
		return true
	case *cminus.AssignStmt:
		work.Units++
		if x.Op != "" {
			work.Units++
		}
		if _, ok := x.LHS.(*cminus.Ident); !ok && !w.expr(work, x.LHS) {
			return false
		}
		return w.expr(work, x.RHS)
	case *cminus.ExprStmt:
		return w.expr(work, x.X)
	case *cminus.DeclStmt:
		for _, it := range x.Items {
			for _, d := range it.Dims {
				if !w.expr(work, d) {
					return false
				}
			}
			if it.Init != nil {
				work.Units++
				if !w.expr(work, it.Init) {
					return false
				}
			}
		}
		return true
	case *cminus.IfStmt:
		return w.expr(work, x.Cond) && w.stmt(work, x.Then) && (x.Else == nil || w.stmt(work, x.Else))
	case *cminus.ForStmt:
		return w.inner(work, x)
	case *cminus.ReturnStmt:
		return w.expr(work, x.X)
	case *cminus.BreakStmt, *cminus.ContinueStmt:
		return true
	}
	return false
}

// inner adds an inner loop's work to the iteration that holds it.
func (w *workScan) inner(work *Work, loop *cminus.ForStmt) bool {
	if meta := w.metas[loop.Label]; meta == nil || !meta.Eligible {
		return false
	}
	_, count, err := Canonical(loop)
	if err != nil || !w.count(count) || !w.stmt(work, loop.Init) {
		return false
	}
	in := &Work{Count: count}
	if !w.iteration(in, loop) {
		return false
	}
	if lit, ok := count.(*cminus.IntLit); ok {
		switch {
		case lit.Val <= 0:
			return true
		case len(in.Inner) == 0:
			// A literal count over constant units folds into the units.
			work.Units += float64(lit.Val) * in.Units
			return true
		}
	}
	work.Inner = append(work.Inner, in)
	return true
}

// expr adds the units of an expression: one per operator, array access
// and builtin call. A user call makes the estimate unknown.
func (w *workScan) expr(work *Work, e cminus.Expr) bool {
	switch x := e.(type) {
	case *cminus.BinaryExpr:
		work.Units++
		return w.expr(work, x.X) && w.expr(work, x.Y)
	case *cminus.UnaryExpr:
		work.Units++
		return w.expr(work, x.X)
	case *cminus.CondExpr:
		work.Units++
		return w.expr(work, x.C) && w.expr(work, x.T) && w.expr(work, x.F)
	case *cminus.IndexExpr:
		// A multi-dimensional access is a chain of IndexExprs; it counts
		// once, at the outermost.
		work.Units++
		for ; x != nil; x, _ = x.Arr.(*cminus.IndexExpr) {
			if !w.expr(work, x.Index) {
				return false
			}
		}
		return true
	case *cminus.CallExpr:
		if cminus.LookupBuiltin(x.Fun) == nil {
			return false
		}
		work.Units++
		for _, a := range x.Args {
			if !w.expr(work, a) {
				return false
			}
		}
		return true
	case *cminus.CastExpr:
		return w.expr(work, x.X)
	}
	return true
}

// count reports whether a trip count reads only literals, the region's
// index and scalars the region does not write, through +, - and *.
func (w *workScan) count(e cminus.Expr) bool {
	switch x := e.(type) {
	case *cminus.IntLit:
		return true
	case *cminus.Ident:
		if x.Name == w.ivar {
			return true
		}
		if w.body != nil {
			w.written, _ = cminus.Writes(w.body)
			w.body = nil
		}
		return !slices.Contains(w.written, x.Name)
	case *cminus.UnaryExpr:
		return x.Op == "-" && w.count(x.X)
	case *cminus.BinaryExpr:
		return (x.Op == "+" || x.Op == "-" || x.Op == "*") && w.count(x.X) && w.count(x.Y)
	}
	return false
}

func mul(x, y cminus.Expr) cminus.Expr { return &cminus.BinaryExpr{Op: "*", X: x, Y: y} }

func sub(x, y cminus.Expr) cminus.Expr { return &cminus.BinaryExpr{Op: "-", X: x, Y: y} }

// floatLit is a double literal whose text reads back as a double.
func floatLit(v float64) *cminus.FloatLit {
	text := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(text, ".e") {
		text += ".0"
	}
	return &cminus.FloatLit{Val: v, Text: text}
}
