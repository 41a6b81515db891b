// Package normalize implements the Cetus-style loop and statement
// normalization that precedes the subscripted-subscript array analysis
// (Section 2.2 of the paper):
//
//   - each statement makes at most one assignment: side effects (++/--,
//     subscripts like a[m++]) are hoisted into explicit temporaries, exactly
//     as in the paper's Figure 4(b);
//   - compound assignments x op= e become x = x op (e);
//   - loop iteration spaces start at 0 with stride 1; the loop variable
//     represents the iteration number;
//   - loops containing break/return statements, or a call to anything but
//     a builtin of cminus's table (the side-effect-free math functions),
//     are marked ineligible for analysis.
package normalize

import (
	"fmt"
	"slices"

	"repro/internal/cminus"
)

// LoopMeta records the normalized form of a for loop.
type LoopMeta struct {
	// Label is the loop's stable identity from the parser.
	Label string
	// Var is the loop index variable name.
	Var string
	// Count is the iteration count N as a source expression (the loop runs
	// for iterations 0..N-1 of Var).
	Count cminus.Expr
	// LowerShift is the original lower bound that was shifted out (the
	// original index equals Var + LowerShift). Nil when no shift happened.
	LowerShift cminus.Expr
	// Eligible reports whether the loop can be analyzed (canonical bounds,
	// stride 1, no break/return, no calls but builtins).
	Eligible bool
	// Reason explains ineligibility.
	Reason string
}

// Result is a normalized function body plus per-loop metadata.
type Result struct {
	Func  *cminus.FuncDecl
	Loops map[string]*LoopMeta
}

// Func normalizes a function in place on a deep copy and returns the copy
// with loop metadata.
func Func(f *cminus.FuncDecl) *Result {
	cp := &cminus.FuncDecl{RetType: f.RetType, Name: f.Name, Params: f.Params, P: f.P}
	cp.Body = cminus.CloneBlock(f.Body)
	n := &normalizer{loops: map[string]*LoopMeta{}}
	cp.Body = n.normalizeBlock(cp.Body)
	return &Result{Func: cp, Loops: n.loops}
}

type normalizer struct {
	tempN int
	loops map[string]*LoopMeta
}

func (n *normalizer) newTemp() string {
	name := fmt.Sprintf("_temp_%d", n.tempN)
	n.tempN++
	return name
}

func (n *normalizer) normalizeBlock(blk *cminus.Block) *cminus.Block {
	if blk == nil {
		return nil
	}
	out := &cminus.Block{P: blk.P}
	for _, s := range blk.Stmts {
		out.Stmts = append(out.Stmts, n.normalizeStmt(s)...)
	}
	return out
}

// normalizeStmt rewrites a statement into one or more normalized
// statements.
func (n *normalizer) normalizeStmt(s cminus.Stmt) []cminus.Stmt {
	switch x := s.(type) {
	case *cminus.AssignStmt:
		return n.normalizeAssign(x)
	case *cminus.ExprStmt:
		return n.normalizeExprStmt(x)
	case *cminus.DeclStmt:
		// Split declarations with initializers into pure declarations plus
		// assignments so that dataflow sees every write as an assignment.
		var out []cminus.Stmt
		decl := &cminus.DeclStmt{Type: x.Type, P: x.P}
		for _, it := range x.Items {
			init := it.Init
			it.Init = nil
			decl.Items = append(decl.Items, it)
			if init != nil {
				as := &cminus.AssignStmt{
					LHS: &cminus.Ident{Name: it.Name, P: x.P},
					RHS: init,
					P:   x.P,
				}
				out = append(out, n.normalizeAssign(as)...)
			}
		}
		return append([]cminus.Stmt{decl}, out...)
	case *cminus.IfStmt:
		pre, cond := n.hoistSideEffects(x.Cond)
		ifs := &cminus.IfStmt{Cond: cond, Then: n.normalizeBlock(x.Then), P: x.P}
		if x.Else != nil {
			switch e := x.Else.(type) {
			case *cminus.Block:
				ifs.Else = n.normalizeBlock(e)
			default:
				elseStmts := n.normalizeStmt(e)
				ifs.Else = &cminus.Block{Stmts: elseStmts, P: e.Pos()}
			}
		}
		return append(pre, ifs)
	case *cminus.ForStmt:
		return n.normalizeFor(x)
	case *cminus.WhileStmt:
		// While loops are left intact (they are ineligible for the array
		// analysis) but their bodies are still normalized.
		return []cminus.Stmt{&cminus.WhileStmt{Cond: x.Cond, Body: n.normalizeBlock(x.Body), P: x.P}}
	case *cminus.Block:
		return []cminus.Stmt{n.normalizeBlock(x)}
	default:
		return []cminus.Stmt{s}
	}
}

func (n *normalizer) normalizeAssign(x *cminus.AssignStmt) []cminus.Stmt {
	// x op= e  becomes  x = x op (e), with x's side effects (a[m++] op= e)
	// hoisted once: C evaluates x once.
	preL, lhs := n.hoistSideEffects(x.LHS)
	rhs := x.RHS
	if x.Op != "" {
		rhs = &cminus.BinaryExpr{Op: x.Op, X: cminus.CloneExpr(lhs), Y: rhs, P: x.P}
	}
	preR, rhs := n.hoistSideEffects(rhs)
	out := append(preR, preL...)
	return append(out, &cminus.AssignStmt{LHS: lhs, RHS: rhs, P: x.P})
}

func (n *normalizer) normalizeExprStmt(x *cminus.ExprStmt) []cminus.Stmt {
	// A bare i++ / ++i becomes i = i + 1.
	if u, ok := x.X.(*cminus.UnaryExpr); ok && (u.Op == "++" || u.Op == "--") {
		op := "+"
		if u.Op == "--" {
			op = "-"
		}
		return n.normalizeAssign(&cminus.AssignStmt{
			LHS: u.X,
			RHS: &cminus.BinaryExpr{Op: op, X: cminus.CloneExpr(u.X), Y: &cminus.IntLit{Val: 1, P: x.P}, P: x.P},
			P:   x.P,
		})
	}
	pre, e := n.hoistSideEffects(x.X)
	return append(pre, &cminus.ExprStmt{X: e, P: x.P})
}

// hoistSideEffects removes ++/-- side effects from an expression,
// returning the statements that must run first and the rewritten pure
// expression. A postfix v++ becomes (_temp_k = v; v = v+1) with the use
// rewritten to _temp_k, matching the paper's Figure 4(b). A prefix ++v
// becomes (v = v+1) with the use rewritten to v.
func (n *normalizer) hoistSideEffects(e cminus.Expr) ([]cminus.Stmt, cminus.Expr) {
	var pre []cminus.Stmt
	var rewrite func(e cminus.Expr) cminus.Expr
	rewrite = func(e cminus.Expr) cminus.Expr {
		switch x := e.(type) {
		case nil:
			return nil
		case *cminus.UnaryExpr:
			if x.Op == "++" || x.Op == "--" {
				op := "+"
				if x.Op == "--" {
					op = "-"
				}
				target := rewrite(x.X)
				incr := &cminus.AssignStmt{
					LHS: cminus.CloneExpr(target),
					RHS: &cminus.BinaryExpr{Op: op, X: cminus.CloneExpr(target), Y: &cminus.IntLit{Val: 1, P: x.P}, P: x.P},
					P:   x.P,
				}
				if x.Postfix {
					tmp := n.newTemp()
					pre = append(pre,
						&cminus.DeclStmt{Type: "int", Items: []cminus.DeclItem{{Name: tmp}}, P: x.P},
						&cminus.AssignStmt{LHS: &cminus.Ident{Name: tmp, P: x.P}, RHS: cminus.CloneExpr(target), P: x.P},
						incr,
					)
					return &cminus.Ident{Name: tmp, P: x.P}
				}
				pre = append(pre, incr)
				return target
			}
			return &cminus.UnaryExpr{Op: x.Op, X: rewrite(x.X), Postfix: x.Postfix, P: x.P}
		case *cminus.BinaryExpr:
			l := rewrite(x.X)
			r := rewrite(x.Y)
			return &cminus.BinaryExpr{Op: x.Op, X: l, Y: r, P: x.P}
		case *cminus.CondExpr:
			return &cminus.CondExpr{C: rewrite(x.C), T: rewrite(x.T), F: rewrite(x.F), P: x.P}
		case *cminus.IndexExpr:
			return &cminus.IndexExpr{Arr: rewrite(x.Arr), Index: rewrite(x.Index), P: x.P}
		case *cminus.CallExpr:
			args := make([]cminus.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = rewrite(a)
			}
			return &cminus.CallExpr{Fun: x.Fun, Args: args, P: x.P}
		case *cminus.CastExpr:
			return rewrite(x.X)
		}
		return e
	}
	out := rewrite(e)
	return pre, out
}

// normalizeFor canonicalizes a for loop to iteration space 0..N-1 stride 1
// where possible, and records eligibility metadata.
func (n *normalizer) normalizeFor(x *cminus.ForStmt) []cminus.Stmt {
	meta := &LoopMeta{Label: x.Label}
	n.loops[x.Label] = meta

	out := &cminus.ForStmt{Pragmas: x.Pragmas, P: x.P, Label: x.Label}

	ineligible := func(reason string) []cminus.Stmt {
		meta.Eligible = false
		meta.Reason = reason
		out.Init = x.Init
		out.Cond = x.Cond
		out.Post = x.Post
		out.Body = n.normalizeBlock(x.Body)
		return []cminus.Stmt{out}
	}

	// Extract the canonical pattern: init "v = lb", cond "v < ub" or
	// "v <= ub", post "v++" / "v = v + 1" / "v += 1".
	ivar, lb, ok := splitInit(x.Init)
	if !ok {
		return ineligible("non-canonical loop init")
	}
	ub, inclusive, ok := splitCond(x.Cond, ivar)
	if !ok {
		return ineligible("non-canonical loop condition")
	}
	if !postIsIncrementByOne(x.Post, ivar) {
		return ineligible("non-unit stride")
	}
	if hasBreakOrReturn(x.Body) {
		return ineligible("contains break or return")
	}
	if call, bad := firstSideEffectCall(x); bad {
		return ineligible("side-effecting call: " + call)
	}
	if reason := writesIndexOrBound(x, ivar, lb, ub); reason != "" {
		return ineligible(reason)
	}

	meta.Var = ivar
	// Iteration count: ub - lb (+1 when inclusive).
	count := subExprC(ub, lb)
	if inclusive {
		count = addExprC(count, &cminus.IntLit{Val: 1})
	}
	meta.Count = foldExpr(count)

	body := n.normalizeBlock(x.Body)
	// Shift the iteration space to start at 0: occurrences of the index
	// inside the body become (ivar + lb).
	if !isZero(lb) {
		meta.LowerShift = lb
		body = substituteIdentBlock(body, ivar, addExprC(&cminus.Ident{Name: ivar}, lb))
	}
	meta.Eligible = true

	out.Init = &cminus.AssignStmt{LHS: &cminus.Ident{Name: ivar, P: x.P}, RHS: &cminus.IntLit{Val: 0, P: x.P}, P: x.P}
	out.Cond = &cminus.BinaryExpr{Op: "<", X: &cminus.Ident{Name: ivar, P: x.P}, Y: meta.Count, P: x.P}
	out.Post = &cminus.AssignStmt{
		LHS: &cminus.Ident{Name: ivar, P: x.P},
		RHS: &cminus.BinaryExpr{Op: "+", X: &cminus.Ident{Name: ivar, P: x.P}, Y: &cminus.IntLit{Val: 1, P: x.P}, P: x.P},
		P:   x.P,
	}
	out.Body = body
	return []cminus.Stmt{out}
}

func splitInit(s cminus.Stmt) (ivar string, lb cminus.Expr, ok bool) {
	switch x := s.(type) {
	case *cminus.AssignStmt:
		if x.Op != "" {
			return "", nil, false
		}
		id, isID := x.LHS.(*cminus.Ident)
		if !isID {
			return "", nil, false
		}
		return id.Name, x.RHS, true
	case *cminus.DeclStmt:
		if len(x.Items) != 1 || x.Items[0].Init == nil {
			return "", nil, false
		}
		return x.Items[0].Name, x.Items[0].Init, true
	}
	return "", nil, false
}

func splitCond(e cminus.Expr, ivar string) (ub cminus.Expr, inclusive, ok bool) {
	b, isBin := e.(*cminus.BinaryExpr)
	if !isBin {
		return nil, false, false
	}
	id, isID := b.X.(*cminus.Ident)
	if isID && id.Name == ivar {
		switch b.Op {
		case "<":
			return b.Y, false, true
		case "<=":
			return b.Y, true, true
		}
		return nil, false, false
	}
	// Reversed form: ub > i / ub >= i.
	id, isID = b.Y.(*cminus.Ident)
	if isID && id.Name == ivar {
		switch b.Op {
		case ">":
			return b.X, false, true
		case ">=":
			return b.X, true, true
		}
	}
	return nil, false, false
}

func postIsIncrementByOne(s cminus.Stmt, ivar string) bool {
	switch x := s.(type) {
	case *cminus.ExprStmt:
		u, ok := x.X.(*cminus.UnaryExpr)
		if !ok || u.Op != "++" {
			return false
		}
		id, ok := u.X.(*cminus.Ident)
		return ok && id.Name == ivar
	case *cminus.AssignStmt:
		id, ok := x.LHS.(*cminus.Ident)
		if !ok || id.Name != ivar {
			return false
		}
		if x.Op == "+" {
			lit, ok := x.RHS.(*cminus.IntLit)
			return ok && lit.Val == 1
		}
		if x.Op != "" {
			return false
		}
		b, ok := x.RHS.(*cminus.BinaryExpr)
		if !ok || b.Op != "+" {
			return false
		}
		l, lok := b.X.(*cminus.Ident)
		r, rok := b.Y.(*cminus.IntLit)
		if lok && rok && l.Name == ivar && r.Val == 1 {
			return true
		}
		l2, lok2 := b.Y.(*cminus.Ident)
		r2, rok2 := b.X.(*cminus.IntLit)
		return lok2 && rok2 && l2.Name == ivar && r2.Val == 1
	}
	return false
}

func hasBreakOrReturn(blk *cminus.Block) bool {
	found := false
	cminus.WalkStmts(blk, func(s cminus.Stmt) bool {
		switch s.(type) {
		case *cminus.BreakStmt, *cminus.ReturnStmt:
			found = true
			return false
		case *cminus.ForStmt, *cminus.WhileStmt:
			// break inside a nested loop exits that loop only; nested
			// loops are checked when they are normalized themselves, and a
			// nested break does not make the outer loop ineligible.
			// Still descend: a return anywhere is disqualifying, so scan
			// nested bodies for returns specifically.
			nested := s
			cminus.WalkStmts(nested, func(inner cminus.Stmt) bool {
				if _, ok := inner.(*cminus.ReturnStmt); ok {
					found = true
					return false
				}
				return true
			})
			return false
		}
		return true
	})
	return found
}

// firstSideEffectCall returns the first call to anything but a builtin
// in loop, its header included: a parallel loop evaluates its bound
// once, where the serial loop evaluates it on every iteration.
func firstSideEffectCall(loop *cminus.ForStmt) (string, bool) {
	var name string
	cminus.WalkStmts(loop, func(s cminus.Stmt) bool {
		cminus.StmtExprs(s, func(e cminus.Expr) bool {
			if c, ok := e.(*cminus.CallExpr); ok && cminus.LookupBuiltin(c.Fun) == nil && name == "" {
				name = c.Fun
			}
			return true
		})
		return name == ""
	})
	return name, name != ""
}

// writesIndexOrBound explains why a loop with index ivar and bounds lb
// and ub is not canonical when its lower bound, condition or body (inner
// loops' headers included) writes the index, or when anything but its
// post writes a name either bound reads, the index included: the count
// ub - lb is taken once, and the shift rewrites the index as ivar + lb
// throughout the body. A scalar and an array of one name count as one
// name here. It returns "" for a loop that leaves them alone.
func writesIndexOrBound(x *cminus.ForStmt, ivar string, lb, ub cminus.Expr) string {
	// The loop without its post, its init reduced to the lower bound.
	scalars, arrays := cminus.Writes(&cminus.ForStmt{Init: &cminus.ExprStmt{X: lb}, Cond: x.Cond, Body: x.Body})
	if slices.Contains(scalars, ivar) {
		return fmt.Sprintf("loop writes its index %q", ivar)
	}
	var written string
	read := func(e cminus.Expr) bool {
		if id, ok := e.(*cminus.Ident); ok && (id.Name == ivar || slices.Contains(scalars, id.Name) || slices.Contains(arrays, id.Name)) {
			written = id.Name
		}
		return written == ""
	}
	cminus.WalkExprs(lb, read)
	cminus.WalkExprs(ub, read)
	if written != "" {
		return fmt.Sprintf("loop writes %q, which a bound reads", written)
	}
	return ""
}

// substituteIdentBlock replaces every use of name with repl throughout a
// block, nested statements included. It rewrites an assignment target
// too, so the block must not write name: normalizeFor shifts only a loop
// whose body leaves its index alone (writesIndexOrBound).
func substituteIdentBlock(blk *cminus.Block, name string, repl cminus.Expr) *cminus.Block {
	var substE func(e cminus.Expr) cminus.Expr
	substE = func(e cminus.Expr) cminus.Expr {
		switch x := e.(type) {
		case nil:
			return nil
		case *cminus.Ident:
			if x.Name == name {
				return cminus.CloneExpr(repl)
			}
			return x
		case *cminus.BinaryExpr:
			return &cminus.BinaryExpr{Op: x.Op, X: substE(x.X), Y: substE(x.Y), P: x.P}
		case *cminus.UnaryExpr:
			return &cminus.UnaryExpr{Op: x.Op, X: substE(x.X), Postfix: x.Postfix, P: x.P}
		case *cminus.CondExpr:
			return &cminus.CondExpr{C: substE(x.C), T: substE(x.T), F: substE(x.F), P: x.P}
		case *cminus.IndexExpr:
			return &cminus.IndexExpr{Arr: substE(x.Arr), Index: substE(x.Index), P: x.P}
		case *cminus.CallExpr:
			args := make([]cminus.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = substE(a)
			}
			return &cminus.CallExpr{Fun: x.Fun, Args: args, P: x.P}
		case *cminus.CastExpr:
			return &cminus.CastExpr{Type: x.Type, X: substE(x.X), P: x.P}
		}
		return e
	}
	var substS func(s cminus.Stmt) cminus.Stmt
	substS = func(s cminus.Stmt) cminus.Stmt {
		switch x := s.(type) {
		case nil:
			return nil
		case *cminus.AssignStmt:
			return &cminus.AssignStmt{LHS: substE(x.LHS), Op: x.Op, RHS: substE(x.RHS), P: x.P}
		case *cminus.ExprStmt:
			return &cminus.ExprStmt{X: substE(x.X), P: x.P}
		case *cminus.IfStmt:
			out := &cminus.IfStmt{Cond: substE(x.Cond), Then: substS(x.Then).(*cminus.Block), P: x.P}
			if x.Else != nil {
				out.Else = substS(x.Else)
			}
			return out
		case *cminus.ForStmt:
			return &cminus.ForStmt{
				Init: substS(x.Init), Cond: substE(x.Cond), Post: substS(x.Post),
				Body: substS(x.Body).(*cminus.Block), Pragmas: x.Pragmas, P: x.P, Label: x.Label,
			}
		case *cminus.WhileStmt:
			return &cminus.WhileStmt{Cond: substE(x.Cond), Body: substS(x.Body).(*cminus.Block), P: x.P}
		case *cminus.Block:
			out := &cminus.Block{P: x.P}
			for _, st := range x.Stmts {
				out.Stmts = append(out.Stmts, substS(st))
			}
			return out
		default:
			return s
		}
	}
	return substS(blk).(*cminus.Block)
}

// ---- small AST expression helpers ----

func addExprC(a, b cminus.Expr) cminus.Expr {
	return &cminus.BinaryExpr{Op: "+", X: a, Y: b}
}

func subExprC(a, b cminus.Expr) cminus.Expr {
	return &cminus.BinaryExpr{Op: "-", X: a, Y: b}
}

func isZero(e cminus.Expr) bool {
	lit, ok := e.(*cminus.IntLit)
	return ok && lit.Val == 0
}

// foldExpr performs trivial constant folding on an AST expression
// (x - 0 = x, constant arithmetic) to keep iteration counts readable.
func foldExpr(e cminus.Expr) cminus.Expr {
	b, ok := e.(*cminus.BinaryExpr)
	if !ok {
		return e
	}
	x := foldExpr(b.X)
	y := foldExpr(b.Y)
	xl, xok := x.(*cminus.IntLit)
	yl, yok := y.(*cminus.IntLit)
	if xok && yok {
		switch b.Op {
		case "+":
			return &cminus.IntLit{Val: xl.Val + yl.Val, P: b.P}
		case "-":
			return &cminus.IntLit{Val: xl.Val - yl.Val, P: b.P}
		case "*":
			return &cminus.IntLit{Val: xl.Val * yl.Val, P: b.P}
		}
	}
	if yok && yl.Val == 0 && (b.Op == "+" || b.Op == "-") {
		return x
	}
	if xok && xl.Val == 0 && b.Op == "+" {
		return y
	}
	return &cminus.BinaryExpr{Op: b.Op, X: x, Y: y, P: b.P}
}
