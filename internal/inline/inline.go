// Package inline implements inline expansion of function calls. The paper
// notes: "Since our technique operates intraprocedurally, we performed
// inline expansion, so that the to-be parallelized subscripted subscript
// loops appear in the same subroutine as the loops that define the
// subscript array." This pass automates that step: call statements to
// functions defined in the same program are replaced by the callee's
// body, with parameters bound and locals renamed apart.
//
// Supported calls (sufficient for the benchmark programs):
//   - the call is a statement (void context);
//   - array/pointer arguments are plain identifiers (bound by renaming);
//   - scalar arguments are arbitrary expressions (bound by assignment to
//     a fresh local);
//   - the callee contains no return statements and no recursion.
package inline

import (
	"fmt"

	"repro/internal/cminus"
)

// Expand returns a copy of prog with every inlinable call statement in
// entry functions expanded. Functions that were inlined somewhere remain
// in the program (they may also be called from outside). The maxDepth
// parameter bounds nested expansion.
func Expand(prog *cminus.Program, maxDepth int) *cminus.Program {
	out := cminus.CloneProgram(prog)
	ix := &inliner{prog: out}
	for _, fn := range out.Funcs {
		if fn.Body != nil {
			fn.Body = ix.expandBlock(fn.Body, fn.Name, maxDepth)
		}
	}
	return out
}

type inliner struct {
	prog  *cminus.Program
	fresh int
}

func (ix *inliner) expandBlock(blk *cminus.Block, caller string, depth int) *cminus.Block {
	out := &cminus.Block{P: blk.P}
	for _, s := range blk.Stmts {
		out.Stmts = append(out.Stmts, ix.expandStmt(s, caller, depth)...)
	}
	return out
}

func (ix *inliner) expandStmt(s cminus.Stmt, caller string, depth int) []cminus.Stmt {
	switch x := s.(type) {
	case *cminus.ExprStmt:
		if call, ok := x.X.(*cminus.CallExpr); ok && depth > 0 {
			if body, ok := ix.tryInline(call, caller, depth); ok {
				return body
			}
		}
		return []cminus.Stmt{s}
	case *cminus.Block:
		return []cminus.Stmt{ix.expandBlock(x, caller, depth)}
	case *cminus.IfStmt:
		x.Then = ix.expandBlock(x.Then, caller, depth)
		if els, ok := x.Else.(*cminus.Block); ok {
			x.Else = ix.expandBlock(els, caller, depth)
		}
		return []cminus.Stmt{x}
	case *cminus.ForStmt:
		x.Body = ix.expandBlock(x.Body, caller, depth)
		return []cminus.Stmt{x}
	case *cminus.WhileStmt:
		x.Body = ix.expandBlock(x.Body, caller, depth)
		return []cminus.Stmt{x}
	}
	return []cminus.Stmt{s}
}

// tryInline expands one call statement; ok=false leaves it untouched.
func (ix *inliner) tryInline(call *cminus.CallExpr, caller string, depth int) ([]cminus.Stmt, bool) {
	callee := ix.prog.Func(call.Fun)
	if callee == nil || callee.Body == nil || callee.Name == caller {
		return nil, false
	}
	if len(call.Args) != len(callee.Params) {
		return nil, false
	}
	if hasReturn(callee.Body) {
		return nil, false
	}

	ix.fresh++
	suffix := fmt.Sprintf("_inl%d", ix.fresh)

	// Build the renaming: every callee local and parameter gets a fresh
	// name, except array/pointer parameters bound to plain identifier
	// arguments, which rename directly to the argument.
	rename := map[string]string{}
	var pre []cminus.Stmt
	for i, prm := range callee.Params {
		arg := call.Args[i]
		isArrayParam := prm.PtrDeep > 0 || len(prm.Dims) > 0
		if isArrayParam {
			id, ok := arg.(*cminus.Ident)
			if !ok {
				return nil, false
			}
			rename[prm.Name] = id.Name
			continue
		}
		fresh := prm.Name + suffix
		rename[prm.Name] = fresh
		pre = append(pre,
			&cminus.DeclStmt{Type: prm.Type, Items: []cminus.DeclItem{{Name: fresh}}, P: call.P},
			&cminus.AssignStmt{LHS: &cminus.Ident{Name: fresh, P: call.P}, RHS: cminus.CloneExpr(arg), P: call.P},
		)
	}
	// Locals declared in the body.
	cminus.WalkStmts(callee.Body, func(s cminus.Stmt) bool {
		if d, ok := s.(*cminus.DeclStmt); ok {
			for _, it := range d.Items {
				if _, exists := rename[it.Name]; !exists {
					rename[it.Name] = it.Name + suffix
				}
			}
		}
		return true
	})

	body := cminus.CloneBlock(callee.Body)
	renameBlock(body, rename, suffix)
	// Nested expansion inside the inlined body.
	body = ix.expandBlock(body, caller, depth-1)
	return append(pre, body.Stmts...), true
}

func hasReturn(blk *cminus.Block) bool {
	found := false
	cminus.WalkStmts(blk, func(s cminus.Stmt) bool {
		if _, ok := s.(*cminus.ReturnStmt); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// renameBlock applies the renaming to every identifier, each once, and
// relabels loops so labels stay unique in the caller.
func renameBlock(blk *cminus.Block, rename map[string]string, suffix string) {
	cminus.WalkStmts(blk, func(s cminus.Stmt) bool {
		switch x := s.(type) {
		case *cminus.ForStmt:
			x.Label += suffix
		case *cminus.DeclStmt:
			for i := range x.Items {
				if to, ok := rename[x.Items[i].Name]; ok {
					x.Items[i].Name = to
				}
			}
		}
		cminus.StmtExprs(s, func(e cminus.Expr) bool {
			if id, ok := e.(*cminus.Ident); ok {
				if to, ok := rename[id.Name]; ok {
					id.Name = to
				}
			}
			return true
		})
		return true
	})
}
