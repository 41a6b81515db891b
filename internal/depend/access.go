// Package depend implements the data-dependence tests that decide loop
// parallelizability: classical affine tests (in the spirit of the Range
// Test used by Cetus), scalar privatization and reduction recognition, and
// the extended test that consumes the subscript-array monotonicity
// properties established by the Phase-2 analysis to disprove dependences
// in subscripted-subscript loops — inserting a run-time check when the
// accessed section exceeds what is known at compile time.
package depend

import (
	"repro/internal/cminus"
	"repro/internal/normalize"
	"repro/internal/symbolic"
)

// AccessKind distinguishes reads from writes.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

// ArrayAccess is one array reference found in a loop body.
type ArrayAccess struct {
	Array string
	Kind  AccessKind
	// Indices are the symbolic subscript expressions (one per dimension),
	// with identifiers rendered as symbols.
	Indices []symbolic.Expr
	// ReadModifyWrite marks a write that also reads the same location in
	// the same statement (y[e] = y[e] + ..., i.e. an update).
	ReadModifyWrite bool
}

// LoopAccessInfo is everything the dependence test needs about one loop.
type LoopAccessInfo struct {
	Meta *normalize.LoopMeta
	// Accesses lists every array access in the body (including inner
	// loops).
	Accesses []ArrayAccess
	// ScalarWrites lists scalars assigned in the body.
	ScalarWrites map[string]bool
	// ScalarFirstIsWrite marks scalars whose first textual access in the
	// body is a write (candidates for privatization).
	ScalarFirstIsWrite map[string]bool
	// Reductions maps scalars updated only via v = v + e / v = v * e.
	Reductions map[string]string // var -> operator
	// InnerLoops lists the loops nested in the body.
	InnerLoops []*cminus.ForStmt
	// HasUnknownCall marks a call to anything but a builtin.
	HasUnknownCall bool
	// InnerRanges provides [lo:hi] ranges for inner loop variables with
	// affine bounds.
	InnerRanges map[string][2]symbolic.Expr
	// subst applies the collected scalar-copy environment to a subscript.
	subst func(symbolic.Expr) symbolic.Expr
}

// CollectAccesses scans a normalized loop and gathers the access
// information for the dependence test.
func CollectAccesses(loop *cminus.ForStmt, meta *normalize.LoopMeta) *LoopAccessInfo {
	info := &LoopAccessInfo{
		Meta:               meta,
		ScalarWrites:       map[string]bool{},
		ScalarFirstIsWrite: map[string]bool{},
		Reductions:         map[string]string{},
		InnerRanges:        map[string][2]symbolic.Expr{},
	}
	seenScalar := map[string]bool{}
	brokenRed := map[string]bool{}
	// copyEnv forward-substitutes scalar copies (m = A_rownnz[i]) into
	// subscripts so that y_data[m] is tested as y_data[A_rownnz[i]].
	copyEnv := symbolic.Subst{}
	condDepth := 0
	info.subst = func(e symbolic.Expr) symbolic.Expr {
		if len(copyEnv) == 0 {
			return e
		}
		return symbolic.Substitute(e, copyEnv)
	}

	var scanExprReads func(e cminus.Expr)
	scanExprReads = func(e cminus.Expr) {
		cminus.WalkExprs(e, func(x cminus.Expr) bool {
			switch t := x.(type) {
			case *cminus.IndexExpr:
				// Only record the outermost chain.
				if name, idx, ok := cminus.ArrayBase(t); ok {
					info.addAccess(name, idx, Read)
					for _, ie := range idx {
						scanExprReads(ie)
					}
					return false
				}
			case *cminus.Ident:
				if !seenScalar[t.Name] {
					seenScalar[t.Name] = true
					info.ScalarFirstIsWrite[t.Name] = false
				}
			case *cminus.UnaryExpr:
				// A ++ or -- the normalizer leaves in place (in an inner
				// loop's header) reads its scalar or element, then writes
				// it.
				if t.Op != "++" && t.Op != "--" {
					break
				}
				if id, ok := t.X.(*cminus.Ident); ok {
					if !seenScalar[id.Name] {
						seenScalar[id.Name] = true
						info.ScalarFirstIsWrite[id.Name] = false
					}
					info.ScalarWrites[id.Name] = true
					brokenRed[id.Name] = true
					delete(info.Reductions, id.Name)
					copyEnv[id.Name] = symbolic.Bottom{}
				} else if name, idx, ok := cminus.ArrayBase(t.X); ok {
					info.addAccess(name, idx, Read)
					info.addAccessRMW(name, idx, true)
					for _, ie := range idx {
						scanExprReads(ie)
					}
					return false
				}
			case *cminus.CallExpr:
				if cminus.LookupBuiltin(t.Fun) == nil {
					info.HasUnknownCall = true
				}
			}
			return true
		})
	}

	var scanStmt func(s cminus.Stmt)
	scanStmt = func(s cminus.Stmt) {
		switch x := s.(type) {
		case *cminus.AssignStmt:
			// RHS reads first (source order within the statement).
			scanExprReads(x.RHS)
			if id, ok := x.LHS.(*cminus.Ident); ok {
				if !seenScalar[id.Name] {
					seenScalar[id.Name] = true
					info.ScalarFirstIsWrite[id.Name] = true
				}
				info.ScalarWrites[id.Name] = true
				// Record the copy value for subscript substitution; a
				// conditional assignment, or an op= an inner loop's
				// header keeps, makes the value unknown.
				if condDepth == 0 && x.Op == "" {
					val := symbolic.Substitute(convertSubscript(x.RHS), copyEnv)
					copyEnv[id.Name] = val
				} else {
					copyEnv[id.Name] = symbolic.Bottom{}
				}
				if op, isRed := reductionShape(id.Name, x); isRed {
					if brokenRed[id.Name] {
						// A previous non-reduction assignment already broke
						// the shape.
					} else if prev, has := info.Reductions[id.Name]; has && prev != op {
						brokenRed[id.Name] = true
						delete(info.Reductions, id.Name)
					} else {
						info.Reductions[id.Name] = op
					}
				} else {
					brokenRed[id.Name] = true
					delete(info.Reductions, id.Name)
				}
				return
			}
			if name, idx, ok := cminus.ArrayBase(x.LHS); ok {
				for _, ie := range idx {
					scanExprReads(ie)
				}
				rmw := writeReadsSameLocation(name, idx, x.RHS)
				info.addAccessRMW(name, idx, rmw)
			}
		case *cminus.ExprStmt:
			scanExprReads(x.X)
		case *cminus.DeclStmt:
			for _, it := range x.Items {
				scanExprReads(it.Init)
				if len(it.Dims) == 0 && it.PtrDeep == 0 {
					// A body-local declaration: definitely private.
					if !seenScalar[it.Name] {
						seenScalar[it.Name] = true
						info.ScalarFirstIsWrite[it.Name] = true
					}
				}
			}
		case *cminus.IfStmt:
			scanExprReads(x.Cond)
			condDepth++
			for _, st := range x.Then.Stmts {
				scanStmt(st)
			}
			if x.Else != nil {
				if blk, ok := x.Else.(*cminus.Block); ok {
					for _, st := range blk.Stmts {
						scanStmt(st)
					}
				} else {
					scanStmt(x.Else)
				}
			}
			condDepth--
		case *cminus.ForStmt:
			info.InnerLoops = append(info.InnerLoops, x)
			if v, lo, hi, ok := affineInnerRange(x); ok {
				info.InnerRanges[v] = [2]symbolic.Expr{info.applySubst(lo), info.applySubst(hi)}
			}
			scanStmt(x.Init)
			// In the body the index ranges over the loop (InnerRanges);
			// it is no copy of its start.
			index, _, _ := initVar(x.Init)
			delete(copyEnv, index)
			// Any other scalar the loop writes holds, in its body, the
			// value an earlier trip left, and after it the last trip's:
			// no copy made before the loop.
			written, _ := cminus.Writes(x)
			unknown := func() {
				for _, v := range written {
					if v != index {
						copyEnv[v] = symbolic.Bottom{}
					}
				}
			}
			unknown()
			scanExprReads(x.Cond)
			for _, st := range x.Body.Stmts {
				scanStmt(st)
			}
			// The post runs only after an iteration: what it writes is
			// no copy past the loop.
			condDepth++
			scanStmt(x.Post)
			condDepth--
			unknown()
		case *cminus.WhileStmt:
			scanExprReads(x.Cond)
			for _, st := range x.Body.Stmts {
				scanStmt(st)
			}
		case *cminus.Block:
			for _, st := range x.Stmts {
				scanStmt(st)
			}
		}
	}
	for _, s := range loop.Body.Stmts {
		scanStmt(s)
	}
	return info
}

func (info *LoopAccessInfo) addAccess(arr string, idx []cminus.Expr, kind AccessKind) {
	indices := make([]symbolic.Expr, len(idx))
	for i, e := range idx {
		indices[i] = info.applySubst(convertSubscript(e))
	}
	info.Accesses = append(info.Accesses, ArrayAccess{Array: arr, Kind: kind, Indices: indices})
}

func (info *LoopAccessInfo) addAccessRMW(arr string, idx []cminus.Expr, rmw bool) {
	indices := make([]symbolic.Expr, len(idx))
	for i, e := range idx {
		indices[i] = info.applySubst(convertSubscript(e))
	}
	info.Accesses = append(info.Accesses, ArrayAccess{Array: arr, Kind: Write, Indices: indices, ReadModifyWrite: rmw})
}

func (info *LoopAccessInfo) applySubst(e symbolic.Expr) symbolic.Expr {
	if info.subst == nil {
		return e
	}
	return info.subst(e)
}

// writeReadsSameLocation reports whether the RHS reads the same array at a
// syntactically identical subscript (an update like y[e] = y[e] + ...).
func writeReadsSameLocation(arr string, idx []cminus.Expr, rhs cminus.Expr) bool {
	lhsKey := subscriptKey(arr, idx)
	found := false
	cminus.WalkExprs(rhs, func(x cminus.Expr) bool {
		if name, ridx, ok := cminus.ArrayBase(x); ok {
			if subscriptKey(name, ridx) == lhsKey {
				found = true
			}
		}
		return !found
	})
	return found
}

func subscriptKey(arr string, idx []cminus.Expr) string {
	key := arr
	for _, e := range idx {
		key += "[" + cminus.PrintExpr(e) + "]"
	}
	return key
}

// reductionShape recognizes v = v op e with e free of v (op in {+,*}).
func reductionShape(v string, as *cminus.AssignStmt) (string, bool) {
	b, ok := as.RHS.(*cminus.BinaryExpr)
	if !ok || (b.Op != "+" && b.Op != "*") {
		return "", false
	}
	// v op e or e op v.
	var other cminus.Expr
	if id, ok := b.X.(*cminus.Ident); ok && id.Name == v {
		other = b.Y
	} else if id, ok := b.Y.(*cminus.Ident); ok && id.Name == v && b.Op == "+" {
		other = b.X
	} else {
		return "", false
	}
	usesV := false
	cminus.WalkExprs(other, func(x cminus.Expr) bool {
		if id, ok := x.(*cminus.Ident); ok && id.Name == v {
			usesV = true
		}
		return !usesV
	})
	if usesV {
		return "", false
	}
	return b.Op, true
}

// affineInnerRange recognizes for (v = lo; v < hi; v++) with affine bounds
// and returns v's value range [lo : hi-1].
func affineInnerRange(loop *cminus.ForStmt) (string, symbolic.Expr, symbolic.Expr, bool) {
	v, initRHS, ok := initVar(loop.Init)
	if !ok {
		return "", nil, nil, false
	}
	lo := convertSubscript(initRHS)
	if symbolic.IsBottom(lo) {
		return "", nil, nil, false
	}
	cond, ok := loop.Cond.(*cminus.BinaryExpr)
	if !ok {
		return "", nil, nil, false
	}
	id, isID := cond.X.(*cminus.Ident)
	if !isID || id.Name != v {
		return "", nil, nil, false
	}
	hi := convertSubscript(cond.Y)
	if symbolic.IsBottom(hi) {
		return "", nil, nil, false
	}
	switch cond.Op {
	case "<":
		return v, lo, symbolic.SubExpr(hi, symbolic.One), true
	case "<=":
		return v, lo, hi, true
	}
	return "", nil, nil, false
}

func initVar(s cminus.Stmt) (string, cminus.Expr, bool) {
	switch x := s.(type) {
	case *cminus.AssignStmt:
		if id, ok := x.LHS.(*cminus.Ident); ok && x.Op == "" {
			return id.Name, x.RHS, true
		}
	case *cminus.DeclStmt:
		if len(x.Items) == 1 && x.Items[0].Init != nil {
			return x.Items[0].Name, x.Items[0].Init, true
		}
	}
	return "", nil, false
}

// convertSubscript converts a subscript expression to symbolic form:
// identifiers become symbols; nested array reads become ArrayRef atoms.
func convertSubscript(e cminus.Expr) symbolic.Expr {
	switch x := e.(type) {
	case nil:
		return symbolic.Bottom{}
	case *cminus.IntLit:
		return symbolic.NewInt(x.Val)
	case *cminus.Ident:
		return symbolic.NewSym(x.Name)
	case *cminus.BinaryExpr:
		l := convertSubscript(x.X)
		r := convertSubscript(x.Y)
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
			return symbolic.NegExpr(convertSubscript(x.X))
		}
		return symbolic.Bottom{}
	case *cminus.IndexExpr:
		name, idx, ok := cminus.ArrayBase(e)
		if !ok {
			return symbolic.Bottom{}
		}
		indices := make([]symbolic.Expr, len(idx))
		for i, ie := range idx {
			indices[i] = convertSubscript(ie)
			if symbolic.IsBottom(indices[i]) {
				return symbolic.Bottom{}
			}
		}
		return symbolic.ArrayRef{Name: name, Indices: indices}
	case *cminus.CastExpr:
		return convertSubscript(x.X)
	case *cminus.CallExpr:
		return symbolic.Bottom{}
	}
	return symbolic.Bottom{}
}
