package cminus

import "slices"

// The AST for the mini-C language. Expressions and statements carry their
// source position for diagnostics.

// Expr is a mini-C expression.
type Expr interface {
	Pos() Position
	exprNode()
}

// Stmt is a mini-C statement.
type Stmt interface {
	Pos() Position
	stmtNode()
}

// Ident is a variable reference.
type Ident struct {
	Name string
	P    Position
}

// IntLit is an integer literal.
type IntLit struct {
	Val int64
	P   Position
}

// FloatLit is a floating-point literal: its double value, converted
// once by the parser, and its source text less any C suffix, which the
// printer and the Go emitter write back unchanged.
type FloatLit struct {
	Val  float64
	Text string
	P    Position
}

// StringLit is a string literal (appears only in calls like printf).
type StringLit struct {
	Text string
	P    Position
}

// BinaryExpr is X Op Y where Op is an arithmetic, relational, logical,
// bitwise or shift operator.
type BinaryExpr struct {
	Op   string
	X, Y Expr
	P    Position
}

// UnaryExpr is Op X (prefix) or X Op (postfix, for ++/--).
type UnaryExpr struct {
	Op      string
	X       Expr
	Postfix bool
	P       Position
}

// CondExpr is the ternary C ? T : F.
type CondExpr struct {
	C, T, F Expr
	P       Position
}

// IndexExpr is a single array subscript step; multi-dimensional accesses
// are chains of IndexExpr.
type IndexExpr struct {
	Arr   Expr
	Index Expr
	P     Position
}

// CallExpr is a function call.
type CallExpr struct {
	Fun  string
	Args []Expr
	P    Position
}

// CastExpr is (type)X; the analysis ignores the cast.
type CastExpr struct {
	Type string
	X    Expr
	P    Position
}

func (e *Ident) Pos() Position      { return e.P }
func (e *IntLit) Pos() Position     { return e.P }
func (e *FloatLit) Pos() Position   { return e.P }
func (e *StringLit) Pos() Position  { return e.P }
func (e *BinaryExpr) Pos() Position { return e.P }
func (e *UnaryExpr) Pos() Position  { return e.P }
func (e *CondExpr) Pos() Position   { return e.P }
func (e *IndexExpr) Pos() Position  { return e.P }
func (e *CallExpr) Pos() Position   { return e.P }
func (e *CastExpr) Pos() Position   { return e.P }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StringLit) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CondExpr) exprNode()   {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*CastExpr) exprNode()   {}

// AssignStmt is LHS Op= RHS (Op is "" for plain assignment).
type AssignStmt struct {
	LHS Expr
	Op  string // "", "+", "-", "*", "/", "%"
	RHS Expr
	P   Position
}

// ExprStmt is an expression evaluated for effect (a call, or ++/--).
type ExprStmt struct {
	X Expr
	P Position
}

// DeclStmt declares one or more variables of a base type.
type DeclStmt struct {
	Type  string
	Items []DeclItem
	P     Position
}

// DeclItem is a single declarator: name, optional array dimensions,
// pointer depth, optional initializer.
type DeclItem struct {
	Name    string
	Dims    []Expr // nil for scalars; one entry per dimension
	PtrDeep int    // pointer depth; pointers are treated as 1-D arrays
	Init    Expr   // may be nil
}

// IfStmt is if (Cond) Then else Else (Else may be nil).
type IfStmt struct {
	Cond Expr
	Then *Block
	Else Stmt // *Block or *IfStmt or nil
	P    Position
}

// ForStmt is for (Init; Cond; Post) Body. Pragmas collected immediately
// before the loop are attached.
type ForStmt struct {
	Init    Stmt // may be nil
	Cond    Expr // may be nil
	Post    Stmt // may be nil
	Body    *Block
	Pragmas []string
	P       Position
	// Label is a stable identity assigned by the parser ("L1", "L2", ...)
	// in source order; analyses key their results on it.
	Label string
}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	Cond Expr
	Body *Block
	P    Position
}

// Block is { Stmts }.
type Block struct {
	Stmts []Stmt
	P     Position
}

// ReturnStmt returns from a function.
type ReturnStmt struct {
	X Expr // may be nil
	P Position
}

// BreakStmt exits the innermost loop (makes a loop ineligible for analysis).
type BreakStmt struct{ P Position }

// ContinueStmt skips to the next iteration.
type ContinueStmt struct{ P Position }

func (s *AssignStmt) Pos() Position   { return s.P }
func (s *ExprStmt) Pos() Position     { return s.P }
func (s *DeclStmt) Pos() Position     { return s.P }
func (s *IfStmt) Pos() Position       { return s.P }
func (s *ForStmt) Pos() Position      { return s.P }
func (s *WhileStmt) Pos() Position    { return s.P }
func (s *Block) Pos() Position        { return s.P }
func (s *ReturnStmt) Pos() Position   { return s.P }
func (s *BreakStmt) Pos() Position    { return s.P }
func (s *ContinueStmt) Pos() Position { return s.P }

func (*AssignStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}
func (*DeclStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*Block) stmtNode()        {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// Param is a function parameter.
type Param struct {
	Type    string
	Name    string
	PtrDeep int
	Dims    []Expr // array-typed parameters, e.g. double a[][5]
}

// FuncDecl is a function definition.
type FuncDecl struct {
	RetType string
	Name    string
	Params  []Param
	Body    *Block
	P       Position
}

// Program is a parsed translation unit.
type Program struct {
	Globals []*DeclStmt
	Funcs   []*FuncDecl
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ArrayBase resolves a (possibly chained) IndexExpr to its base array name
// and the list of index expressions, outermost dimension first. It returns
// ok=false if the base is not a plain identifier.
func ArrayBase(e Expr) (name string, indices []Expr, ok bool) {
	ix, isIdx := e.(*IndexExpr)
	if !isIdx {
		return "", nil, false
	}
	id, indices := arrayBase(ix)
	if id == nil {
		return "", nil, false
	}
	return id.Name, indices, true
}

// WalkStmts visits every statement in the subtree rooted at s (including s)
// in source order. Returning false from fn stops descent into that node.
func WalkStmts(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch x := s.(type) {
	case *Block:
		for _, st := range x.Stmts {
			WalkStmts(st, fn)
		}
	case *IfStmt:
		WalkStmts(x.Then, fn)
		if x.Else != nil {
			WalkStmts(x.Else, fn)
		}
	case *ForStmt:
		if x.Init != nil {
			WalkStmts(x.Init, fn)
		}
		if x.Post != nil {
			WalkStmts(x.Post, fn)
		}
		WalkStmts(x.Body, fn)
	case *WhileStmt:
		WalkStmts(x.Body, fn)
	}
}

// WalkExprs visits every expression in the subtree rooted at e (including
// e) in source order. Returning false stops descent.
func WalkExprs(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExprs(x.X, fn)
		WalkExprs(x.Y, fn)
	case *UnaryExpr:
		WalkExprs(x.X, fn)
	case *CondExpr:
		WalkExprs(x.C, fn)
		WalkExprs(x.T, fn)
		WalkExprs(x.F, fn)
	case *IndexExpr:
		WalkExprs(x.Arr, fn)
		WalkExprs(x.Index, fn)
	case *CallExpr:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	case *CastExpr:
		WalkExprs(x.X, fn)
	}
}

// StmtExprs visits every expression directly referenced by s, not
// descending into nested statements: a for's init and post are
// statements of their own, which WalkStmts visits. WalkStmts with
// StmtExprs on each statement thus visits every expression once.
func StmtExprs(s Stmt, fn func(Expr) bool) {
	switch x := s.(type) {
	case *AssignStmt:
		WalkExprs(x.LHS, fn)
		WalkExprs(x.RHS, fn)
	case *ExprStmt:
		WalkExprs(x.X, fn)
	case *DeclStmt:
		for _, it := range x.Items {
			if it.Init != nil {
				WalkExprs(it.Init, fn)
			}
			for _, d := range it.Dims {
				WalkExprs(d, fn)
			}
		}
	case *IfStmt:
		WalkExprs(x.Cond, fn)
	case *ForStmt:
		WalkExprs(x.Cond, fn)
	case *WhileStmt:
		WalkExprs(x.Cond, fn)
	case *ReturnStmt:
		WalkExprs(x.X, fn)
	}
}

// Writes returns the names s may change, each once and in sorted order:
// the scalars it assigns (by = or op=), declares or steps with ++ or
// --, and the arrays an element of which it assigns or steps. It visits
// every expression of s once, the clauses of its loops and the arms of
// its ifs included, so a ++ in a condition, a subscript or an argument
// counts. What a call changes is its caller's concern.
func Writes(s Stmt) (scalars, arrays []string) {
	target := func(e Expr) {
		if name, array, ok := writeTarget(e); ok && array {
			arrays = append(arrays, name)
		} else if ok {
			scalars = append(scalars, name)
		}
	}
	WalkStmts(s, func(st Stmt) bool {
		switch x := st.(type) {
		case *AssignStmt:
			target(x.LHS)
		case *DeclStmt:
			for _, it := range x.Items {
				if len(it.Dims) == 0 && it.PtrDeep == 0 {
					scalars = append(scalars, it.Name)
				}
			}
		}
		StmtExprs(st, func(e Expr) bool {
			if u, ok := e.(*UnaryExpr); ok && (u.Op == "++" || u.Op == "--") {
				target(u.X)
			}
			return true
		})
		return true
	})
	slices.Sort(scalars)
	slices.Sort(arrays)
	return slices.Compact(scalars), slices.Compact(arrays)
}

// writeTarget returns the name an assignment or a ++ or -- changes:
// the scalar e names, or the array e is an element of. ok is false for
// any other expression; the parser admits no such target.
func writeTarget(e Expr) (name string, array, ok bool) {
	for ix, isIdx := e.(*IndexExpr); isIdx; ix, isIdx = e.(*IndexExpr) {
		e, array = ix.Arr, true
	}
	id, ok := e.(*Ident)
	if !ok {
		return "", false, false
	}
	return id.Name, array, true
}
