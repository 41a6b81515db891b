package cminus

import "strings"

// Name resolution for the execution engines. The bytecode VM
// (internal/interp) and the Go emitter (internal/codegen) take every
// binding and static type from Bind; the tree-walking interpreter, their
// oracle, implements the same rules in its own code.
//
//   - Block scope. A declaration is visible from its declarator to the
//     end of its block; its dimensions and initializer still see the
//     names outside it. A for statement's clauses share one scope around
//     its body; the post runs after the body, so a name it defines is
//     visible to nothing after it. A function body's top level shares
//     the parameters' scope. An inner declaration shadows outer ones,
//     parameters and globals. Scalars and arrays are separate
//     namespaces.
//   - No caller locals. A function sees its parameters, its own
//     declarations and the program's globals.
//   - Implicit scalars. A plain x = e to a scalar no scope binds defines
//     x in the innermost scope, typed by e, which is resolved before x
//     exists. x op= e, x++ and any read of an unbound name stay unbound:
//     the engines report them when they run.
//   - Types are C's usual arithmetic conversions over int and double.
//     + - * / and ?: are double when either operand is; comparisons,
//     logic, % and bitwise operators are int; a user call has its
//     callee's return type, a builtin its row's (LookupBuiltin).

// Binding is one declaration a name denotes: a global, a parameter, a
// declarator, or the assignment that defines an implicit scalar.
type Binding struct {
	Name  string
	Array bool // an array or pointer declarator
	Float bool // a double scalar or a double array
	// index is the binding's position in Binds.Locals, -1 for a global.
	index int
	// Def is the assignment that defines an implicit scalar.
	Def *AssignStmt
	// Read reports whether an expression of the function reads the
	// binding; for an array, whether one refers to it.
	Read bool
}

// Binds is the name resolution of one function.
type Binds struct {
	// Locals are the function's own bindings: its parameters, then its
	// declarations and implicit scalars in source order.
	Locals []*Binding
	prog   *Program
	idents map[*Ident]*Binding
	decls  map[*DeclStmt][]*Binding
	loops  map[*ForStmt]scopeMark
	// cur and limit are the walk's position: the innermost scope, and
	// the Locals index below which its bindings are visible.
	cur   *scope
	limit int
}

// scope is one block's names. A name may be declared twice in one
// block; the later binding shadows the earlier one from its declarator.
type scope struct {
	parent *scope
	names  map[string][]*Binding
}

// scopeMark is the resolution state at a statement.
type scopeMark struct {
	sc    *scope
	limit int
}

const noLimit = int(^uint(0) >> 1)

// Bind resolves fn's names against prog's globals. With fn nil it
// resolves only the global declarations, each of whose dimensions and
// initializer see the globals declared before it.
func Bind(prog *Program, fn *FuncDecl) *Binds {
	b := &Binds{
		prog:   prog,
		idents: map[*Ident]*Binding{},
		decls:  map[*DeclStmt][]*Binding{},
		loops:  map[*ForStmt]scopeMark{},
		cur:    &scope{},
		limit:  noLimit,
	}
	for _, d := range prog.Globals {
		b.decl(d, true)
	}
	if fn == nil {
		return b
	}
	b.cur = &scope{parent: b.cur}
	for _, prm := range fn.Params {
		b.define(prm.Name, prm.PtrDeep > 0 || len(prm.Dims) > 0, IsFloatType(prm.Type), false)
	}
	if fn.Body != nil {
		for _, s := range fn.Body.Stmts {
			b.stmt(s)
		}
	}
	return b
}

// Of returns the binding an identifier denotes, or nil when it is
// unbound. An array subscript's base and an array argument of a user
// call denote arrays; every other identifier denotes a scalar.
func (b *Binds) Of(id *Ident) *Binding { return b.idents[id] }

// Array returns the binding of an array access's base, or nil when the
// base is unbound or not an identifier.
func (b *Binds) Array(e *IndexExpr) *Binding {
	if base, _ := arrayBase(e); base != nil {
		return b.idents[base]
	}
	return nil
}

// Decl returns the bindings a declaration makes, one per declarator.
func (b *Binds) Decl(d *DeclStmt) []*Binding { return b.decls[d] }

// Lookup returns the binding name denotes at loop, where a parallel
// region's entry gate runs: outside the loop's own clauses.
func (b *Binds) Lookup(loop *ForStmt, name string, array bool) *Binding {
	m := b.loops[loop]
	return find(m.sc, m.limit, name, array)
}

// Index returns the scalar a for statement's init assigns or declares,
// a parallel region's index, or nil.
func (b *Binds) Index(loop *ForStmt) *Binding {
	switch x := loop.Init.(type) {
	case *AssignStmt:
		if id, ok := x.LHS.(*Ident); ok {
			return b.idents[id]
		}
	case *DeclStmt:
		if bs := b.decls[x]; len(bs) == 1 && !bs[0].Array {
			return bs[0]
		}
	}
	return nil
}

// BindAt resolves the identifiers of an expression built outside the
// function, such as a runtime check, as if it were read at loop.
func (b *Binds) BindAt(loop *ForStmt, e Expr) {
	cur, limit := b.cur, b.limit
	m := b.loops[loop]
	b.cur, b.limit = m.sc, m.limit
	b.expr(e)
	b.cur, b.limit = cur, limit
}

// Float reports whether e's static type is double.
func (b *Binds) Float(e Expr) bool {
	switch x := e.(type) {
	case *FloatLit:
		return true
	case *Ident:
		bd := b.idents[x]
		return bd != nil && bd.Float
	case *BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return b.Float(x.X) || b.Float(x.Y)
		}
	case *UnaryExpr:
		switch x.Op {
		case "-", "++", "--":
			return b.Float(x.X)
		}
	case *CondExpr:
		return b.Float(x.T) || b.Float(x.F)
	case *IndexExpr:
		bd := b.Array(x)
		return bd != nil && bd.Float
	case *CallExpr:
		if fn := b.prog.Func(x.Fun); fn != nil && fn.Body != nil {
			return IsFloatType(fn.RetType)
		}
		bi := LookupBuiltin(x.Fun)
		return bi == nil || !bi.Int
	case *CastExpr:
		return IsFloatType(x.Type)
	}
	return false
}

func find(sc *scope, limit int, name string, array bool) *Binding {
	for ; sc != nil; sc = sc.parent {
		bs := sc.names[name]
		for i := len(bs) - 1; i >= 0; i-- {
			if bd := bs[i]; bd.Array == array && bd.index < limit {
				return bd
			}
		}
	}
	return nil
}

func (b *Binds) define(name string, array, float, global bool) *Binding {
	bd := &Binding{Name: name, Array: array, Float: float, index: -1}
	if !global {
		bd.index = len(b.Locals)
		b.Locals = append(b.Locals, bd)
	}
	if b.cur.names == nil {
		b.cur.names = map[string][]*Binding{}
	}
	b.cur.names[name] = append(b.cur.names[name], bd)
	return bd
}

// use binds an identifier read as a scalar or referred to as an array.
func (b *Binds) use(id *Ident, array bool) {
	if bd := find(b.cur, b.limit, id.Name, array); bd != nil {
		bd.Read = true
		b.idents[id] = bd
	}
}

func (b *Binds) block(blk *Block) {
	b.cur = &scope{parent: b.cur}
	for _, s := range blk.Stmts {
		b.stmt(s)
	}
	b.cur = b.cur.parent
}

func (b *Binds) decl(d *DeclStmt, global bool) {
	float := IsFloatType(d.Type)
	bs := make([]*Binding, len(d.Items))
	for i, it := range d.Items {
		for _, dim := range it.Dims {
			b.expr(dim)
		}
		b.expr(it.Init)
		bs[i] = b.define(it.Name, len(it.Dims) > 0 || it.PtrDeep > 0, float, global)
	}
	b.decls[d] = bs
}

func (b *Binds) stmt(s Stmt) {
	switch x := s.(type) {
	case *DeclStmt:
		b.decl(x, false)
	case *AssignStmt:
		b.expr(x.RHS)
		id, ok := x.LHS.(*Ident)
		if !ok {
			b.expr(x.LHS)
			return
		}
		bd := find(b.cur, b.limit, id.Name, false)
		if bd == nil && x.Op == "" {
			bd = b.define(id.Name, false, b.Float(x.RHS), false)
			bd.Def = x
		}
		if bd != nil {
			bd.Read = bd.Read || x.Op != ""
			b.idents[id] = bd
		}
	case *ExprStmt:
		b.expr(x.X)
	case *IfStmt:
		b.expr(x.Cond)
		b.block(x.Then)
		if x.Else != nil {
			b.stmt(x.Else)
		}
	case *ForStmt:
		b.loops[x] = scopeMark{b.cur, len(b.Locals)}
		b.cur = &scope{parent: b.cur}
		if x.Init != nil {
			b.stmt(x.Init)
		}
		b.expr(x.Cond)
		b.block(x.Body)
		if x.Post != nil {
			b.stmt(x.Post)
		}
		b.cur = b.cur.parent
	case *WhileStmt:
		b.expr(x.Cond)
		b.block(x.Body)
	case *Block:
		b.block(x)
	case *ReturnStmt:
		b.expr(x.X)
	}
}

func (b *Binds) expr(e Expr) {
	switch x := e.(type) {
	case *Ident:
		b.use(x, false)
	case *IndexExpr:
		base, idx := arrayBase(x)
		if base == nil {
			b.expr(x.Arr)
			b.expr(x.Index)
			return
		}
		b.use(base, true)
		for _, ie := range idx {
			b.expr(ie)
		}
	case *CallExpr:
		fn := b.prog.Func(x.Fun)
		for i, a := range x.Args {
			if id, ok := a.(*Ident); ok && fn != nil && fn.Body != nil && i < len(fn.Params) &&
				(fn.Params[i].PtrDeep > 0 || len(fn.Params[i].Dims) > 0) {
				b.use(id, true)
				continue
			}
			b.expr(a)
		}
	case *BinaryExpr:
		b.expr(x.X)
		b.expr(x.Y)
	case *UnaryExpr:
		b.expr(x.X)
	case *CondExpr:
		b.expr(x.C)
		b.expr(x.T)
		b.expr(x.F)
	case *CastExpr:
		b.expr(x.X)
	}
}

// arrayBase is ArrayBase returning the base identifier itself.
func arrayBase(e *IndexExpr) (*Ident, []Expr) {
	// The chain holds the last subscript outermost: count the
	// subscripts, then fill one slice from the back.
	n := 1
	x := e.Arr
	for ix, ok := x.(*IndexExpr); ok; ix, ok = x.(*IndexExpr) {
		n++
		x = ix.Arr
	}
	idx := make([]Expr, n)
	ix := e
	for i := n - 1; i >= 0; i-- {
		idx[i] = ix.Index
		ix, _ = ix.Arr.(*IndexExpr)
	}
	id, _ := x.(*Ident)
	return id, idx
}

// IsFloatType reports whether a mini-C base type spelling denotes a
// floating-point type ("double", "float", "const double", ...).
func IsFloatType(typ string) bool {
	return strings.Contains(typ, "double") || strings.Contains(typ, "float")
}

// NumberLoops enumerates every for-statement under blk in source order —
// the same pre-order the parser uses to assign loop labels — so index i
// in the returned slice is a dense, stable loop id within the function.
// Plans and compiled code agree on these ids without probing label maps.
func NumberLoops(blk *Block) []*ForStmt {
	var out []*ForStmt
	if blk == nil {
		return nil
	}
	WalkStmts(blk, func(s Stmt) bool {
		if loop, ok := s.(*ForStmt); ok {
			out = append(out, loop)
		}
		return true
	})
	return out
}
