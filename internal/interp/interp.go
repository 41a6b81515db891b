package interp

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/cminus"
	"repro/internal/depend"
	"repro/internal/guard"
	"repro/internal/parallelize"
	"repro/internal/sched"
)

// Machine executes a mini-C program.
type Machine struct {
	Prog *cminus.Program
	// Plan optionally enables parallel execution of chosen loops. When
	// nil every loop runs serially.
	Plan *parallelize.Plan
	// Workers is the number of goroutines for parallel loops (>=1).
	Workers int
	// Interp selects the execution engine: "" or "vm" for the bytecode
	// VM (default), "tree" for the tree-walking oracle. Unknown names are
	// rejected by Call with the available-engine list.
	Interp string
	// Budget, when non-nil, meters VM execution: the bytecode dispatch
	// loop bills one Step per vmQuantum instructions, parallel regions
	// included, so an exhausted step budget aborts the run (Call returns
	// an error wrapping budget.ErrBudget) within one quantum per running
	// worker. The tree walker does not consume it.
	Budget *budget.B
	// Ctx cancels a running program, which aborts with an error
	// wrapping budget.ErrCanceled. The tree walker polls it at every
	// loop back edge; the VM polls it where it bills Budget, when a
	// metering quantum runs out and at every user-function call. Ctx is
	// read once per 1024 polls machine-wide. Nil means non-cancellable.
	Ctx context.Context
	// polls counts cancellation polls since machine creation; shared
	// across parallel workers, so a poll is one atomic add.
	polls atomic.Int64
	// Globals holds the program's global scalars, by name.
	Globals map[string]*Value
	// Arrays holds the program's global arrays, by name. A function sees
	// these, its parameters and its own declarations, never a caller's
	// locals.
	Arrays map[string]*Array
	// Stats counts executed parallel regions and fallbacks.
	Stats Stats
	// retVal carries the value of the innermost executing return.
	retVal Value
	// bc caches the bytecode program; invalidated when Plan changes.
	bc *bytecodeProgram
}

// Stats records execution events for tests and reports. A plan-chosen
// loop run on more than one worker counts once: a region that opened,
// a fallback whose entry gate failed, or a decline whose work estimate
// was below parallelize.MinWork.
type Stats struct {
	ParallelRegions int
	RuntimeFallback int
	Declined        int
}

// env is one block scope of the tree walker, the scope chain the cminus
// binder resolves statically for the VM and codegen (block scope, a for
// statement's clauses around its body, parameters beside the body's top
// level). Scalars and arrays are separate namespaces, so a name may be
// both. Maps are made on first definition.
type env struct {
	vars   map[string]*Value
	arrs   map[string]*Array
	parent *env
}

func (e *env) define(name string, v Value) {
	if e.vars == nil {
		e.vars = map[string]*Value{}
	}
	e.vars[name] = &Value{I: v.I, F: v.F, Float: v.Float}
}

func (e *env) defineArray(name string, a *Array) {
	if e.arrs == nil {
		e.arrs = map[string]*Array{}
	}
	e.arrs[name] = a
}

// scalar returns the cell a scalar name denotes in e: the innermost
// definition, else the global; nil when unbound.
func (m *Machine) scalar(name string, e *env) *Value {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v
		}
	}
	return m.Globals[name]
}

// array returns the array a name denotes in e: the innermost
// declaration or parameter, else the global; nil when unbound.
func (m *Machine) array(name string, e *env) *Array {
	for s := e; s != nil; s = s.parent {
		if a, ok := s.arrs[name]; ok {
			return a
		}
	}
	return m.Arrays[name]
}

// New builds a machine for a program. Global declarations are evaluated.
func New(prog *cminus.Program) (*Machine, error) {
	m := &Machine{
		Prog:    prog,
		Workers: 1,
		Globals: map[string]*Value{},
		Arrays:  map[string]*Array{},
	}
	top := &env{} // global initializers see no locals
	for _, g := range prog.Globals {
		isFloat := cminus.IsFloatType(g.Type)
		for _, it := range g.Items {
			// A pointer declarator is an array, as in a local declaration.
			if len(it.Dims) > 0 || it.PtrDeep > 0 {
				dims := make([]int64, len(it.Dims))
				for i, d := range it.Dims {
					v, err := m.eval(d, top)
					if err != nil {
						return nil, err
					}
					dims[i] = v.AsInt()
				}
				if isFloat {
					m.Arrays[it.Name] = NewFloatArray(it.Name, dims...)
				} else {
					m.Arrays[it.Name] = NewIntArray(it.Name, dims...)
				}
				continue
			}
			val := Value{Float: isFloat}
			if it.Init != nil {
				v, err := m.eval(it.Init, top)
				if err != nil {
					return nil, err
				}
				val = convert(v, isFloat)
			}
			m.Globals[it.Name] = &val
		}
	}
	return m, nil
}

func convert(v Value, toFloat bool) Value {
	if toFloat {
		return FloatVal(v.AsFloat())
	}
	return IntVal(v.AsInt())
}

// Arg is an argument to Call: a scalar Value or an *Array.
type Arg interface{}

// Call executes the named function with the given arguments on the
// engine selected by Interp ("" / "vm" for the bytecode VM, "tree" for
// the tree-walking oracle).
func (m *Machine) Call(name string, args ...Arg) error {
	switch m.Interp {
	case "", "vm":
		return m.callVM(name, args)
	case "tree":
		return m.callTree(name, args)
	}
	return fmt.Errorf("interp: unknown engine %q (available: %s)",
		m.Interp, strings.Join(Engines(), ", "))
}

// Engines lists the selectable execution engines, default first. The
// empty string is accepted as an alias for "vm".
func Engines() []string { return []string{"vm", "tree"} }

// Precompile validates the selected engine and forces its compilation
// pipeline over the whole program, so engine typos and code-generation
// problems surface before the first Call. The tree engine has no
// compilation step; unknown engines are rejected with the same error as
// Call. This is the interpreter smoke path behind the subsubcc -engine
// flag.
func (m *Machine) Precompile() error {
	switch m.Interp {
	case "", "vm":
		m.ensureBytecode()
	case "tree":
	default:
		return fmt.Errorf("interp: unknown engine %q (available: %s)",
			m.Interp, strings.Join(Engines(), ", "))
	}
	return nil
}

// callTree is Machine.Call on the tree-walking oracle.
func (m *Machine) callTree(name string, args []Arg) error {
	fn := m.Prog.Func(name)
	if fn == nil || fn.Body == nil {
		return fmt.Errorf("interp: no function %q", name)
	}
	if len(args) != len(fn.Params) {
		return fmt.Errorf("interp: %s expects %d args, got %d", name, len(fn.Params), len(args))
	}
	e := &env{}
	for i, prm := range fn.Params {
		if a, ok := args[i].(*Array); ok {
			// Bind by reference under the parameter name.
			e.defineArray(prm.Name, a)
			continue
		}
		// A scalar takes its parameter's declared type, as in the VM.
		v, ok := argValue(args[i])
		if !ok {
			return fmt.Errorf("interp: unsupported argument %T", args[i])
		}
		e.define(prm.Name, convert(v, cminus.IsFloatType(prm.Type)))
	}
	err := m.execBlock(fn.Body, e, m.funcPlan(name))
	if err == errReturn {
		// A top-level return is a normal completion of the call.
		err = nil
	}
	return err
}

// funcPlan is a nil-safe accessor.
func (m *Machine) funcPlan(name string) *parallelize.FuncPlan {
	if m.Plan == nil {
		return nil
	}
	return m.Plan.Funcs[name]
}

func (m *Machine) execBlock(blk *cminus.Block, e *env, fp *parallelize.FuncPlan) error {
	for _, s := range blk.Stmts {
		if err := m.execStmt(s, e, fp); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) execStmt(s cminus.Stmt, e *env, fp *parallelize.FuncPlan) error {
	switch x := s.(type) {
	case *cminus.DeclStmt:
		isFloat := cminus.IsFloatType(x.Type)
		for _, it := range x.Items {
			// A pointer declarator is an array, with no dimensions when
			// none are given, as in the VM, codegen and the analysis
			// (cminus.DeclItem).
			if len(it.Dims) > 0 || it.PtrDeep > 0 {
				dims := make([]int64, len(it.Dims))
				for i, d := range it.Dims {
					v, err := m.eval(d, e)
					if err != nil {
						return err
					}
					dims[i] = v.AsInt()
				}
				if isFloat {
					e.defineArray(it.Name, NewFloatArray(it.Name, dims...))
				} else {
					e.defineArray(it.Name, NewIntArray(it.Name, dims...))
				}
				continue
			}
			val := Value{Float: isFloat}
			if it.Init != nil {
				v, err := m.eval(it.Init, e)
				if err != nil {
					return err
				}
				val = convert(v, isFloat)
			}
			e.define(it.Name, val)
		}
		return nil
	case *cminus.AssignStmt:
		return m.execAssign(x, e)
	case *cminus.ExprStmt:
		_, err := m.eval(x.X, e)
		return err
	case *cminus.IfStmt:
		c, err := m.eval(x.Cond, e)
		if err != nil {
			return err
		}
		if c.Truthy() {
			return m.execBlock(x.Then, &env{parent: e}, fp)
		}
		if x.Else != nil {
			switch els := x.Else.(type) {
			case *cminus.Block:
				return m.execBlock(els, &env{parent: e}, fp)
			default:
				return m.execStmt(els, e, fp)
			}
		}
		return nil
	case *cminus.ForStmt:
		return m.execFor(x, e, fp)
	case *cminus.WhileStmt:
		for {
			if err := m.interrupt(); err != nil {
				return err
			}
			c, err := m.eval(x.Cond, e)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
			err = m.execBlock(x.Body, &env{parent: e}, fp)
			if err == errBreak {
				return nil
			}
			if err != nil && err != errContinue {
				return err
			}
		}
	case *cminus.Block:
		return m.execBlock(x, &env{parent: e}, fp)
	case *cminus.ReturnStmt:
		if x.X != nil {
			v, err := m.eval(x.X, e)
			if err != nil {
				return err
			}
			m.retVal = v
		}
		return errReturn
	case *cminus.BreakStmt:
		return errBreak
	case *cminus.ContinueStmt:
		return errContinue
	}
	return nil
}

var (
	errReturn   = fmt.Errorf("return")
	errBreak    = fmt.Errorf("break")
	errContinue = fmt.Errorf("continue")
)

// pollMask throttles Ctx reads to one per 1024 polls.
const pollMask = 1<<10 - 1

// interrupt is a cancellation poll: it reports a cancellation error
// once m.Ctx is done. With no context the cost is one nil check, with
// one it is one shared atomic add.
func (m *Machine) interrupt() error {
	if m.Ctx == nil {
		return nil
	}
	if m.polls.Add(1)&pollMask != 0 {
		return nil
	}
	if m.Ctx.Err() != nil {
		return fmt.Errorf("interp: execution %w: %v", budget.ErrCanceled, context.Cause(m.Ctx))
	}
	return nil
}

// throwIfInterrupted is interrupt for the VM, which propagates runtime
// errors by engineErr panic.
func (m *Machine) throwIfInterrupted() {
	if err := m.interrupt(); err != nil {
		panic(engineErr{err})
	}
}

func (m *Machine) execAssign(x *cminus.AssignStmt, e *env) error {
	rhs, err := m.eval(x.RHS, e)
	if err != nil {
		return err
	}
	switch lhs := x.LHS.(type) {
	case *cminus.Ident:
		cell := m.scalar(lhs.Name, e)
		if cell == nil {
			if x.Op != "" {
				return fmt.Errorf("interp: unbound %q at %s", lhs.Name, x.P)
			}
			// An implicit scalar (a normalized loop index), typed by
			// its first value.
			e.define(lhs.Name, rhs)
			return nil
		}
		if x.Op != "" {
			nv, err := binop(x.Op, *cell, rhs)
			if err != nil {
				return err
			}
			rhs = nv
		}
		*cell = convert(rhs, cell.Float)
		return nil
	default:
		name, idxExprs, ok := cminus.ArrayBase(x.LHS)
		if !ok {
			return fmt.Errorf("interp: unsupported assignment target at %s", x.P)
		}
		arr := m.array(name, e)
		if arr == nil {
			return fmt.Errorf("interp: unknown array %q at %s", name, x.P)
		}
		idx := make([]int64, len(idxExprs))
		for i, ie := range idxExprs {
			v, err := m.eval(ie, e)
			if err != nil {
				return err
			}
			idx[i] = v.AsInt()
		}
		if x.Op != "" {
			old, err := arr.Get(idx)
			if err != nil {
				return err
			}
			nv, err := binop(x.Op, old, rhs)
			if err != nil {
				return err
			}
			rhs = nv
		}
		return arr.Set(idx, rhs)
	}
}

func (m *Machine) eval(x cminus.Expr, e *env) (Value, error) {
	switch t := x.(type) {
	case *cminus.IntLit:
		return IntVal(t.Val), nil
	case *cminus.FloatLit:
		return FloatVal(t.Val), nil
	case *cminus.StringLit:
		return IntVal(0), nil
	case *cminus.Ident:
		if cell := m.scalar(t.Name, e); cell != nil {
			return *cell, nil
		}
		return Value{}, fmt.Errorf("interp: unbound variable %q at %s", t.Name, t.P)
	case *cminus.BinaryExpr:
		l, err := m.eval(t.X, e)
		if err != nil {
			return Value{}, err
		}
		// Short circuit.
		if t.Op == "&&" {
			if !l.Truthy() {
				return IntVal(0), nil
			}
			r, err := m.eval(t.Y, e)
			if err != nil {
				return Value{}, err
			}
			return boolVal(r.Truthy()), nil
		}
		if t.Op == "||" {
			if l.Truthy() {
				return IntVal(1), nil
			}
			r, err := m.eval(t.Y, e)
			if err != nil {
				return Value{}, err
			}
			return boolVal(r.Truthy()), nil
		}
		r, err := m.eval(t.Y, e)
		if err != nil {
			return Value{}, err
		}
		return binop(t.Op, l, r)
	case *cminus.UnaryExpr:
		switch t.Op {
		case "-":
			v, err := m.eval(t.X, e)
			if err != nil {
				return Value{}, err
			}
			if v.Float {
				return FloatVal(-v.F), nil
			}
			return IntVal(-v.I), nil
		case "!":
			v, err := m.eval(t.X, e)
			if err != nil {
				return Value{}, err
			}
			return boolVal(!v.Truthy()), nil
		case "~":
			v, err := m.eval(t.X, e)
			if err != nil {
				return Value{}, err
			}
			return IntVal(^v.AsInt()), nil
		case "++", "--":
			// Should have been normalized away; support for robustness.
			id, ok := t.X.(*cminus.Ident)
			if !ok {
				return Value{}, fmt.Errorf("interp: %s on non-identifier at %s", t.Op, t.P)
			}
			cell := m.scalar(id.Name, e)
			if cell == nil {
				return Value{}, fmt.Errorf("interp: unbound %q at %s", id.Name, t.P)
			}
			old := *cell
			delta := int64(1)
			if t.Op == "--" {
				delta = -1
			}
			if cell.Float {
				cell.F += float64(delta)
			} else {
				cell.I += delta
			}
			if t.Postfix {
				return old, nil
			}
			return *cell, nil
		}
		return Value{}, fmt.Errorf("interp: unary %q at %s", t.Op, t.P)
	case *cminus.CondExpr:
		c, err := m.eval(t.C, e)
		if err != nil {
			return Value{}, err
		}
		taken, other := t.T, t.F
		if !c.Truthy() {
			taken, other = t.F, t.T
		}
		v, err := m.eval(taken, e)
		if err != nil {
			return Value{}, err
		}
		// The usual arithmetic conversion: double when either branch is.
		if !v.Float && m.isFloat(other, e) {
			v = FloatVal(v.AsFloat())
		}
		return v, nil
	case *cminus.IndexExpr:
		name, idxExprs, ok := cminus.ArrayBase(t)
		if !ok {
			return Value{}, fmt.Errorf("interp: unsupported index expression at %s", t.P)
		}
		arr := m.array(name, e)
		if arr == nil {
			return Value{}, fmt.Errorf("interp: unknown array %q at %s", name, t.P)
		}
		idx := make([]int64, len(idxExprs))
		for i, ie := range idxExprs {
			v, err := m.eval(ie, e)
			if err != nil {
				return Value{}, err
			}
			idx[i] = v.AsInt()
		}
		return arr.Get(idx)
	case *cminus.CallExpr:
		return m.evalCall(t, e)
	case *cminus.CastExpr:
		v, err := m.eval(t.X, e)
		if err != nil {
			return Value{}, err
		}
		if cminus.IsFloatType(t.Type) {
			return FloatVal(v.AsFloat()), nil
		}
		return IntVal(v.AsInt()), nil
	}
	return Value{}, fmt.Errorf("interp: unsupported expression %T", x)
}

// isFloat reports whether x's type under e is double, without
// evaluating x: + - * / and ?: are double when either operand is, a
// user call has its callee's return type, and builtins other than abs
// return double. It is the tree walker's own statement of the typing
// rules the VM and codegen take from the cminus binder.
func (m *Machine) isFloat(x cminus.Expr, e *env) bool {
	switch t := x.(type) {
	case *cminus.FloatLit:
		return true
	case *cminus.Ident:
		cell := m.scalar(t.Name, e)
		return cell != nil && cell.Float
	case *cminus.BinaryExpr:
		switch t.Op {
		case "+", "-", "*", "/":
			return m.isFloat(t.X, e) || m.isFloat(t.Y, e)
		}
	case *cminus.UnaryExpr:
		switch t.Op {
		case "-", "++", "--":
			return m.isFloat(t.X, e)
		}
	case *cminus.CondExpr:
		return m.isFloat(t.T, e) || m.isFloat(t.F, e)
	case *cminus.IndexExpr:
		if name, _, ok := cminus.ArrayBase(t); ok {
			a := m.array(name, e)
			return a != nil && a.Float
		}
	case *cminus.CallExpr:
		if fn := m.Prog.Func(t.Fun); fn != nil && fn.Body != nil {
			return cminus.IsFloatType(fn.RetType)
		}
		bi := cminus.LookupBuiltin(t.Fun)
		return bi == nil || !bi.Int
	case *cminus.CastExpr:
		return cminus.IsFloatType(t.Type)
	}
	return false
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func binop(op string, l, r Value) (Value, error) {
	flt := l.Float || r.Float
	switch op {
	case "+", "-", "*", "/":
		if flt {
			a, b := l.AsFloat(), r.AsFloat()
			switch op {
			case "+":
				return FloatVal(a + b), nil
			case "-":
				return FloatVal(a - b), nil
			case "*":
				return FloatVal(a * b), nil
			case "/":
				return FloatVal(a / b), nil
			}
		}
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case "+":
			return IntVal(a + b), nil
		case "-":
			return IntVal(a - b), nil
		case "*":
			return IntVal(a * b), nil
		case "/":
			if b == 0 {
				return Value{}, fmt.Errorf("interp: integer division by zero")
			}
			return IntVal(a / b), nil
		}
	case "%":
		b := r.AsInt()
		if b == 0 {
			return Value{}, fmt.Errorf("interp: modulo by zero")
		}
		return IntVal(l.AsInt() % b), nil
	case "<", "<=", ">", ">=", "==", "!=":
		if flt {
			a, b := l.AsFloat(), r.AsFloat()
			switch op {
			case "<":
				return boolVal(a < b), nil
			case "<=":
				return boolVal(a <= b), nil
			case ">":
				return boolVal(a > b), nil
			case ">=":
				return boolVal(a >= b), nil
			case "==":
				return boolVal(a == b), nil
			case "!=":
				return boolVal(a != b), nil
			}
		}
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case "<":
			return boolVal(a < b), nil
		case "<=":
			return boolVal(a <= b), nil
		case ">":
			return boolVal(a > b), nil
		case ">=":
			return boolVal(a >= b), nil
		case "==":
			return boolVal(a == b), nil
		case "!=":
			return boolVal(a != b), nil
		}
	case "&":
		return IntVal(l.AsInt() & r.AsInt()), nil
	case "|":
		return IntVal(l.AsInt() | r.AsInt()), nil
	case "^":
		return IntVal(l.AsInt() ^ r.AsInt()), nil
	case "<<":
		return IntVal(l.AsInt() << uint(r.AsInt())), nil
	case ">>":
		return IntVal(l.AsInt() >> uint(r.AsInt())), nil
	}
	return Value{}, fmt.Errorf("interp: unsupported operator %q", op)
}

func (m *Machine) evalCall(c *cminus.CallExpr, e *env) (Value, error) {
	// User-defined functions: execute the body with parameters bound.
	if fn := m.Prog.Func(c.Fun); fn != nil && fn.Body != nil {
		return m.callUser(fn, c, e)
	}
	args := make([]float64, len(c.Args))
	for i, a := range c.Args {
		v, err := m.eval(a, e)
		if err != nil {
			return Value{}, err
		}
		args[i] = v.AsFloat()
	}
	bi := cminus.LookupBuiltin(c.Fun)
	switch {
	case bi == nil:
		return Value{}, fmt.Errorf("interp: unknown function %q", c.Fun)
	case len(args) != bi.Arity():
		return Value{}, fmt.Errorf("interp: %s expects %d args", c.Fun, bi.Arity())
	case bi.Int:
		return IntVal(int64(bi.Eval(args))), nil
	}
	return FloatVal(bi.Eval(args)), nil
}

// execFor runs a for loop, in parallel when the plan selects it, its
// work estimate reaches parallelize.MinWork and the region's entry gate
// passes (enterRegion). A declined region runs the serial loop and
// counts a decline; a failed gate runs it and counts a fallback.
func (m *Machine) execFor(loop *cminus.ForStmt, e *env, fp *parallelize.FuncPlan) error {
	var lp *parallelize.LoopPlan
	if fp != nil {
		lp = fp.Loops[loop.Label]
	}
	if lp != nil && lp.Chosen && m.Workers > 1 {
		declined := false
		if cond := lp.Declines(func(name string) bool { return m.scalar(name, e) != nil }); cond != nil {
			v, err := m.eval(cond, e)
			if err != nil {
				return err
			}
			declined = v.Truthy()
		}
		if declined {
			m.Stats.Declined++
		} else {
			ivar, n, ok, err := m.enterRegion(loop, lp, e)
			if err != nil {
				return err
			}
			if ok {
				m.Stats.ParallelRegions++
				return m.execParallelFor(loop, e, fp, lp, ivar, n)
			}
			m.Stats.RuntimeFallback++
		}
	}
	// Serial execution. The clauses share one scope around the body. The
	// post runs after the body, so a name it defines is visible to nothing
	// after it; it gets a scope of its own, as the cminus binder resolves
	// it.
	scope := &env{parent: e}
	post := &env{parent: scope}
	if loop.Init != nil {
		if err := m.execStmt(loop.Init, scope, fp); err != nil {
			return err
		}
	}
	for {
		if err := m.interrupt(); err != nil {
			return err
		}
		if loop.Cond != nil {
			c, err := m.eval(loop.Cond, scope)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
		}
		err := m.execBlock(loop.Body, &env{parent: scope}, fp)
		if err == errBreak {
			return nil
		}
		if err != nil && err != errContinue {
			return err
		}
		if loop.Post != nil {
			if err := m.execStmt(loop.Post, post, fp); err != nil {
				return err
			}
		}
	}
}

// enterRegion is the entry gate of a plan-chosen loop: the runtime
// checks, then the trip count n, then the guard scans over the section
// n trips read. ok reports whether the region may run in parallel.
func (m *Machine) enterRegion(loop *cminus.ForStmt, lp *parallelize.LoopPlan, e *env) (ivar string, n int64, ok bool, err error) {
	checks, err := lp.Checks(func(name string) bool { return m.scalar(name, e) != nil })
	if err != nil {
		return "", 0, false, fmt.Errorf("interp: %w", err)
	}
	for _, chk := range checks {
		if v, err := m.eval(chk, e); err != nil || !v.Truthy() {
			return "", 0, false, err
		}
	}
	ivar, nx, err := parallelize.Canonical(loop)
	if err != nil {
		return "", 0, false, fmt.Errorf("interp: %w", err)
	}
	nv, err := m.eval(nx, e)
	if err != nil {
		return "", 0, false, err
	}
	n, guards := nv.AsInt(), lp.Decision.Guards
	ok = guardsHold(guards, n, func(i int) *Array { return m.array(guards[i].Array, e) })
	return ivar, n, ok, nil
}

// guardsHold runs the guard scans (package guard) over the section a
// loop of n trips reads; array(i) is guards[i]'s array in the calling
// engine. A guard whose array is missing or not an int array fails, as
// does a kind the scans do not know.
func guardsHold(guards []depend.Guard, n int64, array func(i int) *Array) bool {
	for i, g := range guards {
		a := array(i)
		if a == nil || a.Float {
			return false
		}
		var ok bool
		switch g.Kind {
		case depend.GuardMonotone:
			ok = guard.Monotone(a.Ints, n, g.Strict, g.Window)
		case depend.GuardInjective:
			ok = guard.Injective(a.Ints, n)
		case depend.GuardRangeMono:
			ok = guard.RangeMonotone(a.Dims, a.Ints, n)
		}
		if !ok {
			return false
		}
	}
	return true
}

// execParallelFor runs the n iterations of a loop whose entry gate
// passed on sched.ParallelLoop, following the OpenMP semantics of the
// emitted pragma.
func (m *Machine) execParallelFor(loop *cminus.ForStmt, e *env, fp *parallelize.FuncPlan, lp *parallelize.LoopPlan, ivar string, n int64) error {
	if n <= 0 {
		return nil
	}
	workers := m.Workers
	if int64(workers) > n {
		workers = int(n)
	}

	d := lp.Decision
	runChunk := func(start, end int64, redCells map[string]*Value) error {
		local := &env{vars: map[string]*Value{}, parent: e}
		// Privates: fresh cells shadowing the outer ones. A private the
		// loop does not see is declared in its body, fresh per iteration.
		for _, p := range d.Privates {
			if proto := m.scalar(p, e); proto != nil {
				local.define(p, Value{Float: proto.Float})
			}
		}
		for name, cell := range redCells {
			local.vars[name] = cell
		}
		iv := &Value{}
		local.vars[ivar] = iv
		for it := start; it < end; it++ {
			if err := m.interrupt(); err != nil {
				return err
			}
			iv.I = it
			// A continue at the body's top level ends its iteration.
			if err := m.execBlock(loop.Body, &env{parent: local}, fp); err != nil && err != errContinue {
				return err
			}
		}
		return nil
	}

	// Per-worker reduction cells start at the operator's identity. A
	// clause names a variable the loop sees; any other it leaves alone.
	reds := d.SortedReductions()
	makeRedCells := func() map[string]*Value {
		cells := map[string]*Value{}
		for _, r := range reds {
			proto := m.scalar(r.Name, e)
			if proto == nil {
				continue
			}
			cell := &Value{Float: proto.Float}
			if r.Op == "*" {
				cell.I, cell.F = 1, 1
			}
			cells[r.Name] = cell
		}
		return cells
	}

	errs := make([]error, workers)
	workerRed := make([]map[string]*Value, workers)
	sched.ParallelLoop(n, workers,
		func(w int) { workerRed[w] = makeRedCells() },
		func(w int, start, end int64) {
			errs[w] = runChunk(start, end, workerRed[w])
		})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Combine each reduction deterministically in worker order.
	for _, r := range reds {
		target := m.scalar(r.Name, e)
		if target == nil {
			continue
		}
		for w := 0; w < workers; w++ {
			if workerRed[w] == nil {
				continue
			}
			nv, err := binop(r.Op, *target, *workerRed[w][r.Name])
			if err != nil {
				return err
			}
			*target = convert(nv, target.Float)
		}
	}
	// The loop variable's final value, unless the init declares it: an
	// index the loop's own clauses define ends with the loop.
	if _, decl := loop.Init.(*cminus.DeclStmt); !decl {
		if cell := m.scalar(ivar, e); cell != nil {
			cell.I = n
		}
	}
	return nil
}
