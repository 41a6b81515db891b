package interp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/cminus"
	"repro/internal/parallelize"
	"repro/internal/trace"
)

// Machine executes a mini-C program.
type Machine struct {
	Prog *cminus.Program
	// Plan optionally enables parallel execution of chosen loops. When
	// nil every loop runs serially.
	Plan *parallelize.Plan
	// Workers is the number of goroutines for parallel loops (>=1).
	Workers int
	// DynamicChunk, when > 0, uses dynamic scheduling with the given
	// chunk size instead of static chunking.
	DynamicChunk int
	// Interp selects the execution engine: "" or "vm" for the bytecode
	// VM (default), "tree" for the tree-walking oracle. Unknown names are
	// rejected by Call with the available-engine list.
	Interp string
	// Budget, when non-nil, meters VM execution: the bytecode dispatch
	// loop bills one Step per vmQuantum instructions, so an exhausted
	// step budget aborts the run (Call returns an error wrapping
	// budget.ErrBudget) within one quantum. The tree walker does not
	// consume it.
	Budget *budget.B
	// Trace, when recording, receives compile-bc spans for bytecode
	// compilation and exec-vm spans for VM runs. Nil-safe.
	Trace *trace.Recorder
	// Ctx cancels a running program: both engines poll it at loop back
	// edges (every 1024 edges machine-wide) and abort with an error
	// wrapping budget.ErrCanceled. Nil means non-cancellable.
	Ctx context.Context
	// edges counts loop back edges since machine creation; shared across
	// parallel workers, so polling stays one atomic add per edge.
	edges atomic.Int64
	// Globals holds global scalars.
	Globals map[string]*Value
	// Arrays holds all arrays (global or passed in by the host).
	Arrays map[string]*Array
	// Stats counts executed parallel regions and fallbacks.
	Stats Stats
	// retVal carries the value of the innermost executing return.
	retVal Value
	// bc caches the bytecode program; invalidated when Plan changes.
	bc *bytecodeProgram
	// arrShadows scopes m.Arrays bindings (parameter arrays, local
	// array declarations) to the call that made them, so repeated or
	// nested calls never leak bindings into the global namespace.
	arrShadows []arrShadow
	// callMark is the arrShadows watermark of the innermost call,
	// used to avoid shadow-stack growth for rebinds within one call.
	callMark int
}

// arrShadow records one scoped m.Arrays binding for undo.
type arrShadow struct {
	name string
	prev *Array
	had  bool
}

// bindArray installs a call-scoped array binding. The previous binding
// (if any) is recorded once per call so restoreArrays can undo it.
func (m *Machine) bindArray(name string, a *Array) {
	for i := len(m.arrShadows) - 1; i >= m.callMark; i-- {
		if m.arrShadows[i].name == name {
			m.Arrays[name] = a
			return
		}
	}
	prev, had := m.Arrays[name]
	m.arrShadows = append(m.arrShadows, arrShadow{name: name, prev: prev, had: had})
	m.Arrays[name] = a
}

// restoreArrays unwinds scoped bindings down to the given watermark.
func (m *Machine) restoreArrays(mark int) {
	for i := len(m.arrShadows) - 1; i >= mark; i-- {
		sh := m.arrShadows[i]
		if sh.had {
			m.Arrays[sh.name] = sh.prev
		} else {
			delete(m.Arrays, sh.name)
		}
	}
	m.arrShadows = m.arrShadows[:mark]
}

// Stats records execution events for tests and reports.
type Stats struct {
	ParallelRegions int
	RuntimeFallback int
}

// env is a scalar scope chain.
type env struct {
	vars   map[string]*Value
	parent *env
}

func (e *env) lookup(name string) *Value {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v
		}
	}
	return nil
}

func (e *env) define(name string, v Value) {
	e.vars[name] = &Value{I: v.I, F: v.F, Float: v.Float}
}

// New builds a machine for a program. Global declarations are evaluated.
func New(prog *cminus.Program) (*Machine, error) {
	m := &Machine{
		Prog:    prog,
		Workers: 1,
		Globals: map[string]*Value{},
		Arrays:  map[string]*Array{},
	}
	for _, g := range prog.Globals {
		isFloat := cminus.IsFloatType(g.Type)
		for _, it := range g.Items {
			if len(it.Dims) > 0 {
				dims := make([]int64, len(it.Dims))
				for i, d := range it.Dims {
					v, err := m.evalIn(nil, d)
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
				v, err := m.evalIn(nil, it.Init)
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
	mark := len(m.arrShadows)
	prevMark := m.callMark
	m.callMark = mark
	defer func() {
		m.restoreArrays(mark)
		m.callMark = prevMark
	}()
	e := &env{vars: map[string]*Value{}}
	for i, prm := range fn.Params {
		switch a := args[i].(type) {
		case *Array:
			// Bind by reference under the parameter name, scoped to
			// this call.
			m.bindArray(prm.Name, a)
		case Value:
			e.define(prm.Name, convert(a, cminus.IsFloatType(prm.Type)))
		case int:
			e.define(prm.Name, IntVal(int64(a)))
		case int64:
			e.define(prm.Name, IntVal(a))
		case float64:
			e.define(prm.Name, FloatVal(a))
		default:
			return fmt.Errorf("interp: unsupported argument %T", args[i])
		}
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
			if len(it.Dims) > 0 {
				dims := make([]int64, len(it.Dims))
				for i, d := range it.Dims {
					v, err := m.eval(d, e)
					if err != nil {
						return err
					}
					dims[i] = v.AsInt()
				}
				if isFloat {
					m.bindArray(it.Name, NewFloatArray(it.Name, dims...))
				} else {
					m.bindArray(it.Name, NewIntArray(it.Name, dims...))
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
			return m.execBlock(x.Then, &env{vars: map[string]*Value{}, parent: e}, fp)
		}
		if x.Else != nil {
			switch els := x.Else.(type) {
			case *cminus.Block:
				return m.execBlock(els, &env{vars: map[string]*Value{}, parent: e}, fp)
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
			err = m.execBlock(x.Body, &env{vars: map[string]*Value{}, parent: e}, fp)
			if err == errBreak {
				return nil
			}
			if err != nil && err != errContinue {
				return err
			}
		}
	case *cminus.Block:
		return m.execBlock(x, &env{vars: map[string]*Value{}, parent: e}, fp)
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

// backEdgeMask throttles Ctx polls to one per 1024 loop back edges.
const backEdgeMask = 1<<10 - 1

// interrupt reports a cancellation error once m.Ctx is done. Both
// engines call it at every loop back edge; with no context the cost is
// one nil check, with one it is one shared atomic add.
func (m *Machine) interrupt() error {
	if m.Ctx == nil {
		return nil
	}
	if m.edges.Add(1)&backEdgeMask != 0 {
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
		cell := e.lookup(lhs.Name)
		if cell == nil {
			cell = m.Globals[lhs.Name]
		}
		if cell == nil {
			// Implicitly defined (normalized loop index).
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
		arr, found := m.Arrays[name]
		if !found {
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

// evalIn evaluates without a local scope (global initializers).
func (m *Machine) evalIn(e *env, x cminus.Expr) (Value, error) {
	if e == nil {
		e = &env{vars: map[string]*Value{}}
	}
	return m.eval(x, e)
}

func (m *Machine) eval(x cminus.Expr, e *env) (Value, error) {
	switch t := x.(type) {
	case *cminus.IntLit:
		return IntVal(t.Val), nil
	case *cminus.FloatLit:
		var f float64
		if _, err := fmt.Sscanf(t.Text, "%g", &f); err != nil {
			return Value{}, fmt.Errorf("interp: bad float %q", t.Text)
		}
		return FloatVal(f), nil
	case *cminus.StringLit:
		return IntVal(0), nil
	case *cminus.Ident:
		if cell := e.lookup(t.Name); cell != nil {
			return *cell, nil
		}
		if cell, ok := m.Globals[t.Name]; ok {
			return *cell, nil
		}
		// Counter_max symbols used by runtime checks resolve to the
		// current value of the underlying counter.
		if strings.HasSuffix(t.Name, "_max") {
			base := strings.TrimSuffix(t.Name, "_max")
			if cell := e.lookup(base); cell != nil {
				return *cell, nil
			}
			if cell, ok := m.Globals[base]; ok {
				return *cell, nil
			}
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
			cell := e.lookup(id.Name)
			if cell == nil {
				cell = m.Globals[id.Name]
			}
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
		if c.Truthy() {
			return m.eval(t.T, e)
		}
		return m.eval(t.F, e)
	case *cminus.IndexExpr:
		name, idxExprs, ok := cminus.ArrayBase(t)
		if !ok {
			return Value{}, fmt.Errorf("interp: unsupported index expression at %s", t.P)
		}
		arr, found := m.Arrays[name]
		if !found {
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
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("interp: %s expects %d args", c.Fun, n)
		}
		return nil
	}
	switch c.Fun {
	case "exp":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Exp(args[0])), nil
	case "sqrt":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Sqrt(args[0])), nil
	case "fabs":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Abs(args[0])), nil
	case "sin":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Sin(args[0])), nil
	case "cos":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Cos(args[0])), nil
	case "log":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Log(args[0])), nil
	case "pow":
		if err := need(2); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Pow(args[0], args[1])), nil
	case "fmod":
		if err := need(2); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Mod(args[0], args[1])), nil
	case "fmin":
		if err := need(2); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Min(args[0], args[1])), nil
	case "fmax":
		if err := need(2); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Max(args[0], args[1])), nil
	case "floor":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Floor(args[0])), nil
	case "ceil":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(math.Ceil(args[0])), nil
	case "abs":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return IntVal(int64(math.Abs(args[0]))), nil
	}
	return Value{}, fmt.Errorf("interp: unknown function %q", c.Fun)
}

// execFor runs a for loop, in parallel when the plan selects it.
func (m *Machine) execFor(loop *cminus.ForStmt, e *env, fp *parallelize.FuncPlan) error {
	var lp *parallelize.LoopPlan
	if fp != nil {
		lp = fp.Loops[loop.Label]
	}
	if lp != nil && lp.Chosen && m.Workers > 1 {
		ok, err := m.checksPass(lp, e)
		if err != nil {
			return err
		}
		if ok {
			return m.execParallelFor(loop, e, fp, lp)
		}
		m.Stats.RuntimeFallback++
	}
	// Serial execution.
	scope := &env{vars: map[string]*Value{}, parent: e}
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
		err := m.execBlock(loop.Body, &env{vars: map[string]*Value{}, parent: scope}, fp)
		if err == errBreak {
			return nil
		}
		if err != nil && err != errContinue {
			return err
		}
		if loop.Post != nil {
			if err := m.execStmt(loop.Post, scope, fp); err != nil {
				return err
			}
		}
	}
}

// checksPass evaluates the decision's runtime checks in the current
// environment (counter_max symbols resolve to the counters' current
// values).
func (m *Machine) checksPass(lp *parallelize.LoopPlan, e *env) (bool, error) {
	for _, chk := range lp.Decision.RuntimeChecks {
		v, err := m.evalSymbolicCond(chk.String(), e)
		if err != nil {
			return false, err
		}
		if !v {
			return false, nil
		}
	}
	return true, nil
}

// evalSymbolicCond parses and evaluates a rendered symbolic condition in
// the current environment by reusing the mini-C expression parser.
func (m *Machine) evalSymbolicCond(cond string, e *env) (bool, error) {
	src := fmt.Sprintf("void __c(void) { int __r; __r = (%s); }", cond)
	prog, err := cminus.Parse(src)
	if err != nil {
		return false, fmt.Errorf("interp: bad runtime check %q: %v", cond, err)
	}
	as := prog.Funcs[0].Body.Stmts[1].(*cminus.AssignStmt)
	v, err := m.eval(as.RHS, e)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

// execParallelFor runs the loop's iterations on a worker pool following
// the OpenMP semantics of the emitted pragma.
func (m *Machine) execParallelFor(loop *cminus.ForStmt, e *env, fp *parallelize.FuncPlan, lp *parallelize.LoopPlan) error {
	m.Stats.ParallelRegions++
	// The loop is normalized: i = 0; i < N; i = i+1.
	ivar, _, ok := initVarName(loop.Init)
	if !ok {
		return fmt.Errorf("interp: parallel loop %s has non-canonical init", loop.Label)
	}
	n, err := m.iterCount(loop, e)
	if err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers := m.Workers
	if int64(workers) > n {
		workers = int(n)
	}

	d := lp.Decision
	type redSlot struct {
		name string
		op   string
	}
	var reds []redSlot
	for v, op := range d.Reductions {
		reds = append(reds, redSlot{v, op})
	}

	runChunk := func(start, end int64, redCells map[string]*Value) error {
		local := &env{vars: map[string]*Value{}, parent: e}
		// Privates: fresh cells shadowing the outer ones.
		for _, p := range d.Privates {
			proto := e.lookup(p)
			isFloat := proto != nil && proto.Float
			local.define(p, Value{Float: isFloat})
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
			if err := m.execBlock(loop.Body, &env{vars: map[string]*Value{}, parent: local}, fp); err != nil {
				return err
			}
		}
		return nil
	}

	makeRedCells := func() map[string]*Value {
		cells := map[string]*Value{}
		for _, r := range reds {
			proto := e.lookup(r.name)
			isFloat := proto != nil && proto.Float
			init := Value{Float: isFloat}
			if r.op == "*" {
				if isFloat {
					init.F = 1
				} else {
					init.I = 1
				}
			}
			cells[r.name] = &Value{I: init.I, F: init.F, Float: init.Float}
		}
		return cells
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	workerRed := make([]map[string]*Value, workers)

	if m.DynamicChunk > 0 {
		var next int64
		var mu sync.Mutex
		chunk := int64(m.DynamicChunk)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			workerRed[w] = makeRedCells()
			go func(w int) {
				defer wg.Done()
				for {
					mu.Lock()
					start := next
					next += chunk
					mu.Unlock()
					if start >= n {
						return
					}
					end := start + chunk
					if end > n {
						end = n
					}
					if err := runChunk(start, end, workerRed[w]); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
	} else {
		per := (n + int64(workers) - 1) / int64(workers)
		for w := 0; w < workers; w++ {
			start := int64(w) * per
			end := start + per
			if end > n {
				end = n
			}
			if start >= end {
				continue
			}
			wg.Add(1)
			workerRed[w] = makeRedCells()
			go func(w int, start, end int64) {
				defer wg.Done()
				errs[w] = runChunk(start, end, workerRed[w])
			}(w, start, end)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Combine reductions deterministically in worker order.
	for _, r := range reds {
		target := e.lookup(r.name)
		if target == nil {
			target = m.Globals[r.name]
		}
		if target == nil {
			continue
		}
		for w := 0; w < workers; w++ {
			if workerRed[w] == nil {
				continue
			}
			cell := workerRed[w][r.name]
			nv, err := binop(r.op, *target, *cell)
			if err != nil {
				return err
			}
			*target = convert(nv, target.Float)
		}
	}
	// The loop variable's final value.
	if cell := e.lookup(ivar); cell != nil {
		cell.I = n
	}
	return nil
}

func (m *Machine) iterCount(loop *cminus.ForStmt, e *env) (int64, error) {
	cond, ok := loop.Cond.(*cminus.BinaryExpr)
	if !ok || cond.Op != "<" {
		return 0, fmt.Errorf("interp: parallel loop %s has non-canonical condition", loop.Label)
	}
	v, err := m.eval(cond.Y, e)
	if err != nil {
		return 0, err
	}
	return v.AsInt(), nil
}

func initVarName(s cminus.Stmt) (string, cminus.Expr, bool) {
	switch x := s.(type) {
	case *cminus.AssignStmt:
		if id, ok := x.LHS.(*cminus.Ident); ok {
			return id.Name, x.RHS, true
		}
	case *cminus.DeclStmt:
		if len(x.Items) == 1 && x.Items[0].Init != nil {
			return x.Items[0].Name, x.Items[0].Init, true
		}
	}
	return "", nil, false
}
