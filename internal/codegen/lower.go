package codegen

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/cminus"
	"repro/internal/depend"
	"repro/internal/parallelize"
)

// fnGen lowers one function body. Every name lowers through the
// function's cminus binding (b), which scopes names as the interpreters
// do: its Go type, whether its declaration needs a `_ = x` silencer (Go
// rejects a local that is written but never read, C does not), and the
// assignment where an implicit scalar is declared.
type fnGen struct {
	g     *gen
	fn    *cminus.FuncDecl
	fp    *parallelize.FuncPlan
	b     *cminus.Binds
	buf   *bytes.Buffer
	depth int
	// checks holds each chosen loop's runtime checks and declines its
	// decline condition (parallelize.LoopPlan.Declines), bound at the
	// loop before lowering starts, so the names they read count as reads.
	checks   map[*cminus.ForStmt][]cminus.Expr
	declines map[*cminus.ForStmt]cminus.Expr
}

// typOf is a scalar binding's Go type.
func typOf(bd *cminus.Binding) typ {
	if bd.Float {
		return tFloat
	}
	return tInt
}

func (fg *fnGen) line(format string, args ...any) {
	fg.buf.WriteString(strings.Repeat("\t", fg.depth))
	fmt.Fprintf(fg.buf, format, args...)
	fg.buf.WriteByte('\n')
}

// lowerFunc emits one Go function for a mini-C function with a body.
func (g *gen) lowerFunc(fn *cminus.FuncDecl, fp *parallelize.FuncPlan) (string, error) {
	fg := &fnGen{g: g, fn: fn, fp: fp, b: g.binds[fn], buf: &bytes.Buffer{}, depth: 1,
		checks: map[*cminus.ForStmt][]cminus.Expr{}, declines: map[*cminus.ForStmt]cminus.Expr{}}
	if err := fg.oneNamespace(); err != nil {
		return "", fmt.Errorf("%s: %w", fn.Name, err)
	}
	if err := fg.bindPlan(); err != nil {
		return "", fmt.Errorf("%s: %w", fn.Name, err)
	}

	var params []string
	for i, prm := range fn.Params {
		bd := fg.b.Locals[i]
		gt := typOf(bd).String()
		if bd.Array {
			gt = "*i64arr"
			if bd.Float {
				gt = "*f64arr"
			}
		}
		params = append(params, g.goName(prm.Name)+" "+gt)
	}

	ret := ""
	if fn.RetType != "void" {
		t := tInt
		if cminus.IsFloatType(fn.RetType) {
			t = tFloat
		}
		ret = " " + t.String()
	}
	head := fmt.Sprintf("func %s(%s)%s {", g.goName(fn.Name), strings.Join(params, ", "), ret)

	if err := fg.lowerStmts(fn.Body.Stmts); err != nil {
		return "", fmt.Errorf("%s: %w", fn.Name, err)
	}
	if fn.RetType != "void" && !endsWithReturn(fn.Body) {
		if cminus.IsFloatType(fn.RetType) {
			fg.line("return 0.0")
		} else {
			fg.line("return 0")
		}
	}
	return head + "\n" + fg.buf.String() + "}", nil
}

// oneNamespace refuses a function that uses one name as both a scalar
// and an array. The interpreters keep the two namespaces apart; one Go
// identifier cannot be both.
func (fg *fnGen) oneNamespace() error {
	array := map[string]bool{}
	for _, d := range fg.g.prog.Globals {
		for _, it := range d.Items {
			array[it.Name] = len(it.Dims) > 0 || it.PtrDeep > 0
		}
	}
	for _, bd := range fg.b.Locals {
		if was, seen := array[bd.Name]; seen && was != bd.Array {
			return fmt.Errorf("%q names both a scalar and an array", bd.Name)
		}
		array[bd.Name] = bd.Array
	}
	return nil
}

// bindPlan binds the decline conditions and runtime checks of the
// function's chosen loops at their loops and marks their guard arrays
// read: the emitted entry conditions read them all.
func (fg *fnGen) bindPlan() error {
	if fg.fp == nil {
		return nil
	}
	for _, loop := range cminus.NumberLoops(fg.fn.Body) {
		lp := fg.fp.Loops[loop.Label]
		if lp == nil || !lp.Chosen {
			continue
		}
		bound := func(name string) bool { return fg.b.Lookup(loop, name, false) != nil }
		if cond := lp.Declines(bound); cond != nil {
			fg.b.BindAt(loop, cond)
			fg.declines[loop] = cond
		}
		checks, err := lp.Checks(bound)
		if err != nil {
			return fmt.Errorf("loop %s: %w", loop.Label, err)
		}
		for _, chk := range checks {
			fg.b.BindAt(loop, chk)
		}
		fg.checks[loop] = checks
		for _, gd := range lp.Decision.Guards {
			if bd := fg.b.Lookup(loop, gd.Array, true); bd != nil {
				bd.Read = true
			}
		}
	}
	return nil
}

func endsWithReturn(b *cminus.Block) bool {
	if len(b.Stmts) == 0 {
		return false
	}
	_, ok := b.Stmts[len(b.Stmts)-1].(*cminus.ReturnStmt)
	return ok
}

func (fg *fnGen) lowerStmts(stmts []cminus.Stmt) error {
	for _, s := range stmts {
		if err := fg.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fg *fnGen) lowerStmt(s cminus.Stmt) error {
	switch x := s.(type) {
	case *cminus.DeclStmt:
		return fg.lowerDecl(x)
	case *cminus.AssignStmt:
		line, err := fg.lowerAssign(x)
		if err != nil {
			return err
		}
		fg.line("%s", line)
		if bd := fg.implicit(x); bd != nil && !bd.Read {
			fg.line("_ = %s", fg.g.goName(bd.Name))
		}
		return nil
	case *cminus.ExprStmt:
		return fg.lowerExprStmt(x)
	case *cminus.IfStmt:
		return fg.lowerIf(x)
	case *cminus.ForStmt:
		return fg.lowerFor(x)
	case *cminus.WhileStmt:
		c, err := fg.lowerExpr(x.Cond)
		if err != nil {
			return err
		}
		fg.line("for %s {", conv(c, tBool).s)
		if err := fg.lowerBlock(x.Body); err != nil {
			return err
		}
		fg.line("}")
		return nil
	case *cminus.Block:
		fg.line("{")
		if err := fg.lowerBlock(x); err != nil {
			return err
		}
		fg.line("}")
		return nil
	case *cminus.ReturnStmt:
		if x.X == nil {
			fg.line("return")
			return nil
		}
		v, err := fg.lowerExpr(x.X)
		if err != nil {
			return err
		}
		want := tInt
		if cminus.IsFloatType(fg.fn.RetType) {
			want = tFloat
		}
		fg.line("return %s", conv(v, want).s)
		return nil
	case *cminus.BreakStmt:
		fg.line("break")
		return nil
	case *cminus.ContinueStmt:
		fg.line("continue")
		return nil
	}
	return fmt.Errorf("unsupported statement %T at %s", s, s.Pos())
}

func (fg *fnGen) lowerBlock(b *cminus.Block) error {
	fg.depth++
	err := fg.lowerStmts(b.Stmts)
	fg.depth--
	return err
}

func (fg *fnGen) lowerDecl(x *cminus.DeclStmt) error {
	isFloat := cminus.IsFloatType(x.Type)
	t := tInt
	if isFloat {
		t = tFloat
	}
	var plain []string // scalar items without initializer, grouped
	flush := func() {
		if len(plain) > 0 {
			fg.line("var %s %s", strings.Join(plain, ", "), t)
			plain = nil
		}
	}
	for i, it := range x.Items {
		bd := fg.b.Decl(x)[i]
		goName := fg.g.goName(it.Name)
		if bd.Array {
			flush()
			dims := make([]string, len(it.Dims))
			for i, d := range it.Dims {
				v, err := fg.lowerExpr(d)
				if err != nil {
					return err
				}
				dims[i] = "int64(" + conv(v, tInt).s + ")"
			}
			ctor := "rtNewI64"
			if isFloat {
				ctor = "rtNewF64"
			}
			fg.line("%s := %s(%s)", goName, ctor, strings.Join(dims, ", "))
			if !bd.Read {
				fg.line("_ = %s", goName)
			}
			continue
		}
		if it.Init != nil {
			flush()
			v, err := fg.lowerExpr(it.Init)
			if err != nil {
				return err
			}
			fg.line("var %s %s = %s", goName, t, conv(v, t).s)
		} else {
			plain = append(plain, goName)
		}
		if !bd.Read {
			flush()
			fg.line("_ = %s", goName)
		}
	}
	flush()
	return nil
}

// lowerAssign renders an assignment as one Go line (compound array
// updates expand to a braced block so the offset evaluates once, like
// the interpreter's get-binop-set sequence). The assignment that
// defines an implicit scalar declares it.
func (fg *fnGen) lowerAssign(x *cminus.AssignStmt) (string, error) {
	rhs, err := fg.lowerExpr(x.RHS)
	if err != nil {
		return "", err
	}
	if id, ok := x.LHS.(*cminus.Ident); ok {
		bd := fg.b.Of(id)
		if bd == nil {
			return "", fmt.Errorf("assignment to unbound scalar %q at %s", id.Name, x.P)
		}
		goName, t := fg.g.goName(bd.Name), typOf(bd)
		if bd.Def == x {
			return fmt.Sprintf("var %s %s = %s", goName, t, conv(rhs, t).s), nil
		}
		if x.Op != "" {
			rhs, err = arith(x.Op, atom(goName, t), rhs)
			if err != nil {
				return "", fmt.Errorf("%v at %s", err, x.P)
			}
		}
		return goName + " = " + conv(rhs, t).s, nil
	}
	ix, ok := x.LHS.(*cminus.IndexExpr)
	if !ok {
		return "", fmt.Errorf("unsupported assignment target at %s", x.P)
	}
	arr, et, off, err := fg.lowerAccess(ix)
	if err != nil {
		return "", err
	}
	if x.Op == "" {
		return fmt.Sprintf("%s.X[%s] = %s", arr, off, conv(rhs, et).s), nil
	}
	old := atom(arr+".X[rtOff]", et)
	upd, err := arith(x.Op, old, rhs)
	if err != nil {
		return "", fmt.Errorf("%v at %s", err, x.P)
	}
	ind := strings.Repeat("\t", fg.depth)
	return fmt.Sprintf("{\n%s\trtOff := %s\n%s\t%s.X[rtOff] = %s\n%s}",
		ind, off, ind, arr, conv(upd, et).s, ind), nil
}

// implicit returns the implicit scalar an assignment defines, or nil.
func (fg *fnGen) implicit(x *cminus.AssignStmt) *cminus.Binding {
	if id, ok := x.LHS.(*cminus.Ident); ok {
		if bd := fg.b.Of(id); bd != nil && bd.Def == x {
			return bd
		}
	}
	return nil
}

func (fg *fnGen) lowerExprStmt(x *cminus.ExprStmt) error {
	switch e := x.X.(type) {
	case *cminus.CallExpr:
		// Calls are legal statements in Go whether or not a result is
		// discarded; user functions lower directly, math builtins would
		// be pure no-ops but are emitted for faithfulness.
		if fn := fg.g.prog.Func(e.Fun); fn != nil && fn.Body != nil {
			call, err := fg.lowerUserCall(fn, e)
			if err != nil {
				return err
			}
			fg.line("%s", call.s)
			return nil
		}
		v, err := fg.lowerExpr(e)
		if err != nil {
			return err
		}
		fg.line("_ = %s", v.s)
		return nil
	case *cminus.UnaryExpr:
		if e.Op == "++" || e.Op == "--" {
			id, ok := e.X.(*cminus.Ident)
			if !ok {
				return fmt.Errorf("%s on non-identifier at %s", e.Op, e.P)
			}
			op := "+"
			if e.Op == "--" {
				op = "-"
			}
			line, err := fg.lowerAssign(&cminus.AssignStmt{
				LHS: id, Op: op, RHS: &cminus.IntLit{Val: 1, P: e.P}, P: e.P})
			if err != nil {
				return err
			}
			fg.line("%s", line)
			return nil
		}
	}
	v, err := fg.lowerExpr(x.X)
	if err != nil {
		return err
	}
	fg.line("_ = %s", v.s)
	return nil
}

func (fg *fnGen) lowerIf(x *cminus.IfStmt) error {
	c, err := fg.lowerExpr(x.Cond)
	if err != nil {
		return err
	}
	fg.line("if %s {", conv(c, tBool).s)
	if err := fg.lowerBlock(x.Then); err != nil {
		return err
	}
	switch els := x.Else.(type) {
	case nil:
		fg.line("}")
	case *cminus.Block:
		fg.line("} else {")
		if err := fg.lowerBlock(els); err != nil {
			return err
		}
		fg.line("}")
	default:
		fg.line("} else {")
		fg.depth++
		err := fg.lowerStmt(els)
		fg.depth--
		if err != nil {
			return err
		}
		fg.line("}")
	}
	return nil
}

// simpleAssign renders an init/post statement inline for a Go for
// header; plain scalar assignments and i++/i-- qualify, except the one
// defining an implicit scalar, which declares it.
func (fg *fnGen) simpleAssign(s cminus.Stmt) (string, bool, error) {
	as, ok := s.(*cminus.AssignStmt)
	if !ok {
		es, isExpr := s.(*cminus.ExprStmt)
		if !isExpr {
			return "", false, nil
		}
		u, isUnary := es.X.(*cminus.UnaryExpr)
		if !isUnary || (u.Op != "++" && u.Op != "--") {
			return "", false, nil
		}
		id, isIdent := u.X.(*cminus.Ident)
		if !isIdent {
			return "", false, nil
		}
		op := "+"
		if u.Op == "--" {
			op = "-"
		}
		as = &cminus.AssignStmt{LHS: id, Op: op, RHS: &cminus.IntLit{Val: 1, P: u.P}, P: u.P}
	}
	if _, isIdent := as.LHS.(*cminus.Ident); !isIdent || fg.implicit(as) != nil {
		return "", false, nil
	}
	line, err := fg.lowerAssign(as)
	if err != nil {
		return "", false, err
	}
	return line, true, nil
}

func (fg *fnGen) lowerFor(x *cminus.ForStmt) error {
	var lp *parallelize.LoopPlan
	if fg.fp != nil {
		lp = fg.fp.Loops[x.Label]
	}
	if lp != nil && lp.Chosen {
		return fg.lowerParallelFor(x, lp)
	}
	return fg.lowerSerialFor(x)
}

// lowerSerialFor emits the plain Go loop; it is also the fallback body
// of every guarded parallel region.
func (fg *fnGen) lowerSerialFor(x *cminus.ForStmt) error {
	init, initOK := "", x.Init == nil
	post, postOK := "", x.Post == nil
	var err error
	if x.Init != nil {
		init, initOK, err = fg.simpleAssign(x.Init)
		if err != nil {
			return err
		}
	}
	if x.Post != nil {
		post, postOK, err = fg.simpleAssign(x.Post)
		if err != nil {
			return err
		}
	}
	cond := ""
	if x.Cond != nil {
		c, err := fg.lowerExpr(x.Cond)
		if err != nil {
			return err
		}
		cond = conv(c, tBool).s
	}
	if initOK && postOK {
		// gofmt normalizes degenerate headers (`for ; c; {` → `for c {`).
		if init == "" && cond == "" && post == "" {
			fg.line("for {")
		} else {
			fg.line("for %s; %s; %s {", init, cond, post)
		}
		if err := fg.lowerBlock(x.Body); err != nil {
			return err
		}
		fg.line("}")
		return nil
	}
	// A non-inlinable init (a declaration, or an implicit scalar's
	// definition) is scoped in a block. A non-inlinable post runs at the
	// end of the body, where continue would skip it, so that combination
	// is rejected.
	if !postOK && hasContinue(x.Body) {
		return fmt.Errorf("loop %s: continue with non-inlinable post statement at %s", x.Label, x.P)
	}
	fg.line("{")
	fg.depth++
	if x.Init != nil && !initOK {
		if err := fg.lowerStmt(x.Init); err != nil {
			return err
		}
	} else if init != "" {
		fg.line("%s", init)
	}
	switch {
	case post != "":
		fg.line("for ; %s; %s {", cond, post)
	case cond != "":
		fg.line("for %s {", cond)
	default:
		fg.line("for {")
	}
	if err := fg.lowerBlock(x.Body); err != nil {
		return err
	}
	if x.Post != nil && !postOK {
		fg.depth++
		if err := fg.lowerStmt(x.Post); err != nil {
			return err
		}
		fg.depth--
	}
	fg.line("}")
	fg.depth--
	fg.line("}")
	return nil
}

func hasContinue(b *cminus.Block) bool {
	found := false
	cminus.WalkStmts(b, func(s cminus.Stmt) bool {
		switch s.(type) {
		case *cminus.ContinueStmt:
			found = true
		case *cminus.ForStmt, *cminus.WhileStmt:
			if s != cminus.Stmt(b) {
				return false // continue inside nested loops binds there
			}
		}
		return !found
	})
	return found
}

// lowerParallelFor emits the parallel region for a plan-chosen loop,
// replicating the interpreter's execParallelFor semantics bit for bit:
// the decline test on the work estimate, then entry checks and guards
// with serial fallback, workers clamped to the
// trip count, ParallelLoop's static blocks of ceil(n/w), per-block
// reduction partials initialized to the operator identity and combined
// in block order (skipping empty tail blocks), and the loop
// variable left at n afterwards.
func (fg *fnGen) lowerParallelFor(x *cminus.ForStmt, lp *parallelize.LoopPlan) error {
	d := lp.Decision
	ivar, nx, err := parallelize.Canonical(x)
	if err != nil {
		return fmt.Errorf("%v at %s", err, x.P)
	}
	iv := fg.b.Index(x)
	if iv == nil || iv.Float {
		return fmt.Errorf("parallel loop %s: unknown index %q at %s", x.Label, ivar, x.P)
	}
	nExpr, err := fg.lowerExpr(nx)
	if err != nil {
		return err
	}
	nExpr = conv(nExpr, tInt)

	// Entry condition: the forced-failure hook, the decision's scalar
	// runtime checks, then the array guards over the accessed section.
	conds := []string{fmt.Sprintf("!rtFailGuard(%q)", x.Label)}
	for _, chk := range fg.checks[x] {
		ce, err := fg.lowerExpr(chk)
		if err != nil {
			return fmt.Errorf("loop %s: %w", x.Label, err)
		}
		conds = append(conds, conv(ce, tBool).at(precAnd))
	}
	guards, err := fg.lowerGuards(x, d)
	if err != nil {
		return fmt.Errorf("loop %s: %w", x.Label, err)
	}
	conds = append(conds, guards...)

	flag := "rtPar_" + x.Label
	fg.line("// %s: %s", x.Label, fg.fp.Pragmas[x.Label])
	fg.line("%s := false", flag)
	if cond := fg.declines[x]; cond != nil {
		// A region whose work estimate is below parallelize.MinWork runs
		// its serial loop, as on one worker.
		ce, err := fg.lowerExpr(cond)
		if err != nil {
			return fmt.Errorf("loop %s: %w", x.Label, err)
		}
		fg.line("if rtWorkers > 1 && %s {", conv(ce, tBool).at(precAnd))
		fg.line("\trtStats.Declined++")
		fg.line("} else if rtWorkers > 1 {")
	} else {
		fg.line("if rtWorkers > 1 {")
	}
	fg.depth++
	fg.line("var rtN int64 = %s", nExpr.s)
	fg.line("if %s {", strings.Join(conds, " && "))
	fg.depth++
	fg.line("rtStats.Parallel++")
	fg.line("%s = true", flag)
	fg.line("if rtN > 0 {")
	fg.depth++
	if err := fg.lowerDispatch(x, d, ivar, fg.g.goName(iv.Name)); err != nil {
		return err
	}
	if iv == fg.b.Lookup(x, ivar, false) {
		// An index the loop's own init defines ends with the loop.
		fg.line("%s = rtN", fg.g.goName(iv.Name))
	}
	fg.depth--
	fg.line("}")
	fg.depth--
	fg.line("} else {")
	fg.depth++
	fg.line("rtStats.Fallback++")
	fg.depth--
	fg.line("}")
	fg.depth--
	fg.line("}")
	fg.line("if !%s {", flag)
	fg.depth++
	err = fg.lowerSerialFor(x)
	fg.depth--
	if err != nil {
		return err
	}
	fg.line("}")
	return nil
}

// lowerGuards renders the decision's array guards as calls of the scans
// in internal/guard, which every emitted module carries (GuardGo), over
// the section a loop of rtN trips reads.
func (fg *fnGen) lowerGuards(x *cminus.ForStmt, d *depend.Decision) ([]string, error) {
	var out []string
	for _, gd := range d.Guards {
		bd := fg.b.Lookup(x, gd.Array, true)
		if bd == nil || bd.Float {
			return nil, fmt.Errorf("guard array %q is not an int array in scope", gd.Array)
		}
		arr := fg.g.goName(bd.Name)
		switch gd.Kind {
		case depend.GuardMonotone:
			out = append(out, fmt.Sprintf("Monotone(%s.X, rtN, %v, %v)", arr, gd.Strict, gd.Window))
		case depend.GuardInjective:
			out = append(out, fmt.Sprintf("Injective(%s.X, rtN)", arr))
		case depend.GuardRangeMono:
			out = append(out, fmt.Sprintf("RangeMonotone(%s.Dims, %s.X, rtN)", arr, arr))
		default:
			return nil, fmt.Errorf("unknown guard kind %v for %q", gd.Kind, gd.Array)
		}
	}
	return out, nil
}

// lowerDispatch emits the fan-out inside a passed guard: one call of
// ParallelLoop, which every emitted module carries (LoopGo), on the
// static schedule. Its setup marks the blocks that ran, and the
// reduction combine skips the others, as the VM skips blocks whose
// frame was never set up. Privates and reductions are the bindings
// their names denote at the loop.
func (fg *fnGen) lowerDispatch(x *cminus.ForStmt, d *depend.Decision, ivar, iv string) error {
	fg.line("rtW := rtWorkers")
	fg.line("if int64(rtW) > rtN {")
	fg.line("\trtW = int(rtN)")
	fg.line("}")

	// Reduction partial slices, one element per block, initialized to
	// the operator identity (0 for +, 1 for *).
	reds := d.SortedReductions()
	redBinds := make([]*cminus.Binding, len(reds))
	for i, r := range reds {
		bd := fg.b.Lookup(x, r.Name, false)
		if bd == nil {
			return fmt.Errorf("reduction variable %q not in scope", r.Name)
		}
		redBinds[i] = bd
		slice := "rtRed_" + fg.g.goName(bd.Name)
		fg.line("%s := make([]%s, rtW)", slice, typOf(bd))
		if r.Op == "*" {
			fg.line("for rtWi := range %s {", slice)
			fg.line("\t%s[rtWi] = 1", slice)
			fg.line("}")
		}
	}
	setup := "func(int) {}"
	if len(reds) > 0 {
		fg.line("rtRan := make([]bool, rtW)")
		setup = "func(rtWi int) { rtRan[rtWi] = true }"
	}

	fg.line("ParallelLoop(rtN, rtW, %s, func(rtWi int, rtStart, rtEnd int64) {", setup)
	fg.depth++

	// Block-local state: privates and reduction accumulators shadow
	// the captured outer variables; the loop index is a fresh local. A
	// private the loop does not see is declared in its body, fresh per
	// iteration already.
	var privs []*cminus.Binding
	for _, p := range d.Privates {
		if p == ivar {
			continue // the chunk loop's := already privatizes the index
		}
		if bd := fg.b.Lookup(x, p, false); bd != nil {
			privs = append(privs, bd)
		}
	}
	var plain []string
	for i, bd := range privs {
		plain = append(plain, fg.g.goName(bd.Name))
		if i+1 == len(privs) || privs[i+1].Float != bd.Float {
			fg.line("var %s %s", strings.Join(plain, ", "), typOf(bd))
			plain = nil
		}
	}
	for _, bd := range privs {
		if !bd.Read {
			fg.line("_ = %s", fg.g.goName(bd.Name))
		}
	}
	for i, r := range reds {
		init := "0"
		if r.Op == "*" {
			init = "1"
		}
		fg.line("var %s %s = %s", fg.g.goName(redBinds[i].Name), typOf(redBinds[i]), init)
	}
	fg.line("for %s := rtStart; %s < rtEnd; %s++ {", iv, iv, iv)
	if err := fg.lowerBlock(x.Body); err != nil {
		return err
	}
	fg.line("}")
	for _, bd := range redBinds {
		fg.line("rtRed_%s[rtWi] = %s", fg.g.goName(bd.Name), fg.g.goName(bd.Name))
	}
	fg.depth--
	fg.line("})")

	// Combine partials into the shared variable in block order,
	// skipping blocks that never ran — adding an untouched identity
	// cell could still flip -0.0 to +0.0.
	for i, r := range reds {
		name, t := fg.g.goName(redBinds[i].Name), typOf(redBinds[i])
		fg.line("for rtWi := 0; rtWi < rtW; rtWi++ {")
		fg.depth++
		fg.line("if !rtRan[rtWi] {")
		fg.line("\tcontinue")
		fg.line("}")
		part := atom(fmt.Sprintf("rtRed_%s[rtWi]", name), t)
		upd, err := arith(r.Op, atom(name, t), part)
		if err != nil {
			return err
		}
		fg.line("%s = %s", name, conv(upd, t).s)
		fg.depth--
		fg.line("}")
	}
	return nil
}
