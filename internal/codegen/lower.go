package codegen

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/cminus"
	"repro/internal/depend"
	"repro/internal/parallelize"
)

// symKind classifies a resolved name.
type symKind int

const (
	symScalar symKind = iota
	symIntArr
	symFltArr
)

// symInfo is one symbol-table entry.
type symInfo struct {
	kind   symKind
	t      typ // scalar type; arrays use kind instead
	goName string
}

// fnGen lowers one function body. It mirrors the interpreter's scoping:
// a scope per block, parameters and globals at the root, and implicit
// variables (normalized loop indices assigned before any declaration)
// predeclared at function entry.
type fnGen struct {
	g      *gen
	fn     *cminus.FuncDecl
	fp     *parallelize.FuncPlan
	buf    *bytes.Buffer
	depth  int
	scopes []map[string]symInfo
	// reads are source names read at least once anywhere in the body; a
	// declared local absent from it gets a blank-identifier silencer so
	// the generated Go compiles (Go rejects written-but-never-read
	// locals, C does not).
	reads map[string]bool
}

func (fg *fnGen) push() { fg.scopes = append(fg.scopes, map[string]symInfo{}) }
func (fg *fnGen) pop()  { fg.scopes = fg.scopes[:len(fg.scopes)-1] }

func (fg *fnGen) define(name string, s symInfo) {
	fg.scopes[len(fg.scopes)-1][name] = s
}

func (fg *fnGen) lookup(name string) (symInfo, bool) {
	for i := len(fg.scopes) - 1; i >= 0; i-- {
		if s, ok := fg.scopes[i][name]; ok {
			return s, true
		}
	}
	s, ok := fg.g.globals[name]
	return s, ok
}

func (fg *fnGen) line(format string, args ...any) {
	fg.buf.WriteString(strings.Repeat("\t", fg.depth))
	fmt.Fprintf(fg.buf, format, args...)
	fg.buf.WriteByte('\n')
}

// lowerFunc emits one Go function for a mini-C function with a body.
func (g *gen) lowerFunc(fn *cminus.FuncDecl, fp *parallelize.FuncPlan) (string, error) {
	fg := &fnGen{g: g, fn: fn, fp: fp, buf: &bytes.Buffer{}, depth: 1}
	fg.push()
	fg.reads = scanReads(fn, fp)

	var params []string
	for _, prm := range fn.Params {
		goName := g.goName(prm.Name)
		if prm.PtrDeep > 0 || len(prm.Dims) > 0 {
			kind, gt := symIntArr, "*i64arr"
			if cminus.IsFloatType(prm.Type) {
				kind, gt = symFltArr, "*f64arr"
			}
			fg.define(prm.Name, symInfo{kind: kind, goName: goName})
			params = append(params, goName+" "+gt)
			continue
		}
		t := tInt
		if cminus.IsFloatType(prm.Type) {
			t = tFloat
		}
		fg.define(prm.Name, symInfo{kind: symScalar, t: t, goName: goName})
		params = append(params, goName+" "+t.String())
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

	// Predeclare implicit variables: names assigned in the body without
	// any declaration. The interpreter defines them on first write (the
	// normalized loop indices); a static lowering declares them up front.
	for _, imp := range implicitVars(fn, fg) {
		fg.define(imp.name, symInfo{kind: symScalar, t: imp.t, goName: g.goName(imp.name)})
		fg.line("var %s %s", g.goName(imp.name), imp.t)
		if !fg.reads[imp.name] {
			fg.line("_ = %s", g.goName(imp.name))
		}
	}

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
	fg.push()
	fg.depth++
	err := fg.lowerStmts(b.Stmts)
	fg.depth--
	fg.pop()
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
	for _, it := range x.Items {
		goName := fg.g.goName(it.Name)
		if len(it.Dims) > 0 || it.PtrDeep > 0 {
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
			kind := symIntArr
			if isFloat {
				ctor, kind = "rtNewF64", symFltArr
			}
			fg.define(it.Name, symInfo{kind: kind, goName: goName})
			fg.line("%s := %s(%s)", goName, ctor, strings.Join(dims, ", "))
			if !fg.reads[it.Name] {
				fg.line("_ = %s", goName)
			}
			continue
		}
		fg.define(it.Name, symInfo{kind: symScalar, t: t, goName: goName})
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
		if !fg.reads[it.Name] {
			flush()
			fg.line("_ = %s", goName)
		}
	}
	flush()
	return nil
}

// lowerAssign renders an assignment as one Go line (compound array
// updates expand to a braced block so the offset evaluates once, like
// the interpreter's get-binop-set sequence).
func (fg *fnGen) lowerAssign(x *cminus.AssignStmt) (string, error) {
	rhs, err := fg.lowerExpr(x.RHS)
	if err != nil {
		return "", err
	}
	if id, ok := x.LHS.(*cminus.Ident); ok {
		sym, found := fg.lookup(id.Name)
		if !found || sym.kind != symScalar {
			return "", fmt.Errorf("assignment to unknown scalar %q at %s", id.Name, x.P)
		}
		if x.Op != "" {
			rhs, err = arith(x.Op, atom(sym.goName, sym.t), rhs)
			if err != nil {
				return "", fmt.Errorf("%v at %s", err, x.P)
			}
		}
		return sym.goName + " = " + conv(rhs, sym.t).s, nil
	}
	name, idxExprs, ok := cminus.ArrayBase(x.LHS)
	if !ok {
		return "", fmt.Errorf("unsupported assignment target at %s", x.P)
	}
	sym, found := fg.lookup(name)
	if !found || sym.kind == symScalar {
		return "", fmt.Errorf("unknown array %q at %s", name, x.P)
	}
	et := tInt
	if sym.kind == symFltArr {
		et = tFloat
	}
	off, err := fg.lowerOffset(sym, idxExprs)
	if err != nil {
		return "", err
	}
	if x.Op == "" {
		return fmt.Sprintf("%s.X[%s] = %s", sym.goName, off, conv(rhs, et).s), nil
	}
	old := atom(sym.goName+".X[rtOff]", et)
	upd, err := arith(x.Op, old, rhs)
	if err != nil {
		return "", fmt.Errorf("%v at %s", err, x.P)
	}
	ind := strings.Repeat("\t", fg.depth)
	return fmt.Sprintf("{\n%s\trtOff := %s\n%s\t%s.X[rtOff] = %s\n%s}",
		ind, off, ind, sym.goName, conv(upd, et).s, ind), nil
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
		fg.push()
		err := fg.lowerStmt(els)
		fg.pop()
		fg.depth--
		if err != nil {
			return err
		}
		fg.line("}")
	}
	return nil
}

// simpleAssign renders an init/post statement inline for a Go for
// header; plain scalar assignments and i++/i-- qualify.
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
	if _, isIdent := as.LHS.(*cminus.Ident); !isIdent {
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
	// Non-inlinable init (a declaration): scope it in a block. A
	// non-inlinable post with continue in the body would skip the post,
	// so that combination is rejected.
	if !postOK && hasContinue(x.Body) {
		return fmt.Errorf("loop %s: continue with non-inlinable post statement at %s", x.Label, x.P)
	}
	fg.line("{")
	fg.push()
	fg.depth++
	if x.Init != nil && !initOK {
		if err := fg.lowerStmt(x.Init); err != nil {
			return err
		}
	} else if init != "" {
		fg.line("%s", init)
	}
	if cond != "" {
		fg.line("for %s {", cond)
	} else {
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
	} else if post != "" {
		fg.depth++
		fg.line("%s", post)
		fg.depth--
	}
	fg.line("}")
	fg.depth--
	fg.pop()
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
// entry checks and guards with serial fallback, workers clamped to the
// trip count, ParallelLoop's static chunks of ceil(n/w), per-worker
// reduction partials initialized to the operator identity and combined
// in worker order (skipping workers that ran no block), and the loop
// variable left at n afterwards.
func (fg *fnGen) lowerParallelFor(x *cminus.ForStmt, lp *parallelize.LoopPlan) error {
	d := lp.Decision
	ivar, nx, err := parallelize.Canonical(x)
	if err != nil {
		return fmt.Errorf("%v at %s", err, x.P)
	}
	ivSym, found := fg.lookup(ivar)
	if !found || ivSym.kind != symScalar {
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
	checks, err := lp.Checks(func(name string) bool {
		sym, ok := fg.lookup(name)
		return ok && sym.kind == symScalar
	})
	if err != nil {
		return fmt.Errorf("loop %s: %w", x.Label, err)
	}
	for _, chk := range checks {
		ce, err := fg.lowerExpr(chk)
		if err != nil {
			return fmt.Errorf("loop %s: %w", x.Label, err)
		}
		conds = append(conds, conv(ce, tBool).at(precAnd))
	}
	guards, err := fg.lowerGuards(d)
	if err != nil {
		return fmt.Errorf("loop %s: %w", x.Label, err)
	}
	conds = append(conds, guards...)

	flag := "rtPar_" + x.Label
	fg.line("// %s: %s", x.Label, parallelize.PragmaFor(d))
	fg.line("%s := false", flag)
	fg.line("if rtWorkers > 1 {")
	fg.depth++
	fg.line("var rtN int64 = %s", nExpr.s)
	fg.line("if %s {", strings.Join(conds, " && "))
	fg.depth++
	fg.line("rtStats.Parallel++")
	fg.line("%s = true", flag)
	fg.line("if rtN > 0 {")
	fg.depth++
	if err := fg.lowerDispatch(x, d, ivar, ivSym); err != nil {
		return err
	}
	fg.line("%s = rtN", ivSym.goName)
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
	fg.push()
	err = fg.lowerSerialFor(x)
	fg.pop()
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
func (fg *fnGen) lowerGuards(d *depend.Decision) ([]string, error) {
	var out []string
	for _, gd := range d.Guards {
		sym, found := fg.lookup(gd.Array)
		if !found || sym.kind != symIntArr {
			return nil, fmt.Errorf("guard array %q is not an int array in scope", gd.Array)
		}
		switch gd.Kind {
		case depend.GuardMonotone:
			out = append(out, fmt.Sprintf("Monotone(%s.X, rtN, %v, %v)", sym.goName, gd.Strict, gd.Window))
		case depend.GuardInjective:
			out = append(out, fmt.Sprintf("Injective(%s.X, rtN)", sym.goName))
		case depend.GuardRangeMono:
			out = append(out, fmt.Sprintf("RangeMonotone(%s.Dims, %s.X, rtN)", sym.goName, sym.goName))
		default:
			return nil, fmt.Errorf("unknown guard kind %v for %q", gd.Kind, gd.Array)
		}
	}
	return out, nil
}

// lowerDispatch emits the fan-out inside a passed guard: one call of
// ParallelLoop, which every emitted module carries (LoopGo), on the
// static schedule. Its setup marks the workers that ran, and the
// reduction combine skips the others, as the VM skips workers whose
// frame was never set up.
func (fg *fnGen) lowerDispatch(x *cminus.ForStmt, d *depend.Decision, ivar string, ivSym symInfo) error {
	fg.line("rtW := rtWorkers")
	fg.line("if int64(rtW) > rtN {")
	fg.line("\trtW = int(rtN)")
	fg.line("}")

	// Reduction partial slices, one element per worker, initialized to
	// the operator identity (0 for +, 1 for *).
	reds := sortedReductions(d)
	for _, r := range reds {
		sym, found := fg.lookup(r.name)
		if !found || sym.kind != symScalar {
			return fmt.Errorf("reduction variable %q not in scope", r.name)
		}
		slice := "rtRed_" + sym.goName
		fg.line("%s := make([]%s, rtW)", slice, sym.t)
		if r.op == "*" {
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

	fg.line("ParallelLoop(rtN, rtW, 0, %s, func(rtWi int, rtStart, rtEnd int64) bool {", setup)
	fg.depth++

	// Worker-local state: privates and reduction accumulators shadow
	// the captured outer variables; the loop index is a fresh local.
	fg.push()
	var plain []string
	var plainT typ
	flushPlain := func() {
		if len(plain) > 0 {
			fg.line("var %s %s", strings.Join(plain, ", "), plainT)
			plain = nil
		}
	}
	for _, p := range d.Privates {
		if p == ivar {
			continue // the chunk loop's := already privatizes the index
		}
		sym, found := fg.lookup(p)
		if !found || sym.kind != symScalar {
			return fmt.Errorf("private %q not in scope", p)
		}
		if len(plain) > 0 && plainT != sym.t {
			flushPlain()
		}
		plainT = sym.t
		plain = append(plain, sym.goName)
	}
	flushPlain()
	for _, p := range d.Privates {
		if p != ivar && !fg.reads[p] {
			sym, _ := fg.lookup(p)
			fg.line("_ = %s", sym.goName)
		}
	}
	for _, r := range reds {
		sym, _ := fg.lookup(r.name)
		init := "0"
		if r.op == "*" {
			init = "1"
		}
		fg.line("var %s %s = %s", sym.goName, sym.t, init)
	}
	fg.line("for %s := rtStart; %s < rtEnd; %s++ {", ivSym.goName, ivSym.goName, ivSym.goName)
	fg.define(ivar, symInfo{kind: symScalar, t: tInt, goName: ivSym.goName})
	if err := fg.lowerBlock(x.Body); err != nil {
		return err
	}
	fg.line("}")
	for _, r := range reds {
		sym, _ := fg.lookup(r.name)
		fg.line("rtRed_%s[rtWi] = %s", sym.goName, sym.goName)
	}
	fg.line("return true")
	fg.pop()
	fg.depth--
	fg.line("})")

	// Combine partials into the shared variable in worker order,
	// skipping workers that ran no block — adding an untouched identity
	// cell could still flip -0.0 to +0.0.
	for _, r := range reds {
		sym, _ := fg.lookup(r.name)
		fg.line("for rtWi := 0; rtWi < rtW; rtWi++ {")
		fg.depth++
		fg.line("if !rtRan[rtWi] {")
		fg.line("\tcontinue")
		fg.line("}")
		part := atom(fmt.Sprintf("rtRed_%s[rtWi]", sym.goName), sym.t)
		upd, err := arith(r.op, atom(sym.goName, sym.t), part)
		if err != nil {
			return err
		}
		fg.line("%s = %s", sym.goName, conv(upd, sym.t).s)
		fg.depth--
		fg.line("}")
	}
	return nil
}

type redSlot struct{ name, op string }

func sortedReductions(d *depend.Decision) []redSlot {
	var out []redSlot
	for v, op := range d.Reductions {
		out = append(out, redSlot{v, op})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// scanReads collects every source name read at least once in the
// function: identifiers in any expression except a scalar assignment
// target (writing alone is not a use in Go). Names referenced by
// runtime checks and guards of chosen loops count as reads too, since
// the emitted entry conditions read them. A check's names resolve
// against the names the body reads, so a counter alias only ever maps
// to a name already marked.
func scanReads(fn *cminus.FuncDecl, fp *parallelize.FuncPlan) map[string]bool {
	reads := map[string]bool{}
	markExpr := func(e cminus.Expr) {
		cminus.WalkExprs(e, func(x cminus.Expr) bool {
			if id, ok := x.(*cminus.Ident); ok {
				reads[id.Name] = true
			}
			return true
		})
	}
	var markStmt func(s cminus.Stmt)
	markStmt = func(s cminus.Stmt) {
		switch x := s.(type) {
		case *cminus.AssignStmt:
			if _, scalar := x.LHS.(*cminus.Ident); !scalar {
				markExpr(x.LHS)
			}
			markExpr(x.RHS)
		case *cminus.DeclStmt:
			for _, it := range x.Items {
				markExpr(it.Init)
				for _, dm := range it.Dims {
					markExpr(dm)
				}
			}
		case *cminus.ExprStmt:
			markExpr(x.X)
		case *cminus.IfStmt:
			markExpr(x.Cond)
		case *cminus.ForStmt:
			if x.Init != nil {
				markStmt(x.Init)
			}
			markExpr(x.Cond)
			if x.Post != nil {
				markStmt(x.Post)
			}
		case *cminus.WhileStmt:
			markExpr(x.Cond)
		case *cminus.ReturnStmt:
			markExpr(x.X)
		}
	}
	cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
		markStmt(s)
		return true
	})
	if fp != nil {
		body := maps.Clone(reads)
		for _, lp := range fp.Loops {
			if !lp.Chosen || lp.Decision == nil {
				continue
			}
			for _, gd := range lp.Decision.Guards {
				reads[gd.Array] = true
			}
			checks, _ := lp.Checks(func(name string) bool { return body[name] })
			for _, chk := range checks {
				markExpr(chk)
			}
		}
	}
	return reads
}

// implicit describes a variable assigned without declaration.
type implicit struct {
	name string
	t    typ
}

// implicitVars finds names assigned in the body that no declaration,
// parameter or global binds, in first-assignment order, with the type
// statically inferred from the first assigned value (the interpreter
// types the implicit cell from its first write the same way).
func implicitVars(fn *cminus.FuncDecl, fg *fnGen) []implicit {
	declared := map[string]bool{}
	for _, prm := range fn.Params {
		declared[prm.Name] = true
	}
	for name := range fg.g.globals {
		declared[name] = true
	}
	cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
		if ds, ok := s.(*cminus.DeclStmt); ok {
			for _, it := range ds.Items {
				declared[it.Name] = true
			}
		}
		return true
	})
	var out []implicit
	seen := map[string]bool{}
	cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
		as, ok := s.(*cminus.AssignStmt)
		if !ok {
			return true
		}
		id, ok := as.LHS.(*cminus.Ident)
		if !ok || declared[id.Name] || seen[id.Name] {
			return true
		}
		seen[id.Name] = true
		out = append(out, implicit{name: id.Name, t: staticTypeGuess(as.RHS, fg)})
		return true
	})
	return out
}

// staticTypeGuess approximates the type of an expression before full
// lowering; implicit variables are normalized loop indices in practice,
// so int is the overwhelmingly common answer.
func staticTypeGuess(e cminus.Expr, fg *fnGen) typ {
	switch t := e.(type) {
	case *cminus.FloatLit:
		return tFloat
	case *cminus.CastExpr:
		if cminus.IsFloatType(t.Type) {
			return tFloat
		}
		return tInt
	case *cminus.Ident:
		if sym, ok := fg.lookup(t.Name); ok && sym.kind == symScalar {
			return sym.t
		}
	case *cminus.IndexExpr:
		if name, _, ok := cminus.ArrayBase(t); ok {
			if sym, found := fg.lookup(name); found && sym.kind == symFltArr {
				return tFloat
			}
		}
	case *cminus.BinaryExpr:
		switch t.Op {
		case "+", "-", "*", "/":
			if staticTypeGuess(t.X, fg) == tFloat || staticTypeGuess(t.Y, fg) == tFloat {
				return tFloat
			}
		}
	case *cminus.CallExpr:
		if mf, ok := mathFuncs[t.Fun]; ok {
			return mf.ret
		}
		if fn := fg.g.prog.Func(t.Fun); fn != nil && cminus.IsFloatType(fn.RetType) {
			return tFloat
		}
	}
	return tInt
}
