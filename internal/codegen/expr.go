package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cminus"
)

// typ is the static type of a lowered expression. The interpreter's
// Value is dynamically typed but mini-C programs are statically typed
// in practice: every variable, parameter and array has a fixed int or
// double type, so the emitter can resolve each expression to exactly
// one Go type and insert the same conversions the interpreter's binop
// promotion performs at run time.
type typ int

const (
	tInt typ = iota
	tFloat
	tBool
)

func (t typ) String() string {
	switch t {
	case tInt:
		return "int64"
	case tFloat:
		return "float64"
	}
	return "bool"
}

// Go operator precedence levels used for minimal parenthesization.
// 7 = primary (idents, literals, calls, index), 6 = unary,
// 5 = * / % << >> &, 4 = + - | ^, 3 = comparisons, 2 = &&, 1 = ||.
const (
	precAtom  = 7
	precUnary = 6
	precMul   = 5
	precAdd   = 4
	precCmp   = 3
	precAnd   = 2
	precOr    = 1
)

// expr is a lowered expression: Go source text, the precedence of its
// outermost operator, its static type, and whether Go reads an int or
// float64 text as a constant expression (k).
//
// Go evaluates a constant expression exactly at compile time: no
// rounding, no negative zero, no wrap-around, and a constant that does
// not fit its type, a truncating conversion or a constant zero divisor
// fails the build. The interpreters evaluate every operation at run
// time in int64 and float64, so the emitter never hands Go an operation
// it would fold: run turns such an operand into a run-time value.
type expr struct {
	s    string
	prec int
	t    typ
	k    bool
}

func atom(s string, t typ) expr { return expr{s: s, prec: precAtom, t: t} }

// run returns a constant int or float64 as a run-time value (rtI, rtF
// in the runtime file).
func run(e expr) expr {
	switch {
	case !e.k:
		return e
	case e.t == tFloat:
		return atom("rtF("+e.s+")", tFloat)
	}
	return atom("rtI("+e.s+")", tInt)
}

// at parenthesizes e when its outermost operator binds looser than min.
func (e expr) at(min int) string {
	if e.prec < min {
		return "(" + e.s + ")"
	}
	return e.s
}

// conv converts e to the wanted type with the same semantics the
// interpreter applies: int64(f) truncates like a C cast, bool becomes
// 0/1 in arithmetic, and any value compares against zero for truth.
func conv(e expr, want typ) expr {
	if e.t == want {
		return e
	}
	switch want {
	case tInt:
		if e.t == tBool {
			return atom("rtB2i("+e.s+")", tInt)
		}
		return atom("int64("+run(e).s+")", tInt)
	case tFloat:
		if e.t == tBool {
			return atom("float64(rtB2i("+e.s+"))", tFloat)
		}
		return expr{s: "float64(" + e.s + ")", prec: precAtom, t: tFloat, k: e.k}
	default: // tBool
		return expr{s: e.at(precAdd) + " != 0", prec: precCmp, t: tBool}
	}
}

// arith reproduces interp.binop for two already-lowered operands: bools
// coerce to int, a float operand promotes both sides, and every float
// operation is wrapped in an explicit float64 conversion — the Go spec
// makes an explicit conversion a rounding barrier, which keeps the
// compiler from fusing a*b+c into an FMA and guarantees bit-identical
// results with the interpreter's one-operation-at-a-time evaluation.
func arith(op string, l, r expr) (expr, error) {
	if l.t == tBool {
		l = conv(l, tInt)
	}
	if r.t == tBool {
		r = conv(r, tInt)
	}
	switch op {
	case "+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=":
		if l.t == tFloat || r.t == tFloat {
			l, r = conv(l, tFloat), conv(r, tFloat)
		}
	case "%", "&", "|", "^", "<<", ">>":
		l, r = conv(l, tInt), conv(r, tInt)
	default:
		return expr{}, fmt.Errorf("unsupported operator %q", op)
	}
	// Go folds an operation on two constants, checks a constant divisor
	// or shift count at compile time, and types a shift's constant left
	// operand by its context: such operands become run-time values.
	switch op {
	case "/", "%":
		r = run(r)
	case "<<", ">>":
		l, r = run(l), run(r)
	}
	if l.k {
		r = run(r)
	}
	switch op {
	case "+", "-", "*", "/":
		if l.t == tFloat {
			return atom(fmt.Sprintf("float64(%s %s %s)", l.at(opPrec(op)), op, r.at(opPrec(op)+1)), tFloat), nil
		}
	case "<", "<=", ">", ">=", "==", "!=":
		return expr{s: l.at(precCmp+1) + " " + op + " " + r.at(precCmp+1), prec: precCmp, t: tBool}, nil
	case "<<", ">>":
		// interp shifts by uint(r): negative counts become huge shifts,
		// which Go defines as 0/-1 — reproduce exactly.
		return expr{
			s:    fmt.Sprintf("%s %s uint(%s)", l.at(precMul), op, r.s),
			prec: precMul, t: tInt,
		}, nil
	}
	return binExpr(op, l, r, tInt), nil
}

func opPrec(op string) int {
	switch op {
	case "*", "/", "%", "<<", ">>", "&":
		return precMul
	case "+", "-", "|", "^":
		return precAdd
	}
	return precAtom
}

func binExpr(op string, l, r expr, t typ) expr {
	p := opPrec(op)
	return expr{s: l.at(p) + " " + op + " " + r.at(p+1), prec: p, t: t}
}

// lowerExpr lowers a mini-C expression to Go source with its type.
func (fg *fnGen) lowerExpr(x cminus.Expr) (expr, error) {
	switch t := x.(type) {
	case *cminus.IntLit:
		return expr{s: strconv.FormatInt(t.Val, 10), prec: precAtom, t: tInt, k: true}, nil
	case *cminus.FloatLit:
		// The lexer dropped C's suffixes and the parser read the text
		// with strconv.ParseFloat, so it is a Go literal of t.Val.
		return expr{s: t.Text, prec: precAtom, t: tFloat, k: true}, nil
	case *cminus.StringLit:
		// The interpreter evaluates string literals to integer 0.
		return expr{s: "0", prec: precAtom, t: tInt, k: true}, nil
	case *cminus.Ident:
		return fg.lowerIdent(t)
	case *cminus.BinaryExpr:
		l, err := fg.lowerExpr(t.X)
		if err != nil {
			return expr{}, err
		}
		r, err := fg.lowerExpr(t.Y)
		if err != nil {
			return expr{}, err
		}
		switch t.Op {
		case "&&":
			l, r = conv(l, tBool), conv(r, tBool)
			return expr{s: l.at(precAnd) + " && " + r.at(precAnd+1), prec: precAnd, t: tBool}, nil
		case "||":
			l, r = conv(l, tBool), conv(r, tBool)
			return expr{s: l.at(precOr) + " || " + r.at(precOr+1), prec: precOr, t: tBool}, nil
		}
		res, err := arith(t.Op, l, r)
		if err != nil {
			return expr{}, fmt.Errorf("%v at %s", err, t.P)
		}
		return res, nil
	case *cminus.UnaryExpr:
		return fg.lowerUnary(t)
	case *cminus.CondExpr:
		return fg.lowerCond(t)
	case *cminus.IndexExpr:
		return fg.lowerIndex(t)
	case *cminus.CallExpr:
		return fg.lowerCall(t)
	case *cminus.CastExpr:
		v, err := fg.lowerExpr(t.X)
		if err != nil {
			return expr{}, err
		}
		if cminus.IsFloatType(t.Type) {
			return conv(v, tFloat), nil
		}
		return conv(v, tInt), nil
	}
	return expr{}, fmt.Errorf("unsupported expression %T at %s", x, x.Pos())
}

func (fg *fnGen) lowerIdent(t *cminus.Ident) (expr, error) {
	bd := fg.b.Of(t)
	if bd == nil {
		return expr{}, fmt.Errorf("unbound variable %q at %s", t.Name, t.P)
	}
	return atom(fg.g.goName(bd.Name), typOf(bd)), nil
}

func (fg *fnGen) lowerUnary(t *cminus.UnaryExpr) (expr, error) {
	switch t.Op {
	case "-":
		v, err := fg.lowerExpr(t.X)
		if err != nil {
			return expr{}, err
		}
		if v.t == tBool {
			v = conv(v, tInt)
		}
		if v.t == tFloat {
			v = run(v) // a constant -0.0 is 0 in Go
		}
		s := v.at(precUnary + 1)
		if strings.HasPrefix(s, "-") {
			s = "(" + s + ")"
		}
		return expr{s: "-" + s, prec: precUnary, t: v.t, k: v.k}, nil
	case "!":
		v, err := fg.lowerExpr(t.X)
		if err != nil {
			return expr{}, err
		}
		v = conv(v, tBool)
		return expr{s: "!" + v.at(precUnary+1), prec: precUnary, t: tBool}, nil
	case "~":
		v, err := fg.lowerExpr(t.X)
		if err != nil {
			return expr{}, err
		}
		v = conv(v, tInt)
		return expr{s: "^" + v.at(precUnary+1), prec: precUnary, t: tInt, k: v.k}, nil
	}
	return expr{}, fmt.Errorf("unsupported unary %q in expression at %s (increments are statements)", t.Op, t.P)
}

// lowerCond lowers a ternary through an immediately-invoked closure so
// only the selected branch evaluates, like the interpreter. The result
// is double when either branch is, C's usual arithmetic conversion,
// which the interpreters apply too.
func (fg *fnGen) lowerCond(t *cminus.CondExpr) (expr, error) {
	c, err := fg.lowerExpr(t.C)
	if err != nil {
		return expr{}, err
	}
	tv, err := fg.lowerExpr(t.T)
	if err != nil {
		return expr{}, err
	}
	fv, err := fg.lowerExpr(t.F)
	if err != nil {
		return expr{}, err
	}
	out := tv.t
	if tv.t == tFloat || fv.t == tFloat {
		out = tFloat
	}
	if tv.t == tBool && fv.t == tBool {
		out = tInt // interp yields the branch value; bools are ints there
	}
	tv, fv = conv(tv, out), conv(fv, out)
	c = conv(c, tBool)
	s := fmt.Sprintf("func() %s { if %s { return %s }; return %s }()", out, c.s, tv.s, fv.s)
	return atom(s, out), nil
}

// lowerIndex lowers a (possibly multi-dimensional) array access to flat
// row-major indexing, the layout interp.Array uses.
func (fg *fnGen) lowerIndex(t *cminus.IndexExpr) (expr, error) {
	arr, et, off, err := fg.lowerAccess(t)
	if err != nil {
		return expr{}, err
	}
	return atom(arr+".X["+off+"]", et), nil
}

// lowerAccess resolves an array access to its Go array, element type
// and flat offset expression: ((i0*Dims[1] + i1)*Dims[2] + i2)...
func (fg *fnGen) lowerAccess(t *cminus.IndexExpr) (arr string, et typ, off string, err error) {
	name, idxExprs, ok := cminus.ArrayBase(t)
	if !ok {
		return "", 0, "", fmt.Errorf("unsupported index expression at %s", t.P)
	}
	bd := fg.b.Array(t)
	if bd == nil {
		return "", 0, "", fmt.Errorf("unknown array %q at %s", name, t.P)
	}
	arr = fg.g.goName(bd.Name)
	var o expr
	for d, ie := range idxExprs {
		v, err := fg.lowerExpr(ie)
		if err != nil {
			return "", 0, "", err
		}
		v = conv(v, tInt)
		if d == 0 {
			o = v
			continue
		}
		dim := atom(fmt.Sprintf("%s.Dims[%d]", arr, d), tInt)
		o = binExpr("+", binExpr("*", o, dim, tInt), v, tInt)
	}
	return arr, typOf(bd), o.s, nil
}

func (fg *fnGen) lowerCall(t *cminus.CallExpr) (expr, error) {
	if fn := fg.g.prog.Func(t.Fun); fn != nil && fn.Body != nil {
		if fn.RetType == "void" {
			return expr{}, fmt.Errorf("void call to %s used as a value at %s", fn.Name, t.P)
		}
		return fg.lowerUserCall(fn, t)
	}
	bi := cminus.LookupBuiltin(t.Fun)
	if bi == nil {
		return expr{}, fmt.Errorf("unknown function %q at %s", t.Fun, t.P)
	}
	if len(t.Args) != bi.Arity() {
		return expr{}, fmt.Errorf("%s expects %d args, got %d at %s", t.Fun, bi.Arity(), len(t.Args), t.P)
	}
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		v, err := fg.lowerExpr(a)
		if err != nil {
			return expr{}, err
		}
		args[i] = conv(v, tFloat).s
	}
	fg.g.usesMath = true
	// Builtins take and return float64, like the interpreters; an int
	// builtin truncates.
	call := bi.Go + "(" + strings.Join(args, ", ") + ")"
	if bi.Int {
		return atom("int64("+call+")", tInt), nil
	}
	return atom(call, tFloat), nil
}

func (fg *fnGen) lowerUserCall(fn *cminus.FuncDecl, t *cminus.CallExpr) (expr, error) {
	if len(t.Args) != len(fn.Params) {
		return expr{}, fmt.Errorf("%s expects %d args, got %d at %s", fn.Name, len(fn.Params), len(t.Args), t.P)
	}
	args := make([]string, len(t.Args))
	for i, prm := range fn.Params {
		if prm.PtrDeep > 0 || len(prm.Dims) > 0 {
			id, ok := t.Args[i].(*cminus.Ident)
			if !ok {
				return expr{}, fmt.Errorf("array argument %d of %s must be an identifier at %s", i, fn.Name, t.P)
			}
			bd := fg.b.Of(id)
			if bd == nil {
				return expr{}, fmt.Errorf("unknown array %q passed to %s at %s", id.Name, fn.Name, t.P)
			}
			args[i] = fg.g.goName(bd.Name)
			continue
		}
		v, err := fg.lowerExpr(t.Args[i])
		if err != nil {
			return expr{}, err
		}
		want := tInt
		if cminus.IsFloatType(prm.Type) {
			want = tFloat
		}
		args[i] = conv(v, want).s
	}
	ret := tInt
	if cminus.IsFloatType(fn.RetType) {
		ret = tFloat
	}
	return atom(fg.g.goName(fn.Name)+"("+strings.Join(args, ", ")+")", ret), nil
}
