package symbolic

// Sign classification of a symbolic expression, used for the paper's PNN
// (Positive or Non-Negative) tests.
type Sign int

// Sign lattice values.
const (
	SignUnknown Sign = iota
	SignZero
	SignPositive
	SignNegative
	SignNonNegative
	SignNonPositive
)

func (s Sign) String() string {
	switch s {
	case SignZero:
		return "zero"
	case SignPositive:
		return "positive"
	case SignNegative:
		return "negative"
	case SignNonNegative:
		return "non-negative"
	case SignNonPositive:
		return "non-positive"
	}
	return "unknown"
}

// IsPNN reports whether the sign is Positive or Non-Negative (the paper's
// PNN placeholder; zero counts as non-negative).
func (s Sign) IsPNN() bool {
	return s == SignPositive || s == SignNonNegative || s == SignZero
}

// Context supplies value ranges for symbols during sign analysis. The
// range dictionary of the range-propagation pass implements it.
type Context interface {
	// RangeOf returns the known bounds of a symbol; either bound may be
	// nil when unknown on that side.
	RangeOf(sym string) (lo, hi Expr, ok bool)
}

// EmptyContext is a Context with no information.
type EmptyContext struct{}

// RangeOf always reports no information.
func (EmptyContext) RangeOf(string) (Expr, Expr, bool) { return nil, nil, false }

const maxSignDepth = 8

// SignOf computes the sign of e under ctx. A ctx that also implements
// Stepper (the range dictionary, when an analysis budget is attached) is
// charged one step per proof, so runaway proof cascades abort with the
// budget's typed error instead of running unbounded.
func SignOf(e Expr, ctx Context) Sign {
	if ctx == nil {
		ctx = EmptyContext{}
	}
	if s, ok := ctx.(Stepper); ok {
		s.Step(1)
	}
	if pc, ok := ctx.(ProofCounter); ok {
		pc.CountProofs(1)
	}
	return signOf(Simplify(e), ctx, maxSignDepth)
}

func signOf(e Expr, ctx Context, depth int) Sign {
	if depth <= 0 || e == nil {
		return SignUnknown
	}
	switch x := e.(type) {
	case Int:
		switch {
		case x.Val == 0:
			return SignZero
		case x.Val > 0:
			return SignPositive
		default:
			return SignNegative
		}
	case Sym:
		return symSign(x.Name, ctx, depth)
	case Lambda:
		return symSign(x.Name, ctx, depth)
	case BigLambda:
		return symSign(x.Name, ctx, depth)
	case Add:
		acc := SignZero
		for _, t := range x.Terms {
			acc = addSigns(acc, signOf(t, ctx, depth-1))
			if acc == SignUnknown {
				break
			}
		}
		if acc != SignUnknown {
			return acc
		}
		// Termwise analysis failed; substitute each symbol's lower (or
		// upper, for negative coefficients) bound and classify the bound.
		// A lower bound of 0 shows x >= 0 and an upper bound of 0 shows
		// x <= 0, not x = 0.
		if lb, ok := boundSubst(x, ctx, true); ok {
			switch s := signOf(lb, ctx, depth-1); s {
			case SignPositive, SignNonNegative:
				return s
			case SignZero:
				return SignNonNegative
			}
		}
		if ub, ok := boundSubst(x, ctx, false); ok {
			switch s := signOf(ub, ctx, depth-1); s {
			case SignNegative, SignNonPositive:
				return s
			case SignZero:
				return SignNonPositive
			}
		}
		return SignUnknown
	case Mul:
		acc := SignPositive
		for _, f := range x.Factors {
			acc = mulSigns(acc, signOf(f, ctx, depth-1))
			if acc == SignUnknown {
				return SignUnknown
			}
		}
		return acc
	case Range:
		lo := signOf(x.Lo, ctx, depth-1)
		hi := signOf(x.Hi, ctx, depth-1)
		switch {
		case lo == SignPositive:
			return SignPositive
		case (lo == SignNonNegative || lo == SignZero) &&
			(hi == SignZero || lo == SignZero && hi == SignZero):
			if hi == SignZero && lo == SignZero {
				return SignZero
			}
			return SignNonNegative
		case lo == SignNonNegative || lo == SignZero:
			return SignNonNegative
		case hi == SignNegative:
			return SignNegative
		case hi == SignNonPositive || hi == SignZero:
			return SignNonPositive
		}
		return SignUnknown
	case Min:
		return reduceSigns(x.Args, ctx, depth, true)
	case Max:
		return reduceSigns(x.Args, ctx, depth, false)
	case Mono:
		return signOf(x.Base, ctx, depth-1)
	case Tagged:
		return signOf(x.E, ctx, depth-1)
	case Set:
		var acc Sign
		first := true
		for _, it := range x.Items {
			s := signOf(it, ctx, depth-1)
			if first {
				acc, first = s, false
				continue
			}
			acc = joinSigns(acc, s)
			if acc == SignUnknown {
				return SignUnknown
			}
		}
		return acc
	}
	return SignUnknown
}

// boundSubst replaces every linearly-occurring symbol (or λ/Λ marker) in e
// with its context lower bound when the term's coefficient is positive and
// its upper bound when negative (swapped when lower=false), producing a
// sound lower (upper) bound for e. It fails if any needed bound is missing
// or a symbol occurs non-linearly.
func boundSubst(e Expr, ctx Context, lower bool) (Expr, bool) {
	v := nf(e)
	if v.invalid || v.isRange {
		return nil, false
	}
	var out linsum
	changed := false
	for _, t := range v.lo {
		if len(t.atoms) == 0 {
			out = out.plus(linsum{t})
			continue
		}
		if len(t.atoms) != 1 {
			return nil, false
		}
		name, ok := atomName(t.atoms[0])
		if !ok {
			return nil, false
		}
		lo, hi, ok := ctx.RangeOf(name)
		if !ok {
			return nil, false
		}
		wantLo := (t.coef > 0) == lower
		var b Expr
		if wantLo {
			b = lo
		} else {
			b = hi
		}
		if b == nil {
			return nil, false
		}
		bv := nf(Simplify(b))
		if bv.invalid {
			return nil, false
		}
		if bv.isRange {
			if wantLo {
				bv = scalarValue(bv.lo)
			} else {
				bv = scalarValue(bv.hi)
			}
		}
		out = out.plus(bv.lo.scale(t.coef))
		changed = true
	}
	if !changed {
		return nil, false
	}
	return emitLin(out), true
}

func atomName(a Expr) (string, bool) {
	switch x := a.(type) {
	case Sym:
		return x.Name, true
	case Lambda:
		return x.Name, true
	case BigLambda:
		return x.Name, true
	}
	return "", false
}

func symSign(name string, ctx Context, depth int) Sign {
	lo, hi, ok := ctx.RangeOf(name)
	if !ok {
		return SignUnknown
	}
	var loSign, hiSign Sign
	loSign, hiSign = SignUnknown, SignUnknown
	if lo != nil {
		loSign = signOf(Simplify(lo), ctx, depth-1)
	}
	if hi != nil {
		hiSign = signOf(Simplify(hi), ctx, depth-1)
	}
	switch {
	case loSign == SignPositive:
		return SignPositive
	case loSign == SignZero || loSign == SignNonNegative:
		if hiSign == SignZero {
			return SignZero
		}
		return SignNonNegative
	case hiSign == SignNegative:
		return SignNegative
	case hiSign == SignZero || hiSign == SignNonPositive:
		return SignNonPositive
	}
	return SignUnknown
}

func addSigns(a, b Sign) Sign {
	if a == SignZero {
		return b
	}
	if b == SignZero {
		return a
	}
	pos := func(s Sign) bool { return s == SignPositive || s == SignNonNegative }
	neg := func(s Sign) bool { return s == SignNegative || s == SignNonPositive }
	switch {
	case pos(a) && pos(b):
		if a == SignPositive || b == SignPositive {
			return SignPositive
		}
		return SignNonNegative
	case neg(a) && neg(b):
		if a == SignNegative || b == SignNegative {
			return SignNegative
		}
		return SignNonPositive
	}
	return SignUnknown
}

func mulSigns(a, b Sign) Sign {
	if a == SignZero || b == SignZero {
		return SignZero
	}
	if a == SignUnknown || b == SignUnknown {
		return SignUnknown
	}
	flip := func(s Sign) Sign {
		switch s {
		case SignPositive:
			return SignNegative
		case SignNegative:
			return SignPositive
		case SignNonNegative:
			return SignNonPositive
		case SignNonPositive:
			return SignNonNegative
		}
		return s
	}
	switch a {
	case SignPositive:
		return b
	case SignNonNegative:
		switch b {
		case SignPositive, SignNonNegative:
			return SignNonNegative
		case SignNegative, SignNonPositive:
			return SignNonPositive
		}
	case SignNegative:
		return flip(b)
	case SignNonPositive:
		return flip(mulSigns(SignNonNegative, b))
	}
	return SignUnknown
}

// joinSigns is the lattice join (used for merging alternatives).
func joinSigns(a, b Sign) Sign {
	if a == b {
		return a
	}
	pnn := func(s Sign) bool { return s.IsPNN() }
	npp := func(s Sign) bool {
		return s == SignNegative || s == SignNonPositive || s == SignZero
	}
	switch {
	case pnn(a) && pnn(b):
		if a == SignPositive && b == SignPositive {
			return SignPositive
		}
		return SignNonNegative
	case npp(a) && npp(b):
		if a == SignNegative && b == SignNegative {
			return SignNegative
		}
		return SignNonPositive
	}
	return SignUnknown
}

func reduceSigns(args []Expr, ctx Context, depth int, isMin bool) Sign {
	_ = isMin
	var acc Sign
	first := true
	for _, a := range args {
		s := signOf(a, ctx, depth-1)
		if first {
			acc, first = s, false
			continue
		}
		acc = joinSigns(acc, s)
	}
	return acc
}

// ProveGE attempts to prove a >= b under ctx.
func ProveGE(a, b Expr, ctx Context) bool {
	return SignOf(SubExpr(a, b), ctx).IsPNN()
}

// ProveGT attempts to prove a > b under ctx.
func ProveGT(a, b Expr, ctx Context) bool {
	return SignOf(SubExpr(a, b), ctx) == SignPositive
}

// ProveLE attempts to prove a <= b under ctx.
func ProveLE(a, b Expr, ctx Context) bool { return ProveGE(b, a, ctx) }

// ProveLT attempts to prove a < b under ctx.
func ProveLT(a, b Expr, ctx Context) bool { return ProveGT(b, a, ctx) }

// IsPNNValue reports whether the value e (possibly a range) is provably
// positive-or-non-negative under ctx: for a range, its lower bound must be
// PNN (the paper's "PNN value or value range").
func IsPNNValue(e Expr, ctx Context) bool {
	lo, _ := Bounds(Simplify(e))
	return SignOf(lo, ctx).IsPNN()
}

// IsPositiveValue reports whether the value e (possibly a range) is
// provably strictly positive under ctx.
func IsPositiveValue(e Expr, ctx Context) bool {
	lo, _ := Bounds(Simplify(e))
	return SignOf(lo, ctx) == SignPositive
}

// IsNPPValue reports whether the value e (possibly a range) is provably
// negative-or-non-positive under ctx (the mirror of the paper's PNN,
// used by the decreasing-monotonicity extension): its upper bound must be
// non-positive.
func IsNPPValue(e Expr, ctx Context) bool {
	_, hi := Bounds(Simplify(e))
	s := SignOf(hi, ctx)
	return s == SignNegative || s == SignNonPositive || s == SignZero
}

// IsNegativeValue reports whether the value e is provably strictly
// negative under ctx.
func IsNegativeValue(e Expr, ctx Context) bool {
	_, hi := Bounds(Simplify(e))
	return SignOf(hi, ctx) == SignNegative
}
