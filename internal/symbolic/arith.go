package symbolic

// Arithmetic combinators used by the symbolic executor. They distribute
// over value Sets and Tagged expressions so that a statement like
// m = m + 1 applied to the value {λ_m, ⟨1+λ_m⟩} yields {1+λ_m, ⟨2+λ_m⟩}.

const maxSetSize = 16

// AddExpr returns the simplified sum of operands, distributing over sets
// and tagged values.
func AddExpr(a, b Expr) Expr { return lift2(a, b, opAdd) }

// SubExpr returns the simplified difference a-b.
func SubExpr(a, b Expr) Expr { return lift2(a, b, opSub) }

// MulExpr returns the simplified product, distributing over sets and
// tagged values.
func MulExpr(a, b Expr) Expr { return lift2(a, b, opMul) }

// DivExpr returns the simplified quotient (C truncating division).
func DivExpr(a, b Expr) Expr { return lift2(a, b, opDiv) }

// ModExpr returns the simplified remainder.
func ModExpr(a, b Expr) Expr { return lift2(a, b, opMod) }

// NegExpr returns -a.
func NegExpr(a Expr) Expr { return MulExpr(minusOne, a) }

// arithOp is a binary combinator. Its value is the key tag of the tree
// it simplifies (arithTree), except that a difference builds a sum.
type arithOp byte

const (
	opAdd arithOp = '+'
	opSub arithOp = '-'
	opMul arithOp = '*'
	opDiv arithOp = '/'
	opMod arithOp = '%'
)

// minusOne is the coefficient a difference negates its subtrahend with.
var minusOne = NewInt(-1)

// arithTree builds the expression op combines a and b into.
func arithTree(op arithOp, a, b Expr) Expr {
	switch op {
	case opAdd:
		return Add{Terms: []Expr{a, b}}
	case opSub:
		return Add{Terms: []Expr{a, Mul{Factors: []Expr{minusOne, b}}}}
	case opMul:
		return Mul{Factors: []Expr{a, b}}
	case opDiv:
		return Div{Num: a, Den: b}
	}
	return Mod{Num: a, Den: b}
}

// rawArith returns Simplify(arithTree(op, a, b)). It renders the tree's
// memo key straight from the operands and builds the tree only when the
// memo misses, so a hit allocates nothing.
func rawArith(op arithOp, a, b Expr) Expr {
	r := newKeyRender()
	defer keyRenders.Put(r)
	r.arith(op, a, b)
	if v, ok := r.probe(); ok {
		return v
	}
	return r.fill(arithTree(op, a, b))
}

// arith renders the key of arithTree(op, a, b), with the tree's root at
// depth 1, without building it.
func (r *keyRender) arith(op arithOp, a, b Expr) {
	if !r.enter(1) {
		return
	}
	switch op {
	case opDiv, opMod:
		r.pair(byte(op), a, b, 2)
	case opSub:
		r.head('+', 2)
		r.expr(a, 2)
		if r.enter(2) {
			r.head('*', 2)
			r.expr(minusOne, 3)
			r.expr(b, 3)
			r.b = append(r.b, ';')
		}
		r.b = append(r.b, ';')
	default:
		r.head(byte(op), 2)
		r.expr(a, 2)
		r.expr(b, 2)
		r.b = append(r.b, ';')
	}
}

// lift2 applies op to all combinations of the alternatives of a and b,
// preserving tags. If both operands are tagged, the tags are merged with a
// conjunction; if the resulting set grows beyond maxSetSize the value
// degrades to ⊥ (conservative).
func lift2(a, b Expr, op arithOp) Expr {
	if a == nil || b == nil || IsBottom(a) || IsBottom(b) {
		return Bottom{}
	}
	if isPlain(a) && isPlain(b) {
		// One untagged alternative each: no combinations to enumerate
		// and no tags to merge.
		res := rawArith(op, a, b)
		if IsBottom(res) {
			return Bottom{}
		}
		if res.Kind() == KSet {
			return NewSet(res)
		}
		return res
	}
	as := alternatives(a)
	bs := alternatives(b)
	if len(as)*len(bs) > maxSetSize {
		return Bottom{}
	}
	var out []Expr
	for _, x := range as {
		for _, y := range bs {
			xc, xe := splitTag(x)
			yc, ye := splitTag(y)
			res := rawArith(op, xe, ye)
			if IsBottom(res) {
				return Bottom{}
			}
			cond := mergeTags(xc, yc)
			if cond != nil {
				res = Tagged{Cond: cond, E: res}
			}
			out = append(out, res)
		}
	}
	return NewSet(out...)
}

// isPlain reports whether e is a single untagged value: neither a Set of
// alternatives nor a Tagged one.
func isPlain(e Expr) bool {
	switch e.(type) {
	case Set, Tagged:
		return false
	}
	return true
}

func alternatives(e Expr) []Expr {
	if s, ok := e.(Set); ok {
		return s.Items
	}
	return []Expr{e}
}

func splitTag(e Expr) (cond Expr, inner Expr) {
	if t, ok := e.(Tagged); ok {
		return t.Cond, t.E
	}
	return nil, e
}

func mergeTags(a, b Expr) Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case Equal(a, b):
		return a
	default:
		return Simplify(And{Conds: []Expr{a, b}})
	}
}

// UnionValues computes the conservative union of two values at a
// control-flow merge point (may semantics): identical values stay, distinct
// values form a set.
func UnionValues(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if IsBottom(a) || IsBottom(b) {
		return Bottom{}
	}
	items := append(alternatives(a), alternatives(b)...)
	if len(items) > maxSetSize {
		return Bottom{}
	}
	return NewSet(items...)
}

// StripTags removes all condition tags, returning the underlying value(s).
func StripTags(e Expr) Expr {
	if e == nil {
		return Bottom{}
	}
	switch x := e.(type) {
	case Tagged:
		return StripTags(x.E)
	case Set:
		items := make([]Expr, len(x.Items))
		for i, it := range x.Items {
			items[i] = StripTags(it)
		}
		return NewSet(items...)
	}
	return e
}

// TaggedParts returns the tagged alternatives of a value (Section 2.5,
// Algorithm 1 lines 9-10: when a value mixes tagged and untagged
// sub-expressions, only the tagged ones are analyzed).
func TaggedParts(e Expr) []Tagged {
	var out []Tagged
	for _, alt := range alternatives(e) {
		if t, ok := alt.(Tagged); ok {
			out = append(out, t)
		}
	}
	return out
}

// RangeUnion returns the smallest range covering both values, treating a
// non-range value as the degenerate range [v:v]. Bounds that cannot be
// compared symbolically fall back to Min/Max expressions.
func RangeUnion(a, b Expr) Expr {
	if IsBottom(a) || IsBottom(b) {
		return Bottom{}
	}
	alo, ahi := Bounds(a)
	blo, bhi := Bounds(b)
	lo := Simplify(Min{Args: []Expr{alo, blo}})
	hi := Simplify(Max{Args: []Expr{ahi, bhi}})
	return NewRange(lo, hi)
}
