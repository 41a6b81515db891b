// Package symbolic implements the symbolic expression algebra used by the
// subscripted-subscript array analysis: canonicalized integer expressions,
// symbolic value ranges [lb:ub], iteration markers (λ_v, Λ_v), expressions
// tagged with if-conditions, and the ⊥ (unknown) value.
//
// The algebra follows the representation described in Section 2.3 of the
// paper: a value may be a single expression, a range, a set of such values,
// or ⊥. Expressions are kept in a canonical linear form (sum of terms, each
// term an integer coefficient times a sorted product of atoms) so that
// structural equality doubles as semantic equality for the expression class
// the analysis manipulates.
package symbolic

import (
	"fmt"
	"strings"
)

// Expr is a symbolic integer (or boolean, for conditions) expression.
// Implementations are immutable; all transformations return new values.
type Expr interface {
	// Kind discriminates the concrete type without reflection.
	Kind() Kind
	// String renders the expression in the paper's notation.
	String() string
}

// Kind identifies the concrete type of an Expr.
type Kind int

// The expression kinds.
const (
	KInt Kind = iota
	KSym
	KLambda
	KBigLambda
	KAdd
	KMul
	KDiv
	KMod
	KMin
	KMax
	KArrayRef
	KCall
	KRange
	KTagged
	KSet
	KMono
	KBottom
	KCmp
	KAnd
	KOr
	KNot
	KBoolLit
)

// Int is an integer literal.
type Int struct{ Val int64 }

// Sym is a named symbol: a program variable or a loop-invariant symbolic
// constant such as a problem size.
type Sym struct{ Name string }

// Lambda is λ_name — the value of a variable at the beginning of the loop
// iteration currently being analyzed (Phase 1).
type Lambda struct{ Name string }

// BigLambda is Λ_name — the value of a variable at the beginning of the
// loop (Phase 2 aggregation).
type BigLambda struct{ Name string }

// Add is a sum of two or more terms. Canonical form keeps terms sorted and
// folds constants into at most one leading Int.
type Add struct{ Terms []Expr }

// Mul is a product. Canonical form: optional leading Int coefficient
// followed by sorted non-constant factors.
type Mul struct{ Factors []Expr }

// Div is truncated integer division (C semantics). Kept opaque except for
// exact constant folding.
type Div struct{ Num, Den Expr }

// Mod is the C remainder operation. Kept opaque except for constant folding.
type Mod struct{ Num, Den Expr }

// Min is the minimum of its operands.
type Min struct{ Args []Expr }

// Max is the maximum of its operands.
type Max struct{ Args []Expr }

// ArrayRef is a symbolic array access such as A_i[i+1]. It is an opaque
// atom to the simplifier; equality is structural.
type ArrayRef struct {
	Name    string
	Indices []Expr
}

// Call is a side-effect-free function call treated as an opaque atom.
type Call struct {
	Name string
	Args []Expr
}

// Range is the symbolic value range [Lo:Hi], inclusive on both ends.
type Range struct{ Lo, Hi Expr }

// Tagged is ⟨E⟩ tagged with the if-condition Cond under which E is
// assigned (Section 2.3). Cond is a boolean Expr.
type Tagged struct {
	Cond Expr
	E    Expr
}

// Set is a set of alternative values (used when more than one expression
// assigns values to an LVV). Order is canonical (sorted by String).
type Set struct{ Items []Expr }

// Mono is the paper's #MA / #SMA / #(SMA;DIM) annotation: Base takes the
// values described by Base in a monotonic way. Dim is the dimension index
// the monotonicity refers to (0 for one-dimensional arrays).
type Mono struct {
	Base   Expr
	Strict bool
	Dim    int
}

// Bottom is ⊥ — an unknown value or value range.
type Bottom struct{}

// CmpOp is a relational operator for conditions.
type CmpOp int

// Relational operators.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// Negate returns the complementary operator (e.g. < becomes >=).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	case OpGE:
		return OpLT
	}
	return op
}

// Cmp is a relational condition L op R.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// And is a logical conjunction.
type And struct{ Conds []Expr }

// Or is a logical disjunction.
type Or struct{ Conds []Expr }

// Not is logical negation.
type Not struct{ C Expr }

// BoolLit is a boolean literal condition.
type BoolLit struct{ Val bool }

func (Int) Kind() Kind       { return KInt }
func (Sym) Kind() Kind       { return KSym }
func (Lambda) Kind() Kind    { return KLambda }
func (BigLambda) Kind() Kind { return KBigLambda }
func (Add) Kind() Kind       { return KAdd }
func (Mul) Kind() Kind       { return KMul }
func (Div) Kind() Kind       { return KDiv }
func (Mod) Kind() Kind       { return KMod }
func (Min) Kind() Kind       { return KMin }
func (Max) Kind() Kind       { return KMax }
func (ArrayRef) Kind() Kind  { return KArrayRef }
func (Call) Kind() Kind      { return KCall }
func (Range) Kind() Kind     { return KRange }
func (Tagged) Kind() Kind    { return KTagged }
func (Set) Kind() Kind       { return KSet }
func (Mono) Kind() Kind      { return KMono }
func (Bottom) Kind() Kind    { return KBottom }
func (Cmp) Kind() Kind       { return KCmp }
func (And) Kind() Kind       { return KAnd }
func (Or) Kind() Kind        { return KOr }
func (Not) Kind() Kind       { return KNot }
func (BoolLit) Kind() Kind   { return KBoolLit }

func (e Int) String() string       { return fmt.Sprintf("%d", e.Val) }
func (e Sym) String() string       { return e.Name }
func (e Lambda) String() string    { return "λ_" + e.Name }
func (e BigLambda) String() string { return "Λ_" + e.Name }

func (e Add) String() string {
	var b strings.Builder
	for i, t := range e.Terms {
		s := t.String()
		if i > 0 && !strings.HasPrefix(s, "-") {
			b.WriteString("+")
		}
		b.WriteString(s)
	}
	return b.String()
}

func (e Mul) String() string {
	parts := make([]string, len(e.Factors))
	for i, f := range e.Factors {
		s := f.String()
		if f.Kind() == KAdd {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, "*")
}

func (e Div) String() string { return "(" + e.Num.String() + ")/(" + e.Den.String() + ")" }
func (e Mod) String() string { return "(" + e.Num.String() + ")%(" + e.Den.String() + ")" }

func (e Min) String() string { return "min(" + joinExprs(e.Args) + ")" }
func (e Max) String() string { return "max(" + joinExprs(e.Args) + ")" }

func (e ArrayRef) String() string {
	var b strings.Builder
	b.WriteString(e.Name)
	for _, ix := range e.Indices {
		b.WriteString("[")
		b.WriteString(ix.String())
		b.WriteString("]")
	}
	return b.String()
}

func (e Call) String() string { return e.Name + "(" + joinExprs(e.Args) + ")" }

func (e Range) String() string { return "[" + e.Lo.String() + ":" + e.Hi.String() + "]" }

func (e Tagged) String() string { return "⟨" + e.E.String() + "⟩" }

func (e Set) String() string { return "{" + joinExprs(e.Items) + "}" }

func (e Mono) String() string {
	tag := "MA"
	if e.Strict {
		tag = "SMA"
	}
	if e.Dim > 0 {
		return e.Base.String() + "#(" + tag + ";" + fmt.Sprint(e.Dim) + ")"
	}
	return e.Base.String() + "#" + tag
}

func (Bottom) String() string { return "⊥" }

func (e Cmp) String() string {
	return e.L.String() + e.Op.String() + e.R.String()
}

func (e And) String() string { return "(" + joinWith(e.Conds, " && ") + ")" }
func (e Or) String() string  { return "(" + joinWith(e.Conds, " || ") + ")" }
func (e Not) String() string { return "!(" + e.C.String() + ")" }
func (e BoolLit) String() string {
	if e.Val {
		return "true"
	}
	return "false"
}

func joinExprs(es []Expr) string { return joinWith(es, ", ") }

func joinWith(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}

// Convenience constructors.

// NewInt returns an integer literal.
func NewInt(v int64) Expr { return Int{Val: v} }

// NewSym returns a symbol.
func NewSym(name string) Expr { return Sym{Name: name} }

// NewLambda returns λ_name.
func NewLambda(name string) Expr { return Lambda{Name: name} }

// NewBigLambda returns Λ_name.
func NewBigLambda(name string) Expr { return BigLambda{Name: name} }

// Zero and One are shared literals.
var (
	Zero = NewInt(0)
	One  = NewInt(1)
)

// NewRange returns the simplified range [lo:hi]. A degenerate range whose
// bounds are equal simplifies to the bound itself.
func NewRange(lo, hi Expr) Expr {
	lo, hi = Simplify(lo), Simplify(hi)
	if Equal(lo, hi) {
		return lo
	}
	return Range{Lo: lo, Hi: hi}
}

// NewSet builds a canonical value set, flattening nested sets, dropping
// duplicates, and collapsing singletons. A set containing ⊥ is ⊥.
func NewSet(items ...Expr) Expr {
	if len(items) == 1 && items[0].Kind() != KSet {
		return items[0]
	}
	var flat []Expr
	for _, it := range items {
		flat = appendFlat(flat, it)
	}
	for _, it := range flat {
		if it.Kind() == KBottom {
			return Bottom{}
		}
	}
	uniq := uniqByString(flat)
	switch len(uniq) {
	case 0:
		return Bottom{}
	case 1:
		return uniq[0]
	}
	return Set{Items: uniq}
}

// appendFlat appends e to dst, or e's items when e is a set (recursively).
func appendFlat(dst []Expr, e Expr) []Expr {
	if s, ok := e.(Set); ok {
		for _, it := range s.Items {
			dst = appendFlat(dst, it)
		}
		return dst
	}
	return append(dst, e)
}

// Equal reports structural equality of two expressions after
// simplification. For the canonicalized expression class, structural
// equality coincides with semantic equality.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return CanonicalString(a) == CanonicalString(b)
}

// IsBottom reports whether e is ⊥.
func IsBottom(e Expr) bool { return e != nil && e.Kind() == KBottom }

// AsInt returns the integer value of e if it is a literal.
func AsInt(e Expr) (int64, bool) {
	if i, ok := e.(Int); ok {
		return i.Val, true
	}
	return 0, false
}

// Bounds returns the lower and upper bound expressions of a value: a Range
// yields its bounds, any other expression yields itself for both.
func Bounds(e Expr) (lo, hi Expr) {
	if r, ok := e.(Range); ok {
		return r.Lo, r.Hi
	}
	return e, e
}
