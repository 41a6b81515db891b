package symbolic

// Subst maps variable-like atoms to replacement expressions. Keys use the
// rendered form of the atom: a plain symbol name for Sym, "λ_x" for
// Lambda{x}, "Λ_x" for BigLambda{x}.
type Subst map[string]Expr

// SymKey returns the substitution key for a plain symbol.
func SymKey(name string) string { return name }

// LambdaKey returns the substitution key for λ_name.
func LambdaKey(name string) string { return "λ_" + name }

// BigLambdaKey returns the substitution key for Λ_name.
func BigLambdaKey(name string) string { return "Λ_" + name }

// Substitute replaces every atom present in s and simplifies the result.
func Substitute(e Expr, s Subst) Expr {
	if e == nil {
		return Bottom{}
	}
	return Simplify(substitute(e, s))
}

func substitute(e Expr, s Subst) Expr {
	switch x := e.(type) {
	case Int, Bottom, BoolLit:
		return e
	case Sym:
		if r, ok := s[x.Name]; ok {
			return r
		}
		return e
	case Lambda:
		if r, ok := s[LambdaKey(x.Name)]; ok {
			return r
		}
		return e
	case BigLambda:
		if r, ok := s[BigLambdaKey(x.Name)]; ok {
			return r
		}
		return e
	case Add:
		return Add{Terms: substituteAll(x.Terms, s)}
	case Mul:
		return Mul{Factors: substituteAll(x.Factors, s)}
	case Div:
		return Div{Num: substitute(x.Num, s), Den: substitute(x.Den, s)}
	case Mod:
		return Mod{Num: substitute(x.Num, s), Den: substitute(x.Den, s)}
	case Min:
		return Min{Args: substituteAll(x.Args, s)}
	case Max:
		return Max{Args: substituteAll(x.Args, s)}
	case ArrayRef:
		return ArrayRef{Name: x.Name, Indices: substituteAll(x.Indices, s)}
	case Call:
		return Call{Name: x.Name, Args: substituteAll(x.Args, s)}
	case Range:
		return Range{Lo: substitute(x.Lo, s), Hi: substitute(x.Hi, s)}
	case Tagged:
		return Tagged{Cond: substitute(x.Cond, s), E: substitute(x.E, s)}
	case Set:
		return Set{Items: substituteAll(x.Items, s)}
	case Mono:
		return Mono{Base: substitute(x.Base, s), Strict: x.Strict, Dim: x.Dim}
	case Cmp:
		return Cmp{Op: x.Op, L: substitute(x.L, s), R: substitute(x.R, s)}
	case And:
		return And{Conds: substituteAll(x.Conds, s)}
	case Or:
		return Or{Conds: substituteAll(x.Conds, s)}
	case Not:
		return Not{C: substitute(x.C, s)}
	}
	return e
}

func substituteAll(es []Expr, s Subst) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = substitute(e, s)
	}
	return out
}

// Walk visits e and every sub-expression in depth-first order. If fn
// returns false the walk does not descend into the current node.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case Add:
		walkAll(x.Terms, fn)
	case Mul:
		walkAll(x.Factors, fn)
	case Div:
		Walk(x.Num, fn)
		Walk(x.Den, fn)
	case Mod:
		Walk(x.Num, fn)
		Walk(x.Den, fn)
	case Min:
		walkAll(x.Args, fn)
	case Max:
		walkAll(x.Args, fn)
	case ArrayRef:
		walkAll(x.Indices, fn)
	case Call:
		walkAll(x.Args, fn)
	case Range:
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case Tagged:
		Walk(x.Cond, fn)
		Walk(x.E, fn)
	case Set:
		walkAll(x.Items, fn)
	case Mono:
		Walk(x.Base, fn)
	case Cmp:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case And:
		walkAll(x.Conds, fn)
	case Or:
		walkAll(x.Conds, fn)
	case Not:
		Walk(x.C, fn)
	}
}

func walkAll(es []Expr, fn func(Expr) bool) {
	for _, e := range es {
		Walk(e, fn)
	}
}

// ContainsSym reports whether the plain symbol name occurs in e.
func ContainsSym(e Expr, name string) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if found {
			return false
		}
		if s, ok := x.(Sym); ok && s.Name == name {
			found = true
			return false
		}
		return true
	})
	return found
}

// ContainsLambda reports whether any λ marker occurs in e (any name if
// name is empty, otherwise that specific variable's λ).
func ContainsLambda(e Expr, name string) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if found {
			return false
		}
		if l, ok := x.(Lambda); ok && (name == "" || l.Name == name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// ContainsKind reports whether any sub-expression of e has kind k.
func ContainsKind(e Expr, k Kind) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if found {
			return false
		}
		if x.Kind() == k {
			found = true
			return false
		}
		return true
	})
	return found
}

// LinearIn decomposes e as alpha*x + rest, with x a Sym or a Lambda and
// neither alpha nor rest containing x. It reads the canonical sum of e
// once: a term without x goes to rest, and a term with x as exactly one
// of its factors gives its other factors to alpha. ok is false when x
// occurs anywhere else (a second factor x, or inside an array reference,
// call, division, remainder, min, max, tag, set or annotation), and when
// e is a range or ⊥. When e does not contain x, alpha is 0 and rest is e.
// Both results are canonical.
func LinearIn(e, x Expr) (alpha, rest Expr, ok bool) {
	switch x.(type) {
	case Sym, Lambda:
	default:
		return nil, nil, false
	}
	e = Simplify(e)
	switch e.Kind() {
	case KBottom, KRange:
		return nil, nil, false
	}
	terms := []Expr{e}
	if s, isSum := e.(Add); isSum {
		terms = s.Terms
	}
	// The terms without x are collected from the first term with x on;
	// until then rest is e itself.
	var restTerms, coefs []Expr
	for k, t := range terms {
		c, hasX, linear := splitFactor(t, x)
		switch {
		case !linear:
			return nil, nil, false
		case hasX:
			if coefs == nil {
				restTerms = append(restTerms, terms[:k]...)
			}
			coefs = append(coefs, c)
		case coefs != nil:
			restTerms = append(restTerms, t)
		}
	}
	switch len(coefs) {
	case 0:
		return Zero, e, true
	case 1:
		// The other factors of one canonical term are canonical.
		alpha = coefs[0]
	default:
		alpha = Simplify(Add{Terms: coefs})
	}
	// A sub-sum of a canonical sum keeps its order, so it is canonical.
	switch len(restTerms) {
	case 0:
		rest = Zero
	case 1:
		rest = restTerms[0]
	default:
		rest = Add{Terms: restTerms}
	}
	return alpha, rest, true
}

// splitFactor splits one term t of a canonical sum around x: hasX
// reports whether x is one of t's factors, and c is the product of the
// others. linear is false when x occurs in t other than as exactly one
// factor. x is a Sym or a Lambda, so comparing with == cannot panic.
func splitFactor(t, x Expr) (c Expr, hasX, linear bool) {
	if t == x {
		return One, true, true
	}
	m, isMul := t.(Mul)
	if !isMul {
		return nil, false, !occurs(t, x)
	}
	at := -1
	for i, f := range m.Factors {
		switch {
		case f == x && at < 0:
			at = i
		case occurs(f, x):
			return nil, false, false
		}
	}
	switch {
	case at < 0:
		return nil, false, true
	case len(m.Factors) == 2:
		return m.Factors[1-at], true, true
	}
	others := make([]Expr, 0, len(m.Factors)-1)
	others = append(others, m.Factors[:at]...)
	return Mul{Factors: append(others, m.Factors[at+1:]...)}, true, true
}

// occurs reports whether the atom x (a Sym or a Lambda) occurs in e.
func occurs(e, x Expr) bool {
	if isLeaf(e) {
		return e == x
	}
	found := false
	Walk(e, func(n Expr) bool {
		found = found || n == x
		return !found
	})
	return found
}
