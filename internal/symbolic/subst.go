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

// CoefficientOf decomposes a simplified scalar expression e as
// coef*sym + rest and returns (coef, rest, true) when e is linear in sym
// (sym does not occur inside rest or any opaque atom). It returns ok=false
// otherwise.
func CoefficientOf(e Expr, sym string) (coef int64, rest Expr, ok bool) {
	e = Simplify(e)
	v := nf(e)
	if v.invalid || v.isRange {
		return 0, nil, false
	}
	// v.lo is key-sorted, so the terms kept in order stay sorted.
	var restSum linsum
	for _, t := range v.lo {
		hasSym := false
		for _, a := range t.atoms {
			if s, isSym := a.(Sym); isSym && s.Name == sym {
				hasSym = true
			} else if ContainsSym(a, sym) {
				// sym hidden inside an opaque atom: not linear.
				return 0, nil, false
			}
		}
		if !hasSym {
			restSum = append(restSum, t)
			continue
		}
		if len(t.atoms) != 1 {
			return 0, nil, false
		}
		coef += t.coef
	}
	return coef, emitLin(restSum), true
}
