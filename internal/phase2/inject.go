package phase2

import (
	"sort"

	"repro/internal/cminus"
	"repro/internal/phase1"
	"repro/internal/property"
	"repro/internal/symbolic"
)

// This file implements the injectivity recognizer of the extended
// property lattice: it proves that a subscript-array fill stores
// pairwise-distinct values over a contiguous section, and — when the
// values additionally tile the section exactly — that the section is a
// permutation array. The facts it emits (KindInjective and
// KindPermutation) let the dependence test disprove output and anti
// dependences of a[p[i]] scatter writes even when the values are not
// monotonic (interleaved fills, shuffles).
//
// Recognizer obligations (everything is proven symbolically, with the
// loop assumed to execute N >= 1 iterations):
//
//  1. every write is one-dimensional and unconditional;
//  2. every subscript is α·i + β with a common integer stride α >= 1,
//     and the β offsets are consecutive integers with exactly α writes,
//     so the writes cover the section [β_min : α·(N-1)+β_max] with no
//     gaps (a gap would leave stale cells that may duplicate);
//  3. every value is γ_w·i + δ_w with an invariant, strictly-signed
//     slope γ_w (each write sequence is internally injective);
//  4. the value intervals of distinct writes are provably disjoint
//     (sequences never collide with each other).
//
// Permutation upgrade: |γ_w| = 1 for every write (each sequence emits
// consecutive integers) and the value intervals chain seamlessly from
// the section's lower to its upper index bound, i.e. they tile the
// section exactly.

// injectVerdict is the result of the injectivity recognizer.
type injectVerdict struct {
	// Perm marks the permutation upgrade (values tile the section).
	Perm bool
	// IndexLo and IndexHi bound the covered section.
	IndexLo, IndexHi symbolic.Expr
	// ValueRange over-approximates the stored values (nil if unknown).
	ValueRange symbolic.Expr
}

// fillSeq is the per-write decomposition used by the recognizer.
type fillSeq struct {
	// beta is the subscript offset (only resolved for multi-write fills).
	beta int64
	// vlo and vhi bound the values the write stores over i in [0:N-1].
	vlo, vhi symbolic.Expr
	// slopeOne marks |γ| == 1 (candidate for the permutation upgrade).
	slopeOne bool
}

// isInjectiveArray decides whether the writes to arr form an injective
// (or permutation) fill. mono/hasMono carry the monotonicity verdict for
// the same array: a strict monotone fact already implies injectivity, so
// an injective-only verdict is suppressed then (the permutation upgrade
// is still emitted — it is strictly stronger).
func (ag *aggregator) isInjectiveArray(arr string, writes []phase1.ArrayWrite, mono monoVerdict, hasMono bool) (injectVerdict, bool) {
	if len(writes) == 0 {
		return injectVerdict{}, false
	}
	iv := symbolic.NewSym(ag.ivar)
	last := symbolic.SubExpr(ag.n, symbolic.One)

	var alpha int64
	var betaE symbolic.Expr // single-write offset (may be symbolic)
	seqs := make([]fillSeq, 0, len(writes))
	for wi, w := range writes {
		if len(w.Indices) != 1 || symbolic.IsBottom(w.Value) {
			return injectVerdict{}, false
		}
		val, ok := unconditionalValue(arr, w.Value)
		if !ok {
			return injectVerdict{}, false
		}
		// Subscript: α·i + β with a common integer stride.
		aE, bE, ok := symbolic.LinearIn(w.Indices[0], iv)
		if !ok || !ag.isInvariant(aE) || !ag.isInvariant(bE) {
			return injectVerdict{}, false
		}
		a, isInt := symbolic.AsInt(aE)
		if !isInt || a < 1 {
			return injectVerdict{}, false
		}
		if wi == 0 {
			alpha = a
		} else if a != alpha {
			return injectVerdict{}, false
		}
		seq := fillSeq{}
		if len(writes) == 1 {
			betaE = bE
		} else {
			// Multi-write coverage needs concrete consecutive offsets.
			b, isInt := symbolic.AsInt(bE)
			if !isInt {
				return injectVerdict{}, false
			}
			seq.beta = b
		}
		// Value: γ·i + δ with a strictly-signed invariant slope.
		gE, dE, ok := symbolic.LinearIn(val, iv)
		if !ok || !ag.isInvariant(gE) || !ag.isInvariant(dE) {
			return injectVerdict{}, false
		}
		end := symbolic.Simplify(symbolic.AddExpr(dE, symbolic.MulExpr(gE, last)))
		switch symbolic.SignOf(gE, ag.ctx) {
		case symbolic.SignPositive:
			seq.vlo, seq.vhi = dE, end
		case symbolic.SignNegative:
			seq.vlo, seq.vhi = end, dE
		default:
			return injectVerdict{}, false
		}
		if g, isInt := symbolic.AsInt(gE); isInt && (g == 1 || g == -1) {
			seq.slopeOne = true
		}
		seqs = append(seqs, seq)
	}

	v := injectVerdict{}
	if len(writes) == 1 {
		// A single strided write with α > 1 leaves gaps between the
		// written cells; the stale cells in between could duplicate the
		// stored values, so only stride 1 covers a contiguous section.
		if alpha != 1 {
			return injectVerdict{}, false
		}
		v.IndexLo = betaE
		v.IndexHi = symbolic.Simplify(symbolic.AddExpr(betaE, last))
	} else {
		// Exactly α interleaved writes with consecutive offsets cover
		// [β_min : α·(N-1)+β_max] without gaps.
		if int64(len(writes)) != alpha {
			return injectVerdict{}, false
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i].beta < seqs[j].beta })
		for k := 1; k < len(seqs); k++ {
			if seqs[k].beta != seqs[0].beta+int64(k) {
				return injectVerdict{}, false
			}
		}
		v.IndexLo = symbolic.NewInt(seqs[0].beta)
		v.IndexHi = symbolic.Simplify(symbolic.AddExpr(
			symbolic.NewInt(seqs[len(seqs)-1].beta),
			symbolic.MulExpr(symbolic.NewInt(alpha), last)))
		// Pairwise disjoint value intervals across writes.
		for i := range seqs {
			for j := i + 1; j < len(seqs); j++ {
				if !symbolic.ProveLT(seqs[i].vhi, seqs[j].vlo, ag.ctx) &&
					!symbolic.ProveLT(seqs[j].vhi, seqs[i].vlo, ag.ctx) {
					return injectVerdict{}, false
				}
			}
		}
	}

	v.Perm = ag.tilesSection(seqs, v.IndexLo, v.IndexHi)
	if v.Perm {
		v.ValueRange = symbolic.NewRange(v.IndexLo, v.IndexHi)
	} else {
		v.ValueRange = ag.valueSpan(seqs)
	}
	// A strict monotone fact already implies injectivity; only the
	// strictly stronger permutation upgrade is worth a second fact then.
	if !v.Perm && hasMono && mono.Strict {
		return injectVerdict{}, false
	}
	return v, true
}

// tilesSection proves that the value intervals of the fill sequences
// chain seamlessly from lo to hi: each sequence emits consecutive
// integers (|γ| = 1) and some ordering of the intervals satisfies
// lo(σ_1) = lo, lo(σ_{k+1}) = hi(σ_k)+1, hi(σ_last) = hi. Together with
// the per-sequence consecutiveness this makes the stored values exactly
// {lo..hi} — a permutation of the section.
func (ag *aggregator) tilesSection(seqs []fillSeq, lo, hi symbolic.Expr) bool {
	for _, s := range seqs {
		if !s.slopeOne {
			return false
		}
	}
	used := make([]bool, len(seqs))
	next := symbolic.Simplify(lo)
	for range seqs {
		found := false
		for k, s := range seqs {
			if used[k] || !symbolic.Equal(symbolic.Simplify(s.vlo), next) {
				continue
			}
			used[k] = true
			next = symbolic.Simplify(symbolic.AddExpr(s.vhi, symbolic.One))
			found = true
			break
		}
		if !found {
			return false
		}
	}
	return symbolic.Equal(next, symbolic.Simplify(symbolic.AddExpr(hi, symbolic.One)))
}

// valueSpan over-approximates the union of the sequences' value
// intervals, or nil when the endpoints cannot be ordered symbolically.
func (ag *aggregator) valueSpan(seqs []fillSeq) symbolic.Expr {
	var lo, hi symbolic.Expr
	for i, s := range seqs {
		loOK, hiOK := true, true
		for j, o := range seqs {
			if i == j {
				continue
			}
			if !symbolic.ProveLE(s.vlo, o.vlo, ag.ctx) {
				loOK = false
			}
			if !symbolic.ProveGE(s.vhi, o.vhi, ag.ctx) {
				hiOK = false
			}
		}
		if loOK && lo == nil {
			lo = s.vlo
		}
		if hiOK && hi == nil {
			hi = s.vhi
		}
	}
	if lo == nil || hi == nil {
		return nil
	}
	return symbolic.NewRange(lo, hi)
}

// buildInjectProperty converts an injectivity verdict into a recorded
// property. The bounds reference loop-invariant symbols only, so the
// walker's Λ substitution passes them through unchanged.
func (ag *aggregator) buildInjectProperty(arr string, v injectVerdict, loopLabel string) *property.ArrayProperty {
	kind := property.KindInjective
	if v.Perm {
		kind = property.KindPermutation
	}
	return &property.ArrayProperty{
		Array:      arr,
		Kind:       kind,
		NumDims:    1,
		IndexLo:    v.IndexLo,
		IndexHi:    v.IndexHi,
		ValueRange: v.ValueRange,
		DefLoop:    loopLabel,
	}
}

// recognizeSwapLoop matches a loop body of exactly the three-statement
// transposition form
//
//	t = arr[e1]; arr[e1] = arr[e2]; arr[e2] = t;
//
// over a single array, with e1/e2 free of the temporary, of array reads
// and of calls (so both evaluate to the same element across the three
// statements). Returns the array and the two index expressions. The
// caller still has to prove that both indices stay inside a fact's
// section — only then does the swap permute the section's values, which
// preserves injectivity and permutation facts (and destroys monotone
// ones).
func recognizeSwapLoop(body *cminus.Block, ivar string) (arr string, e1, e2 cminus.Expr, ok bool) {
	var assigns []*cminus.AssignStmt
	for _, s := range body.Stmts {
		switch x := s.(type) {
		case *cminus.DeclStmt:
			// Normalization splits initializers out; the bare decl is inert.
		case *cminus.AssignStmt:
			if x.Op != "" {
				return "", nil, nil, false
			}
			assigns = append(assigns, x)
		default:
			return "", nil, nil, false
		}
	}
	if len(assigns) != 3 {
		return "", nil, nil, false
	}
	// s1: t = arr[e1]
	tID, isID := assigns[0].LHS.(*cminus.Ident)
	if !isID {
		return "", nil, nil, false
	}
	a1, idx1, ok1 := cminus.ArrayBase(assigns[0].RHS)
	if !ok1 || len(idx1) != 1 {
		return "", nil, nil, false
	}
	// s2: arr[e1] = arr[e2]
	a2l, idx2l, ok2l := cminus.ArrayBase(assigns[1].LHS)
	a2r, idx2r, ok2r := cminus.ArrayBase(assigns[1].RHS)
	if !ok2l || !ok2r || len(idx2l) != 1 || len(idx2r) != 1 {
		return "", nil, nil, false
	}
	// s3: arr[e2] = t
	a3, idx3, ok3 := cminus.ArrayBase(assigns[2].LHS)
	t3, isID3 := assigns[2].RHS.(*cminus.Ident)
	if !ok3 || len(idx3) != 1 || !isID3 || t3.Name != tID.Name {
		return "", nil, nil, false
	}
	if a1 != a2l || a1 != a2r || a1 != a3 {
		return "", nil, nil, false
	}
	if !sameCExpr(idx1[0], idx2l[0]) || !sameCExpr(idx2r[0], idx3[0]) {
		return "", nil, nil, false
	}
	// The indices must be stable across the three statements: no reads of
	// the temporary, the swapped array, any other array, or calls.
	for _, e := range []cminus.Expr{idx1[0], idx2r[0]} {
		se := convertCount(e)
		if symbolic.IsBottom(se) ||
			symbolic.ContainsKind(se, symbolic.KArrayRef) ||
			symbolic.ContainsKind(se, symbolic.KCall) ||
			symbolic.ContainsSym(se, tID.Name) {
			return "", nil, nil, false
		}
	}
	return a1, idx1[0], idx2r[0], true
}

// sameCExpr compares two mini-C expressions structurally (via the
// canonical printer).
func sameCExpr(a, b cminus.Expr) bool {
	return cminus.PrintExpr(a) == cminus.PrintExpr(b)
}
