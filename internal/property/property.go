// Package property records the subscript-array facts determined by the
// Phase-2 aggregation, organized as a small lattice:
//
//	Permutation ⇒ Injective      (a bijection of its section is injective)
//	SMA (strict) ⇒ Injective     (strictly monotonic values never repeat)
//	SMA ⇒ MA, Permutation ⇒ range-bounded values
//
// The monotonicity kinds (SRA, intermittent — Definition 1/LEMMA 1 — and
// multi-dimensional — Definition 2/LEMMA 2) come straight from the paper.
// KindInjective and KindPermutation extend the lattice beyond
// monotonicity: they certify that a subscript array never maps two
// section indices to the same element even when its values are not
// ordered (shuffled permutations, interleaved fills). The extended
// data-dependence test consumes monotone facts to disprove dependences in
// window/stride patterns and injectivity facts to disprove output and
// anti dependences in a[p[i]] scatter writes.
package property

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/symbolic"
)

// Kind distinguishes how the monotonic section was established.
type Kind int

// Property kinds.
const (
	// KindSRA is a regular (contiguous-iteration) monotonic assignment.
	KindSRA Kind = iota
	// KindIntermittent is an intermittent monotonic sequence (LEMMA 1).
	KindIntermittent
	// KindMultiDim is a monotonic multi-dimensional array (LEMMA 2).
	KindMultiDim
	// KindInjective is an injectivity fact without a monotonicity claim:
	// the array maps distinct indices of its section to distinct
	// elements (established directly by the Phase-2 injectivity
	// recognizer, e.g. for interleaved fills or after value shuffles).
	KindInjective
	// KindPermutation strengthens KindInjective: the section's values
	// are exactly the integers of ValueRange with no gaps, i.e. the
	// section is a permutation array. It additionally bounds the range,
	// so p[i] != p[j] holds even for non-monotonic shuffles and the
	// written-through region is exactly the value interval.
	KindPermutation
)

func (k Kind) String() string {
	switch k {
	case KindSRA:
		return "SRA"
	case KindIntermittent:
		return "intermittent"
	case KindMultiDim:
		return "multi-dim"
	case KindInjective:
		return "injective"
	case KindPermutation:
		return "permutation"
	}
	return "?"
}

// Monotone reports whether the kind carries a monotonicity claim
// (consumers that reason about ordered sections — window disjointness,
// multi-dimensional strides — must only accept monotone kinds).
func (k Kind) Monotone() bool {
	switch k {
	case KindSRA, KindIntermittent, KindMultiDim:
		return true
	}
	return false
}

// ArrayProperty is one monotonicity fact about a subscript array.
type ArrayProperty struct {
	// Array is the subscript array's name.
	Array string
	// Kind tells how the property was derived.
	Kind Kind
	// Strict marks strict monotonicity (injectivity over the section).
	Strict bool
	// Decreasing marks monotonically decreasing sections (an extension
	// beyond the paper's PNN recurrences; strictly decreasing sections
	// are injective too).
	Decreasing bool
	// Dim is the dimension w.r.t. which a multi-dimensional array is
	// monotonic (0 for one-dimensional arrays).
	Dim int
	// NumDims is the array's dimensionality at the write site.
	NumDims int
	// IndexLo is the lower bound of the monotonic index section.
	IndexLo symbolic.Expr
	// IndexHi is the upper bound. For intermittent sequences this is the
	// run-time value Counter_max, rendered as the symbol "<counter>_max".
	IndexHi symbolic.Expr
	// Counter names the element counter for intermittent sequences.
	Counter string
	// CounterFinal is the aggregated range of the counter after the loop.
	CounterFinal symbolic.Expr
	// ValueRange is the aggregated range of values stored in the section.
	ValueRange symbolic.Expr
	// DefLoop is the label of the filling loop.
	DefLoop string
	// DefFunc is the function containing the filling loop.
	DefFunc string
}

// String renders the property in the paper's aggregate notation, e.g.
// A_rownnz[0:irownnz_max] = [0:num_rows-1]#SMA, extended with #INJ and
// #PERM tags for the non-monotonic lattice levels.
func (p *ArrayProperty) String() string {
	tag := "MA"
	if p.Strict {
		tag = "SMA"
	}
	switch p.Kind {
	case KindInjective:
		tag = "INJ"
	case KindPermutation:
		tag = "PERM"
	}
	if p.Decreasing {
		tag += ",dec"
	}
	dims := ""
	if p.NumDims > 1 {
		tag = fmt.Sprintf("(%s;%d)", tag, p.Dim)
		for i := 0; i < p.NumDims-1; i++ {
			dims += "[*]"
		}
	}
	lo, hi := "?", "?"
	if p.IndexLo != nil {
		lo = p.IndexLo.String()
	}
	if p.IndexHi != nil {
		hi = p.IndexHi.String()
	}
	val := "⊥"
	if p.ValueRange != nil {
		val = p.ValueRange.String()
	}
	return fmt.Sprintf("%s[%s:%s]%s = %s#%s", p.Array, lo, hi, dims, val, tag)
}

// Injective reports whether the property implies injectivity of the
// array over its section: direct injectivity/permutation facts do, and
// so does strict monotonicity (values that strictly grow or shrink never
// repeat).
func (p *ArrayProperty) Injective() bool {
	return p.Strict || p.Kind == KindInjective || p.Kind == KindPermutation
}

// Permutation reports whether the property certifies the section as a
// permutation array (injective AND onto its value interval).
func (p *ArrayProperty) Permutation() bool { return p.Kind == KindPermutation }

// Monotone reports whether the property carries a monotonicity claim.
func (p *ArrayProperty) Monotone() bool { return p.Kind.Monotone() }

// Rank orders facts by strength within the lattice: permutation facts
// dominate (injective + bounded range), then strictly monotonic ones
// (injective + ordered), then plain injectivity, then non-strict
// monotonicity. Used by the Best* selectors.
func (p *ArrayProperty) Rank() int {
	switch {
	case p.Kind == KindPermutation:
		return 4
	case p.Strict:
		return 3
	case p.Kind == KindInjective:
		return 2
	}
	return 1
}

// DB collects the properties discovered for a program.
type DB struct {
	byArray map[string][]*ArrayProperty
}

// NewDB returns an empty property database.
func NewDB() *DB { return &DB{byArray: map[string][]*ArrayProperty{}} }

// Add records a property.
func (db *DB) Add(p *ArrayProperty) { db.byArray[p.Array] = append(db.byArray[p.Array], p) }

// Lookup returns the properties known for an array.
func (db *DB) Lookup(array string) []*ArrayProperty { return db.byArray[array] }

// Invalidate drops every fact recorded for an array. The Phase-2 walker
// calls this when straight-line code or a later loop overwrites the
// array in a way that does not provably preserve its facts — keeping a
// stale fact past an overwrite would let the dependence test justify an
// invalid parallelization.
func (db *DB) Invalidate(array string) { delete(db.byArray, array) }

// Replace substitutes the facts of an array with a new list (used by the
// walker when a later loop transforms the facts, e.g. a swap loop that
// preserves injectivity but destroys monotonicity).
func (db *DB) Replace(array string, props []*ArrayProperty) {
	if len(props) == 0 {
		db.Invalidate(array)
		return
	}
	db.byArray[array] = props
}

// BestInjective returns the strongest property that implies injectivity
// of the array's section, or nil. Consumers disproving output/anti
// dependences of a[p[i]] scatter writes must use this selector.
func (db *DB) BestInjective(array string) *ArrayProperty {
	var best *ArrayProperty
	for _, p := range db.byArray[array] {
		if !p.Injective() {
			continue
		}
		if best == nil || p.Rank() > best.Rank() {
			best = p
		}
	}
	return best
}

// BestMonotone returns the strongest property that carries a
// monotonicity claim, or nil. Consumers that reason about ordered
// sections (window disjointness, multi-dimensional strides) must use
// this selector: an injectivity-only fact says nothing about order.
func (db *DB) BestMonotone(array string) *ArrayProperty {
	var best *ArrayProperty
	for _, p := range db.byArray[array] {
		if !p.Monotone() {
			continue
		}
		if best == nil || p.Rank() > best.Rank() {
			best = p
		}
	}
	return best
}

// Arrays lists all array names with recorded properties, sorted.
func (db *DB) Arrays() []string {
	out := make([]string, 0, len(db.byArray))
	for a := range db.byArray {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String renders the whole database.
func (db *DB) String() string {
	var b strings.Builder
	for _, a := range db.Arrays() {
		for _, p := range db.byArray[a] {
			b.WriteString(p.String())
			b.WriteString("\n")
		}
	}
	return b.String()
}
