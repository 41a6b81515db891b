package depend

import "repro/internal/symbolic"

// Structured runtime guards.
//
// The RuntimeChecks on a Decision are scalar conditions rendered into
// the OpenMP if-clause (the paper's "-1+num_rownnz <= irownnz_max"
// pattern). A Guard is the complementary *array-shaped* obligation: the
// subscript-array property the decision relied on (monotonicity,
// injectivity, range monotonicity) restated as a scan of the array at
// region entry (internal/guard), falling back to the serial loop when
// the scan fails. The bytecode VM, the tree walker and the Go that
// internal/codegen emits all run the same scans, so a region whose
// subscript array breaks the proved fact runs serially on every engine
// rather than racing.

// GuardKind classifies a runtime array-verification obligation.
type GuardKind int

const (
	// GuardMonotone verifies idx[v] <= idx[v+1] (or < when Strict) over
	// the accessed section.
	GuardMonotone GuardKind = iota
	// GuardInjective verifies pairwise distinctness of the accessed
	// section's values (no monotonic order required).
	GuardInjective
	// GuardRangeMono verifies that consecutive blocks of a
	// multi-dimensional array hold strictly increasing value ranges:
	// max(block v) < min(block v+1) along the outermost dimension.
	GuardRangeMono
)

func (k GuardKind) String() string {
	switch k {
	case GuardMonotone:
		return "monotone"
	case GuardInjective:
		return "injective"
	case GuardRangeMono:
		return "range-monotone"
	}
	return "unknown"
}

// Guard is one runtime array-verification obligation attached to a
// positive decision. It applies to the subscript array named Array over
// the section the tested loop actually reads: with trip count n, a
// monotone guard checks pairs idx[v], idx[v+1] for v in [0, n-1), or
// [0, n) when Window is set (window subscripts also read idx[f(v)+1],
// extending the verified section by one element).
type Guard struct {
	Array string
	Kind  GuardKind
	// Strict requires strict inequality for GuardMonotone.
	Strict bool
	// Window marks the disjoint-window pattern (section extends to n+1
	// elements).
	Window bool
}

// String renders the guard for reports and tests.
func (g Guard) String() string {
	s := g.Array + " " + g.Kind.String()
	if g.Strict {
		s += " strict"
	}
	if g.Window {
		s += " window"
	}
	return s
}

// addGuard appends a guard to the decision unless an identical one is
// already recorded; insertion order follows the (deterministic) order
// of dependence-pair proofs, so decisions are byte-identical across
// worker counts.
func addGuard(d *Decision, g Guard) {
	for _, have := range d.Guards {
		if have == g {
			return
		}
	}
	d.Guards = append(d.Guards, g)
}

// identitySubscript reports whether g(v) is exactly v: the tested
// loop's index used directly as the subscript-array index. Guards are
// emitted only in this case — the verified section [0, n) then
// coincides with the accessed section, so a guard pass is sound and a
// guard failure is meaningful. Subscripts with offsets or strides would
// need a shifted scan; the analysis stays conservative and emits no
// guard for them (every engine then parallelizes without an entry scan,
// trusting the proof).
func identitySubscript(g symbolic.Expr, v string) bool {
	sym, ok := symbolic.Simplify(g).(symbolic.Sym)
	return ok && sym.Name == v
}
