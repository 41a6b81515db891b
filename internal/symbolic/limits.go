package symbolic

// Structural caps on the expressions the engine will canonicalize.
//
// Simplify recurses over its input, so an adversarially deep or enormous
// expression could overflow the Go stack (a fatal, unrecoverable
// condition) or burn unbounded time before any budget check runs. Every
// public entry that recurses (Simplify, CanonicalString, Intern) starts
// by rendering its input's memo key, and that render enforces the caps:
// it counts nodes and depth as it writes and stops at the first node past
// either cap (keyRender in cache.go), so its own recursion is bounded by
// maxExprDepth and there is no separate pre-walk. An input past the caps
// degrades to ⊥ ("unknown value", always sound for this analysis),
// whether or not the memo is enabled. The caps are purely structural
// properties of the input, so capped results are deterministic and
// cacheable: warm and cold caches yield bit-identical output, preserving
// the reproducibility invariant of the batch driver.

import "sync/atomic"

const (
	// maxExprDepth bounds expression nesting. The mini-C parser caps
	// source nesting far below this; the slack covers growth from
	// substitution and range composition.
	maxExprDepth = 512
	// maxExprNodes bounds total expression size. Products already cap at
	// 256 distributed terms (mulLin), so analysis-built expressions sit
	// orders of magnitude below this.
	maxExprNodes = 1 << 16
)

// capHits counts expressions degraded to ⊥ by the structural caps.
var capHits atomic.Int64

// Stepper receives coarse work charges from the symbolic layer; it is
// implemented by ranges.Dict (forwarding to the analysis budget) so sign
// proofs bill the budget without the symbolic package importing it.
type Stepper interface {
	Step(n int64)
}

// ProofCounter receives sign-query counts from the symbolic layer; it is
// implemented by ranges.Dict (forwarding to the pipeline trace recorder
// when one is attached), so traced analyses attribute proof work to
// their pipeline spans without the symbolic package importing the trace
// subsystem. Implementations must be allocation-free when tracing is
// disabled: SignOf invokes this on every query.
type ProofCounter interface {
	CountProofs(n int64)
}
