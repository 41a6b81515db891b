// Package core is the high-level facade over the subscripted-subscript
// analysis pipeline: parse a mini-C program, run the recurrence analysis
// at a chosen capability level, obtain the array properties, the per-loop
// parallelization decisions, the OpenMP-annotated source, and an
// executable machine that honours the plan.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/cminus"
	"repro/internal/incr"
	"repro/internal/inline"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
	"repro/internal/property"
	"repro/internal/ranges"
	"repro/internal/sched"
	"repro/internal/symbolic"
	"repro/internal/trace"
)

// Level selects the analysis capability (re-exported from phase2).
type Level = phase2.Level

// Analysis capability levels.
const (
	// Classical runs only the classical dependence tests (no subscript
	// array analysis) — the paper's "Cetus" arm.
	Classical = phase2.LevelClassical
	// Base adds the prior approach of Bhosale & Eigenmann (ICS'21):
	// SSR + SRA — the "Cetus+BaseAlgo" arm.
	Base = phase2.LevelBase
	// New adds intermittent monotonicity and multi-dimensional
	// monotonicity — this paper's "Cetus+NewAlgo" arm.
	New = phase2.LevelNew
)

// Options configures an analysis.
type Options struct {
	// Level is the analysis capability (default New).
	Level Level
	// AssumePositive lists symbols (sizes, block widths) the analysis may
	// assume are >= 1.
	AssumePositive []string
	// Inline performs inline expansion before the analysis (the paper's
	// preprocessing step, so that filling loops and subscripted-subscript
	// loops share a subroutine).
	Inline bool
	// Workers bounds the analysis worker pool. Within one program, Pass 1
	// (per-function array analysis) and Pass 2 (per-nest dependence
	// planning) fan out over up to Workers goroutines; AnalyzeBatch
	// additionally fans out across sources. 0 or 1 analyzes serially.
	// Results are bit-identical for every worker count.
	Workers int
	// Ctx cancels the analysis: once done, the pipeline aborts at its
	// next budget checkpoint with an error wrapping budget.ErrCanceled.
	// Nil means non-cancellable.
	Ctx context.Context
	// Timeout bounds one program's analysis wall-clock time (a per-source
	// deadline layered over Ctx). 0 means no deadline.
	Timeout time.Duration
	// Budget bounds one program's analysis work in abstract steps
	// (statements, CFG nodes, proofs, expression nodes). Exhaustion
	// aborts with an error wrapping budget.ErrBudget. 0 means unlimited.
	//
	// Note: step charges in the symbolic layer depend on memo-cache
	// warmth, so *where* a tight budget trips may vary between runs —
	// but a budget abort always yields a typed error, never a divergent
	// result, and budget/cancellation errors are never cached.
	Budget int64
	// Trace, when non-nil, records pipeline spans (parse, inline, the
	// parallelizer's passes, per-function/per-nest analysis) into the
	// recorder; nil disables tracing with zero overhead on the analysis
	// hot paths. TraceParent is the span the pipeline's spans nest under
	// (0 for top level) — AnalyzeBatch sets it to a per-source span.
	Trace       *trace.Recorder
	TraceParent trace.SpanID
	// Incremental, when non-nil, enables function-granular reuse: the
	// (post-inline) program is split into content-addressed per-function
	// units and clean units replay their Pass-1 analyses and Pass-2 nest
	// plans from the store instead of recomputing. The result is
	// byte-identical to a cold run (the invariant tests pin this) —
	// modulo budget accounting: a warm run charges fewer steps, so a
	// budget tight enough to abort a cold run may pass warm. Budget and
	// cancellation errors are never cached, matching the caching
	// convention above. The cache is an *incr.Store, or an *incr.Tally
	// over one to count reuse per function; leave the field nil, not a
	// nil store, to disable reuse.
	Incremental parallelize.FuncCache
}

// Result is a completed analysis of one program.
type Result struct {
	// Plan is the full parallelization plan.
	Plan *parallelize.Plan
	// Source is the parsed input program.
	Source *cminus.Program
}

// Analyze parses src and runs the parallelizer at the configured level.
func Analyze(src string, opt Options) (*Result, error) {
	sp := opt.Trace.Start(opt.TraceParent, "parse")
	prog, err := cminus.Parse(src)
	opt.Trace.End(sp)
	if err != nil {
		return nil, err
	}
	return AnalyzeProgram(prog, opt)
}

// AnalyzeProgram analyzes an already-parsed program.
//
// The analysis runs under opt's budget and context: exhaustion returns an
// error wrapping budget.ErrBudget, cancellation one wrapping
// budget.ErrCanceled. A panic that escapes the per-function containment
// (i.e. one outside Pass 1/Pass 2 job bodies) is captured here and
// returned as a *budget.PanicError instead of crashing the caller;
// contained per-function crashes appear in Result.Plan.Diagnostics with
// partial results for the remaining functions.
func AnalyzeProgram(prog *cminus.Program, opt Options) (*Result, error) {
	ctx := opt.Ctx
	if opt.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	b := budget.New(ctx, opt.Budget)

	tr := opt.Trace
	asp := tr.Start(opt.TraceParent, "analyze")
	var statsBefore symbolic.CacheStats
	if tr.Enabled() {
		statsBefore = symbolic.ReadCacheStats()
	}
	var plan *parallelize.Plan
	err := budget.Guard(func() {
		// An already-canceled context aborts before any work: small
		// programs may finish in fewer charges than one poll interval.
		b.PollCtx()
		if opt.Inline {
			isp := tr.Start(asp, "inline")
			prog = inline.Expand(prog, 4)
			tr.End(isp)
		}
		dict := ranges.New()
		for _, sym := range opt.AssumePositive {
			dict.Set(sym, symbolic.One, nil)
		}
		// Unit keys are computed on the post-inline program: inlining
		// splices callee bodies (with program-global "_inl<n>" label
		// suffixes) into callers, and the keys must address what the
		// analysis actually sees.
		var reuse *parallelize.Reuse
		if opt.Incremental != nil {
			ksp := tr.Start(asp, "unitkeys")
			reuse = &parallelize.Reuse{
				Keys: incr.UnitKeys(prog,
					incr.OptionsDigest(opt.Level, opt.AssumePositive, opt.Inline)),
				Cache: opt.Incremental,
			}
			tr.End(ksp)
		}
		plan = parallelize.Run(prog, opt.Level, &parallelize.Options{
			Assume:      dict,
			Workers:     opt.Workers,
			Budget:      b,
			Trace:       tr,
			TraceParent: asp,
			Reuse:       reuse,
		})
	})
	if tr.Enabled() {
		// Cache counters are process-global, so concurrent analyses bleed
		// into each other's deltas — good enough for the aggregate trace
		// table, documented as an approximation.
		after := symbolic.ReadCacheStats()
		tr.AddCounter(asp, trace.CounterSimplified,
			(after.SimplifyMisses - statsBefore.SimplifyMisses))
		tr.AddCounter(asp, trace.CounterCacheHits,
			(after.SimplifyHits-statsBefore.SimplifyHits)+(after.CompareHits-statsBefore.CompareHits))
		tr.AddCounter(asp, trace.CounterCacheMisses,
			(after.SimplifyMisses-statsBefore.SimplifyMisses)+(after.CompareMisses-statsBefore.CompareMisses))
	}
	tr.End(asp)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: plan, Source: prog}, nil
}

// Source is one named program in a batch analysis.
type Source struct {
	// Name identifies the source in results (e.g. a file name).
	Name string
	// Src is the mini-C program text.
	Src string
	// Opt overrides the batch-level options for this source (per-source
	// assumptions, level, …). Nil uses the batch options. The batch
	// worker-pool size always comes from the batch options.
	Opt *Options
}

// BatchResult pairs one batch source with its analysis outcome.
type BatchResult struct {
	Name string
	Res  *Result
	Err  error
}

// AnalyzeBatch analyzes many programs in one invocation, fanning out over
// opt.Workers goroutines (0 or 1 = serial). Results are returned in input
// order; a source that fails to parse reports its error in its own slot
// without affecting the rest of the batch. Each analysis is independent
// and the shared symbolic caches are order-insensitive, so the results
// are bit-identical to analyzing each source serially.
func AnalyzeBatch(sources []Source, opt Options) []*BatchResult {
	out := make([]*BatchResult, len(sources))
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	tr := opt.Trace
	sched.ForTraced(len(sources), workers, tr, opt.TraceParent, func(i int, wsp trace.SpanID) {
		s := sources[i]
		o := opt
		if s.Opt != nil {
			o = *s.Opt
			o.Workers = opt.Workers
			// Resource bounds are batch-level unless the override narrows
			// them: a per-source Opt must not drop the caller's deadline
			// or budget.
			if o.Ctx == nil {
				o.Ctx = opt.Ctx
			}
			if o.Timeout == 0 {
				o.Timeout = opt.Timeout
			}
			if o.Budget == 0 {
				o.Budget = opt.Budget
			}
			// The unit store is process-level, shared by every source.
			if o.Incremental == nil {
				o.Incremental = opt.Incremental
			}
		}
		// Tracing is batch-level: each source's pipeline nests under its
		// own "source" span on the worker's lane.
		sp := tr.StartFunc(wsp, "source", s.Name)
		o.Trace = tr
		o.TraceParent = sp
		res, err := Analyze(s.Src, o)
		tr.End(sp)
		out[i] = &BatchResult{Name: s.Name, Res: res, Err: err}
	})
	return out
}

// Properties returns the subscript-array monotonicity facts the analysis
// established.
func (r *Result) Properties() []*property.ArrayProperty {
	var out []*property.ArrayProperty
	for _, arr := range r.Plan.Props.Arrays() {
		out = append(out, r.Plan.Props.Lookup(arr)...)
	}
	return out
}

// AnnotatedSource renders the normalized program with OpenMP pragmas on
// every loop the analysis parallelized.
func (r *Result) AnnotatedSource() string {
	return cminus.PrintAnnotated(r.Plan.Program(), r.Plan.LoopPragmas)
}

// Summary renders a human-readable report of properties and per-loop
// decisions.
func (r *Result) Summary() string { return r.Plan.Summary() }

// ParallelLoops returns the chosen loop labels per function.
func (r *Result) ParallelLoops() map[string][]string {
	out := map[string][]string{}
	for name, fp := range r.Plan.Funcs {
		if labels := fp.ChosenLabels(); len(labels) > 0 {
			out[name] = labels
		}
	}
	return out
}

// NewMachine builds an executor for the analyzed program that runs the
// chosen loops in parallel on the given number of workers.
func (r *Result) NewMachine(workers int) (*interp.Machine, error) {
	m, err := interp.New(r.Plan.Program())
	if err != nil {
		return nil, err
	}
	m.Plan = r.Plan
	if workers < 1 {
		workers = 1
	}
	m.Workers = workers
	return m, nil
}

// Verify runs fn twice — serially and with the plan's parallel loops on
// `workers` goroutines — and reports the largest divergence across the
// given output arrays. Array arguments are deep-copied per run; scalar
// arguments pass through. It is the executable soundness check for a
// plan.
func (r *Result) Verify(fn string, workers int, args []interp.Arg, outputs []string) (float64, error) {
	run := func(parallel bool) (map[string]*interp.Array, error) {
		m, err := r.NewMachine(1)
		if err != nil {
			return nil, err
		}
		if parallel {
			m.Workers = workers
		}
		copied := make([]interp.Arg, len(args))
		for i, a := range args {
			if arr, ok := a.(*interp.Array); ok {
				copied[i] = arr.Clone()
			} else {
				copied[i] = a
			}
		}
		if err := m.Call(fn, copied...); err != nil {
			return nil, err
		}
		// Name the observable end state: parameter arrays under their
		// parameter names (bindings are call-scoped, not left behind in
		// m.Arrays), then global arrays.
		named := map[string]*interp.Array{}
		if decl := m.Prog.Func(fn); decl != nil {
			for i, prm := range decl.Params {
				if i >= len(copied) {
					break
				}
				if arr, ok := copied[i].(*interp.Array); ok {
					named[prm.Name] = arr
				}
			}
		}
		for name, a := range m.Arrays {
			if _, ok := named[name]; !ok {
				named[name] = a
			}
		}
		return named, nil
	}
	serial, err := run(false)
	if err != nil {
		return 0, err
	}
	par, err := run(true)
	if err != nil {
		return 0, err
	}
	var worst float64
	for _, name := range outputs {
		a, okA := serial[name]
		b, okB := par[name]
		if !okA || !okB {
			return 0, fmt.Errorf("core: output array %q not found", name)
		}
		if d := interp.MaxAbsDiff(a, b); d > worst {
			worst = d
		}
	}
	return worst, nil
}
