// Package parallelize is the top-level automatic parallelizer driver (the
// role Cetus plays in the paper): it runs the subscript-array analysis at
// a chosen capability level over every function, dependence-tests each
// loop nest outermost-first, selects the outermost parallelizable loop of
// every nest, and renders an OpenMP-style pragma for each chosen loop
// (including run-time checks as if-clauses, and private/reduction lists).
package parallelize

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/budget"
	"repro/internal/cminus"
	"repro/internal/depend"
	"repro/internal/phase2"
	"repro/internal/property"
	"repro/internal/ranges"
	"repro/internal/sched"
	"repro/internal/trace"
)

// LoopPlan is the parallelization decision for one loop.
type LoopPlan struct {
	Label    string
	Decision *depend.Decision
	// Chosen marks loops actually parallelized (the outermost
	// parallelizable loop of each nest).
	Chosen bool
	// Depth is the loop's nesting depth within its function (1 = outermost).
	Depth int
	// Work is a chosen loop's work estimate, or nil when it is unknown.
	// Engines read it through Declines.
	Work *Work
}

// Checks returns the decision's runtime checks as mini-C expressions,
// the conditions an engine evaluates at region entry (the pragma's
// if-clause). Phase 2 names the run-time value of a counter c as
// "c_max" (property.Property.IndexHi). bound reports whether a name is
// a scalar in the calling engine's scope. A "c_max" that is unbound
// while c is bound reads c. The alias holds only inside checks, so an
// engine's ordinary name lookup does not apply it.
func (lp *LoopPlan) Checks(bound func(name string) bool) ([]cminus.Expr, error) {
	out := make([]cminus.Expr, 0, len(lp.Decision.RuntimeChecks))
	for _, chk := range lp.Decision.RuntimeChecks {
		cond := chk.String()
		prog, err := cminus.Parse("void __c(void) { int __r; __r = (" + cond + "); }")
		if err != nil {
			return nil, fmt.Errorf("bad runtime check %q: %v", cond, err)
		}
		as, ok := prog.Funcs[0].Body.Stmts[1].(*cminus.AssignStmt)
		if !ok {
			return nil, fmt.Errorf("bad runtime check %q", cond)
		}
		cminus.WalkExprs(as.RHS, func(x cminus.Expr) bool {
			if id, ok := x.(*cminus.Ident); ok && !bound(id.Name) {
				if base, ok := strings.CutSuffix(id.Name, "_max"); ok && base != "" && bound(base) {
					id.Name = base
				}
			}
			return true
		})
		out = append(out, as.RHS)
	}
	return out, nil
}

// Canonical returns the index variable and the trip-count expression
// of a plan-chosen loop, which normalization leaves in the form
// "ivar = ...; ivar < n; ...": its parallel region runs iterations
// [0, n).
func Canonical(loop *cminus.ForStmt) (ivar string, n cminus.Expr, err error) {
	switch x := loop.Init.(type) {
	case *cminus.AssignStmt:
		if id, ok := x.LHS.(*cminus.Ident); ok {
			ivar = id.Name
		}
	case *cminus.DeclStmt:
		if len(x.Items) == 1 && x.Items[0].Init != nil {
			ivar = x.Items[0].Name
		}
	}
	if ivar == "" {
		return "", nil, fmt.Errorf("parallel loop %s has non-canonical init", loop.Label)
	}
	cond, ok := loop.Cond.(*cminus.BinaryExpr)
	if !ok || cond.Op != "<" {
		return "", nil, fmt.Errorf("parallel loop %s has non-canonical condition", loop.Label)
	}
	return ivar, cond.Y, nil
}

// FuncPlan is the plan for one function.
type FuncPlan struct {
	Name string
	// Analysis is the Phase-1/2 result at the configured level (nil when
	// Pass 1 crashed); its normalized body is the function's code in
	// Plan.Program.
	Analysis *phase2.FuncAnalysis
	// Loops maps loop labels to decisions. Neither the map nor a plan in
	// it changes after Pass 2, so the unit store shares them across runs.
	Loops map[string]*LoopPlan
	// Pragmas maps the label of each chosen loop to its OpenMP directive.
	Pragmas map[string]string
}

// Diagnostic records a contained per-function or per-nest analysis crash:
// the analysis of that unit was abandoned (it degrades to "no properties,
// keep serial"), but the rest of the program's results stand.
type Diagnostic struct {
	// Func is the function whose analysis crashed.
	Func string
	// Stage is "analyze" (Pass 1, array analysis) or "plan" (Pass 2,
	// dependence testing).
	Stage string
	// Loop is the nest label for Stage "plan" (empty for "analyze").
	Loop string
	// Err is the captured *budget.PanicError.
	Err error
}

// Message renders the diagnostic deterministically (no stack traces, so
// wire encodings of identical failures stay byte-identical).
func (d Diagnostic) Message() string {
	where := d.Func
	if d.Loop != "" {
		where += "/" + d.Loop
	}
	return fmt.Sprintf("%s %s: %v", d.Stage, where, d.Err)
}

// Plan is a whole-program parallelization plan.
type Plan struct {
	Level phase2.Level
	// Props is the merged property database across all functions.
	Props *property.DB
	Funcs map[string]*FuncPlan
	// Diagnostics lists contained analysis crashes, sorted by function,
	// stage and loop. Empty on a clean run.
	Diagnostics []Diagnostic
	// Incr counts this run's unit-cache hits and misses (zero when
	// Options.Reuse was not set).
	Incr IncrStats
	// source is the original program the plan was built from.
	source *cminus.Program
}

// Program returns the normalized program the plan refers to: each
// analyzed function's normalized body, whose loop labels, privatization
// lists and canonical (0-based, stride-1) loop forms match the plan's
// decisions, and the source body of a function whose Pass 1 crashed. It
// is the input of the interpreter and the emitter; printed through
// LoopPragmas, it is the annotated source. Its functions are shared with
// the unit store and must not be modified.
func (p *Plan) Program() *cminus.Program {
	out := &cminus.Program{Globals: p.source.Globals}
	for _, fn := range p.source.Funcs {
		if fp := p.Funcs[fn.Name]; fp != nil && fp.Analysis != nil {
			fn = fp.Analysis.Norm.Func
		}
		out.Funcs = append(out.Funcs, fn)
	}
	return out
}

// LoopPragmas returns the pragma lines printed above a loop of function
// fn: the plan's directive for a chosen loop, the loop's own source
// pragmas for any other. It is the pragma function cminus.PrintAnnotated
// takes.
func (p *Plan) LoopPragmas(fn string, loop *cminus.ForStmt) []string {
	if fp := p.Funcs[fn]; fp != nil {
		if text, ok := fp.Pragmas[loop.Label]; ok {
			return []string{text}
		}
	}
	return loop.Pragmas
}

// Options configures the parallelizer.
type Options struct {
	// Assume supplies symbol ranges (e.g. sizes known positive).
	Assume *ranges.Dict
	// Ablate toggles individual analysis capabilities (ablation studies).
	Ablate phase2.Opts
	// Workers bounds the analysis worker pool: Pass 1 (per-function array
	// analysis) and Pass 2 (per-nest dependence planning) fan out over up
	// to Workers goroutines. 0 or 1 analyzes serially. The plan is
	// bit-identical for every worker count: per-function analyses are
	// independent, property databases merge in sorted function-name order,
	// and per-nest decisions merge in source order.
	Workers int
	// Budget bounds the analysis (steps and/or cancellation). When it
	// aborts, Run panics with budget.Abort — callers that set a Budget
	// must wrap Run in budget.Guard (core.AnalyzeProgram does); callers
	// that leave it nil never observe the panic.
	Budget *budget.B
	// Trace, when non-nil, records pipeline spans: pass1/pass2 phases,
	// per-worker lanes, per-function and per-nest analysis spans, and the
	// work counters billed through the range dictionary. TraceParent is
	// the span the phases nest under (0 for top level).
	Trace       *trace.Recorder
	TraceParent trace.SpanID
	// Reuse, when set, replays content-addressed per-function units
	// (Pass-1 analyses, Pass-2 plans) from a shared cache instead of
	// recomputing them. The merge steps below run identically either
	// way, so a run with reuse is byte-identical to one without.
	Reuse *Reuse
}

// Run parallelizes a program at the given analysis level.
//
// Per-function (Pass 1) and per-nest (Pass 2) work runs under panic
// containment: a crash in one unit becomes a Plan.Diagnostics entry and
// that unit degrades (no properties / serial loops) while every other
// unit's results stand. A budget abort (exhaustion or cancellation) is
// fatal for the whole run and re-panics as budget.Abort once all workers
// have finished — see Options.Budget.
func Run(prog *cminus.Program, level phase2.Level, opts *Options) *Plan {
	if opts == nil {
		opts = &Options{}
	}
	dict := opts.Assume
	if dict == nil {
		dict = ranges.New()
	}
	if opts.Budget != nil {
		dict.AttachBudget(opts.Budget)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	plan := &Plan{Level: level, Props: property.NewDB(), Funcs: map[string]*FuncPlan{}, source: prog}

	// Pass 1: array analysis over every function, fanned out over the
	// worker pool. Each worker analyzes into its own pushed range scope
	// and its own property database, so the analyses are independent; the
	// shared parent dictionary is only read. sched.ForTraced runs jobs on
	// raw goroutines, so the guard must live inside the job closure: an
	// uncontained panic there would kill the process.
	var funcs []*cminus.FuncDecl
	for _, fn := range prog.Funcs {
		if fn.Body != nil {
			funcs = append(funcs, fn)
		}
	}
	tr := opts.Trace
	results := make([]*phase2.FuncAnalysis, len(funcs))
	jobErrs := make([]error, len(funcs))

	// Incremental reuse, analysis tier: replay clean functions' Pass-1
	// results before fanning out, so the pool only sees dirty ones. A
	// cached analysis is shared across runs and read-only from here on.
	reuse := opts.Reuse
	cachedFA := make([]bool, len(funcs))
	if reuse.enabled() {
		for i, fn := range funcs {
			key := reuse.Keys[fn.Name]
			if key == "" {
				continue
			}
			if fa, ok := reuse.Cache.GetAnalysis(key, fn.Name); ok {
				results[i] = fa
				cachedFA[i] = true
				plan.Incr.FuncHits++
			} else {
				plan.Incr.FuncMisses++
			}
		}
	}

	pass1 := tr.Start(opts.TraceParent, "pass1")
	sched.ForTraced(len(funcs), workers, tr, pass1, func(i int, wsp trace.SpanID) {
		if cachedFA[i] {
			return
		}
		jobErrs[i] = budget.Guard(func() {
			sp := tr.StartFunc(wsp, "function", funcs[i].Name)
			defer tr.End(sp)
			d := dict.Push()
			d.AttachTrace(tr, sp)
			results[i] = phase2.AnalyzeFuncOpts(funcs[i], level, d, opts.Ablate)
		})
	})
	tr.End(pass1)
	var fatal error
	for i, err := range jobErrs {
		if err == nil {
			continue
		}
		if pe, ok := err.(*budget.PanicError); ok {
			plan.Diagnostics = append(plan.Diagnostics,
				Diagnostic{Func: funcs[i].Name, Stage: "analyze", Err: pe})
			results[i] = nil
			continue
		}
		// Budget abort: fatal for the whole run.
		fatal = err
	}
	if fatal != nil {
		panic(budget.Abort{Err: fatal})
	}

	// Store freshly computed Pass-1 units. Crashed units (results[i] ==
	// nil) are never cached: their recompute is deterministic and caching
	// failures would complicate the byte-identity argument for nothing.
	if reuse.enabled() {
		for i, fn := range funcs {
			if cachedFA[i] || results[i] == nil {
				continue
			}
			if key := reuse.Keys[fn.Name]; key != "" {
				reuse.Cache.PutAnalysis(key, fn.Name, results[i])
			}
		}
	}

	// Merge the per-function property databases in sorted function-name
	// order — a deterministic order independent of worker scheduling (the
	// paper inline-expands so filling loops and using loops share scope —
	// sharing the database plays the same role).
	analyses := map[string]*phase2.FuncAnalysis{}
	for i, fn := range funcs {
		analyses[fn.Name] = results[i]
	}
	names := make([]string, 0, len(analyses))
	for n := range analyses {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fa := analyses[n]
		if fa == nil {
			// Contained Pass-1 crash: no properties from this function.
			continue
		}
		for _, arr := range fa.Props.Arrays() {
			for _, p := range fa.Props.Lookup(arr) {
				plan.Props.Add(p)
			}
		}
	}

	// Pass 2: dependence testing, outermost first, one job per top-level
	// nest over the same pool. The tester reads the merged property
	// database and the range dictionary, both frozen by now; each job
	// writes decisions into its own map, merged in source order below.
	tester := depend.NewTester(plan.Props, dict)
	type nestJob struct {
		fp   *FuncPlan
		loop *cminus.ForStmt
	}

	// Incremental reuse, plan tier: Pass 2 reads the merged property
	// database (other functions contribute facts), so its key layers a
	// digest of that database over the function's unit key. On a hit the
	// function's whole plan set replays and none of its nests are
	// scheduled.
	var propsDig string
	planKeys := map[string]string{}
	if reuse.enabled() {
		propsDig = PropsDigest(plan.Props)
	}

	var jobs []nestJob
	for _, fn := range funcs {
		fa := analyses[fn.Name]
		fp := &FuncPlan{Name: fn.Name, Analysis: fa, Loops: map[string]*LoopPlan{}}
		plan.Funcs[fn.Name] = fp
		if fa == nil {
			// No analysis: the function keeps its original body, serial.
			continue
		}
		if reuse.enabled() {
			if key := reuse.Keys[fn.Name]; key != "" {
				pk := PlanKey(key, propsDig)
				if plans, ok := reuse.Cache.GetPlans(pk, fn.Name); ok {
					fp.Loops = plans
					plan.Incr.PlanHits++
					continue
				}
				plan.Incr.PlanMisses++
				planKeys[fn.Name] = pk
			}
		}
		for _, top := range topLoops(fa.Norm.Func.Body) {
			jobs = append(jobs, nestJob{fp: fp, loop: top})
		}
	}
	planned := make([]map[string]*LoopPlan, len(jobs))
	planErrs := make([]error, len(jobs))
	pass2 := tr.Start(opts.TraceParent, "pass2")
	sched.ForTraced(len(jobs), workers, tr, pass2, func(i int, wsp trace.SpanID) {
		planErrs[i] = budget.Guard(func() {
			jobTester := tester
			if tr.Enabled() {
				sp := tr.StartLoop(wsp, "plan", jobs[i].fp.Name, jobs[i].loop.Label)
				defer tr.End(sp)
				jobDict := dict.Push()
				jobDict.AttachTrace(tr, sp)
				jobTester = depend.NewTester(tester.Props, jobDict)
			}
			m := map[string]*LoopPlan{}
			planNest(jobTester, jobs[i].fp.Analysis, m, jobs[i].loop, 1)
			planned[i] = m
		})
	})
	tr.End(pass2)
	planCrashed := map[string]bool{}
	for i, err := range planErrs {
		if err == nil {
			continue
		}
		if pe, ok := err.(*budget.PanicError); ok {
			plan.Diagnostics = append(plan.Diagnostics, Diagnostic{
				Func: jobs[i].fp.Name, Stage: "plan", Loop: jobs[i].loop.Label, Err: pe})
			planned[i] = nil // the nest stays serial
			planCrashed[jobs[i].fp.Name] = true
			continue
		}
		fatal = err
	}
	if fatal != nil {
		panic(budget.Abort{Err: fatal})
	}
	for i, job := range jobs {
		for lbl, lp := range planned[i] {
			job.fp.Loops[lbl] = lp
		}
	}
	// Store freshly planned Pass-2 units; functions with a contained
	// plan-stage crash are never cached (same rationale as Pass 1).
	for _, fn := range funcs {
		pk := planKeys[fn.Name]
		if pk == "" || planCrashed[fn.Name] {
			continue
		}
		reuse.Cache.PutPlans(pk, fn.Name, plan.Funcs[fn.Name].Loops)
	}
	// Render each chosen loop's directive once: the annotated source,
	// the JSON encoding, Summary and the emitter read it from Pragmas.
	for _, fn := range funcs {
		fp := plan.Funcs[fn.Name]
		sp := tr.StartFunc(opts.TraceParent, "annotate", fn.Name)
		fp.Pragmas = map[string]string{}
		for lbl, lp := range fp.Loops {
			if lp.Chosen {
				fp.Pragmas[lbl] = pragmaFor(lp.Decision)
			}
		}
		tr.End(sp)
	}
	sortDiagnostics(plan.Diagnostics)
	return plan
}

// sortDiagnostics orders contained-crash reports deterministically, so
// plans (and their wire encodings) are identical across worker counts.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Func != ds[j].Func {
			return ds[i].Func < ds[j].Func
		}
		if ds[i].Stage != ds[j].Stage {
			return ds[i].Stage < ds[j].Stage
		}
		return ds[i].Loop < ds[j].Loop
	})
}

// planNest decides one loop; when it is not parallelizable, descends into
// the nested loops (the classical behaviour the paper observes: inner
// loops get parallelized, paying fork-join per outer iteration).
func planNest(tester *depend.Tester, fa *phase2.FuncAnalysis, loops map[string]*LoopPlan, loop *cminus.ForStmt, depth int) {
	d := tester.Analyze(loop, fa.Norm.Loops[loop.Label])
	lp := &LoopPlan{Label: loop.Label, Decision: d, Depth: depth}
	loops[loop.Label] = lp
	if d.Parallel {
		lp.Chosen = true
		lp.Work = workOf(loop, fa.Norm.Loops)
		return
	}
	for _, inner := range topLoops(loop.Body) {
		planNest(tester, fa, loops, inner, depth+1)
	}
}

// topLoops returns the loops immediately inside a block.
func topLoops(blk *cminus.Block) []*cminus.ForStmt {
	var out []*cminus.ForStmt
	var walkS func(s cminus.Stmt)
	walkS = func(s cminus.Stmt) {
		switch x := s.(type) {
		case *cminus.ForStmt:
			out = append(out, x)
		case *cminus.Block:
			for _, st := range x.Stmts {
				walkS(st)
			}
		case *cminus.IfStmt:
			walkS(x.Then)
			if x.Else != nil {
				walkS(x.Else)
			}
		}
	}
	if blk == nil {
		return nil
	}
	for _, s := range blk.Stmts {
		walkS(s)
	}
	return out
}

// pragmaFor renders the OpenMP directive for a positive decision.
func pragmaFor(d *depend.Decision) string {
	var b strings.Builder
	b.WriteString("#pragma omp parallel for")
	if chk := d.CheckString(); chk != "" {
		fmt.Fprintf(&b, " if(%s)", chk)
	}
	if len(d.Privates) > 0 {
		fmt.Fprintf(&b, " private(%s)", strings.Join(d.Privates, ", "))
	}
	if len(d.Reductions) > 0 {
		ops := map[string][]string{}
		for v, op := range d.Reductions {
			ops[op] = append(ops[op], v)
		}
		opKeys := make([]string, 0, len(ops))
		for op := range ops {
			opKeys = append(opKeys, op)
		}
		sort.Strings(opKeys)
		for _, op := range opKeys {
			vars := ops[op]
			sort.Strings(vars)
			fmt.Fprintf(&b, " reduction(%s:%s)", op, strings.Join(vars, ", "))
		}
	}
	return b.String()
}

// ChosenLabels returns the labels of loops selected for parallel
// execution in a function, sorted.
func (fp *FuncPlan) ChosenLabels() []string {
	var out []string
	for lbl, lp := range fp.Loops {
		if lp.Chosen {
			out = append(out, lbl)
		}
	}
	sort.Strings(out)
	return out
}

// Summary renders a human-readable report of the plan.
func (p *Plan) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis level: %s\n", p.Level)
	if arrays := p.Props.Arrays(); len(arrays) > 0 {
		b.WriteString("subscript array properties:\n")
		for _, a := range arrays {
			for _, pr := range p.Props.Lookup(a) {
				fmt.Fprintf(&b, "  %s\n", pr)
			}
		}
	}
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fp := p.Funcs[n]
		labels := make([]string, 0, len(fp.Loops))
		for lbl := range fp.Loops {
			labels = append(labels, lbl)
		}
		sort.Strings(labels)
		for _, lbl := range labels {
			lp := fp.Loops[lbl]
			status := "serial"
			detail := lp.Decision.Reason
			if lp.Chosen {
				status = "PARALLEL"
				detail = strings.TrimPrefix(fp.Pragmas[lbl], "#pragma omp ")
			}
			fmt.Fprintf(&b, "%s %s (depth %d): %s", n, lbl, lp.Depth, status)
			if detail != "" {
				fmt.Fprintf(&b, " — %s", detail)
			}
			b.WriteString("\n")
		}
	}
	if len(p.Diagnostics) > 0 {
		b.WriteString("analysis diagnostics (contained crashes):\n")
		for _, d := range p.Diagnostics {
			fmt.Fprintf(&b, "  %s\n", d.Message())
		}
	}
	return b.String()
}
