package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/depend"
	"repro/internal/normalize"
	"repro/internal/parallelize"
)

// fuzzOptions bounds each fuzz execution so adversarial inputs cannot
// hang the worker: a generous step budget for the analysis plus a
// wall-clock backstop. Hitting either limit is an acceptable outcome
// (typed error), not a crash.
func fuzzOptions() Options {
	return Options{Level: New, Budget: 2 << 20, Timeout: 10 * time.Second}
}

// resourceAbort reports whether err is a budget/cancellation abort — the
// two typed errors bounded analysis is allowed to return.
func resourceAbort(err error) bool {
	return errors.Is(err, budget.ErrBudget) || errors.Is(err, budget.ErrCanceled)
}

// checkAnalyze is the shared fuzz body: the full pipeline (parse →
// normalize → Phase 1 → Phase 2 → dependence test → plan) must never
// panic or exceed its resource bounds by more than the checkpoint
// granularity, its wire JSON must be encoding/json's bytes, the
// annotated output of an accepted program must reparse and re-analyze
// cleanly, levels only add parallel verdicts, and a parallel loop calls
// builtins only.
func checkAnalyze(t *testing.T, src string) {
	t.Helper()
	res, err := Analyze(src, fuzzOptions())
	var pe *budget.PanicError
	if errors.As(err, &pe) {
		t.Fatalf("analysis panicked: %v\ninput: %q", err, src)
	}
	checkWireRoundTrip(t, []*BatchResult{{Name: "fuzz.c", Res: res, Err: err}}, true)
	if err != nil {
		return
	}
	annotated := res.AnnotatedSource()
	if _, err := Analyze(annotated, fuzzOptions()); err != nil && !resourceAbort(err) {
		t.Fatalf("annotated source fails to re-analyze: %v\ninput: %q\nannotated:\n%s",
			err, src, annotated)
	}
	_ = res.Summary()
	checkLevelMonotone(t, src, res)
	checkPureCalls(t, src, res)
}

// checkPureCalls fails when a loop the New plan res tests parallel
// contains a call that does not denote a builtin of cminus's table: the
// builtins are the only calls the analysis may take as free of side
// effects. A name the program defines denotes its function, table or
// not. It returns how many parallel loops it checked.
func checkPureCalls(t *testing.T, src string, res *Result) int {
	t.Helper()
	prog := res.Plan.Program()
	checked := 0
	for _, fn := range prog.Funcs {
		fp := res.Plan.Funcs[fn.Name]
		if fp == nil || fn.Body == nil {
			continue
		}
		cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
			loop, ok := s.(*cminus.ForStmt)
			if !ok {
				return true
			}
			if lp := fp.Loops[loop.Label]; lp == nil || !lp.Decision.Parallel {
				return true
			}
			checked++
			cminus.WalkStmts(loop, func(s cminus.Stmt) bool {
				cminus.StmtExprs(s, func(e cminus.Expr) bool {
					c, ok := e.(*cminus.CallExpr)
					if !ok {
						return true
					}
					if def := prog.Func(c.Fun); cminus.LookupBuiltin(c.Fun) == nil || def != nil && def.Body != nil {
						t.Fatalf("%s/%s is parallel but calls %s, which is not a builtin\ninput: %q",
							fn.Name, loop.Label, c.Fun, src)
					}
					return true
				})
				return true
			})
			return false
		})
	}
	return checked
}

// checkLevelMonotone analyzes src at every level (res is its analysis at
// New) and fails when a loop tested parallel at a lower level (Classical
// ⊆ Base ⊆ New) has a plan entry at a higher level that is tested serial.
// A loop missing from the higher level's plan is no violation: a level
// that parallelizes an outer loop plans none of the loops inside it. The
// check is skipped when a level returns an error or contains a crash,
// since neither is a verdict. It returns how many loop pairs it compared.
func checkLevelMonotone(t *testing.T, src string, res *Result) int {
	t.Helper()
	plans := make([]*parallelize.Plan, 0, 3)
	for _, lvl := range []Level{Classical, Base} {
		opt := fuzzOptions()
		opt.Level = lvl
		r, err := Analyze(src, opt)
		if err != nil || len(r.Plan.Diagnostics) > 0 {
			return 0
		}
		plans = append(plans, r.Plan)
	}
	if len(res.Plan.Diagnostics) > 0 {
		return 0
	}
	plans = append(plans, res.Plan)
	compared := 0
	for i, lo := range plans {
		for _, hi := range plans[i+1:] {
			for name, fp := range lo.Funcs {
				for label, lp := range fp.Loops {
					if !lp.Decision.Parallel || hi.Funcs[name] == nil {
						continue
					}
					hp := hi.Funcs[name].Loops[label]
					if hp == nil {
						continue
					}
					compared++
					if !hp.Decision.Parallel {
						t.Fatalf("%s/%s is parallel at %s but serial at %s (%s)\ninput: %q",
							name, label, lo.Level, hi.Level, hp.Decision.Reason, src)
					}
				}
			}
		}
	}
	return compared
}

// fuzzSeeds start FuzzAnalyze.
var fuzzSeeds = []string{
	`void f(int n, int *a) { int i, m; m = 0; for (i = 0; i < n; i++) { if (a[i] > 0) a[m++] = i; } }`,
	`void f(int n, int *p) { int i; p[0] = 0; for (i = 1; i <= n; i++) { p[i] = p[i-1] + 3; } }`,
	`void f(int n, int g[][5]) { int i, j; for (i = 0; i < n; i++) { for (j = 0; j < 5; j++) { g[i][j] = 5*i + j; } } }`,
	`void f(int n, double *y, int *ind) { int j; for (j = 0; j < n; j++) { y[ind[j]] = y[ind[j]] + 1.0; } }`,
	`void f(int n, int *a) { int i, s; s = 0; for (i = 0; i < n; i++) { s += a[i]; } a[0] = s; }`,
	`void f(int n) { int i; for (i = n; i > 0; i--) { } }`,
	`void f(int n, int *a) { int i; for (i = 0; i < n; i++) { while (a[i] > 0) { a[i] = a[i] / 2; } } }`,
	// Permutation/scatter sources steer the fuzzer at the injectivity
	// recognizer, the swap-preservation transform and the scatter
	// dependence disproof.
	`void f(int n, int *p, double *a, double *b) { int i; for (i = 0; i < n; i++) { p[i] = i; } for (i = 0; i < n; i++) { a[p[i]] = a[p[i]] + b[i]; } }`,
	`void f(int n, int *p) { int i, t; for (i = 0; i < n; i++) { p[i] = i; } for (i = 0; i < n; i++) { t = p[i]; p[i] = p[n-1-i]; p[n-1-i] = t; } }`,
	`void f(int n, int *p) { int i; for (i = 0; i < n; i++) { p[2*i] = i; p[2*i + 1] = n + i; } }`,
	`void f(int n, int *p) { int i; for (i = 0; i < n; i++) { p[i] = i / 2; } }`,
	// A definition under a builtin's name is refused, so the call in the
	// loop cannot pass for the pure builtin; under any other name the
	// call keeps the loop serial.
	`void fmax(double *acc, double v) { acc[0] = acc[0] + v; } void kern(int n, double *acc, double *x) { int i; for (i = 0; i < n; i++) { fmax(acc, x[i]); } }`,
	`void accum(double *acc, double v) { acc[0] = acc[0] + v; } void kern(int n, double *acc, double *x) { int i; for (i = 0; i < n; i++) { accum(acc, x[i]); } }`,
	// A serial loop calls its bound on every iteration, a parallel one
	// once: a call in the header keeps the loop serial too.
	`int g(int *c, int n) { c[0] = c[0] + 1; return n; } void kern(int n, int *c, double *y) { int i; for (i = 0; i < g(c, n); i++) { y[i] = 1.0; } }`,
	// A subscript and a fill value cubic in the loop index whose values
	// at i = 0, 1 and 2 lie on a line: neither is linear, so neither
	// loop nor fact may rest on a linear decomposition.
	`void f(int n, double *a, double *b) { int i; for (i = 0; i < n; i++) { a[6*i - i*(i-1)*(i-2)] = a[6*i - i*(i-1)*(i-2)] + b[i]; } }`,
	`void f(int n, int *idx, double *x, double *y) { int i, j; for (i = 0; i < n; i++) { idx[i] = 6*i - i*(i-1)*(i-2); } for (j = 0; j < n; j++) { y[idx[j]] = x[j]; } }`,
}

func FuzzAnalyze(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	// Past crashers ride along as seeds so the fuzzer starts from known
	// weak spots.
	for _, src := range crasherCorpus(f) {
		f.Add(src)
	}
	f.Fuzz(checkAnalyze)
}

// crasherCorpus reads testdata/crashers — inputs that once crashed or
// hung the pipeline, kept as a permanent regression corpus.
func crasherCorpus(tb testing.TB) []string {
	tb.Helper()
	dir := filepath.Join("testdata", "crashers")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatalf("crasher corpus: %v", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatalf("crasher corpus: %v", err)
		}
		out = append(out, string(b))
	}
	if len(out) == 0 {
		tb.Fatal("crasher corpus is empty")
	}
	return out
}

// TestCrashersRegression replays every stored crasher through the fuzz
// body on every ordinary `go test` run, so a regression is caught
// without running the fuzzer.
func TestCrashersRegression(t *testing.T) {
	for _, src := range crasherCorpus(t) {
		checkAnalyze(t, src)
	}
}

// propertySources are the programs the property tests run over: the
// fuzz seeds, the crashers, the shipped benchmark programs, the
// interpreters' scope rows and the corpus with its scatter set.
func propertySources(t *testing.T) []string {
	t.Helper()
	srcs := append(append([]string(nil), fuzzSeeds...), crasherCorpus(t)...)
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata programs: %v (%d files)", err, len(files))
	}
	rows, err := filepath.Glob(filepath.Join("..", "interp", "testdata", "scope", "*.c"))
	if err != nil || len(rows) == 0 {
		t.Fatalf("scope rows: %v (%d files)", err, len(rows))
	}
	for _, file := range append(files, rows...) {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	for _, b := range corpus.Extended() {
		srcs = append(srcs, b.Source)
	}
	return srcs
}

// TestLevelMonotonicity runs the level check over propertySources.
func TestLevelMonotonicity(t *testing.T) {
	srcs := propertySources(t)
	compared := 0
	for _, src := range srcs {
		if res, err := Analyze(src, fuzzOptions()); err == nil {
			compared += checkLevelMonotone(t, src, res)
		}
	}
	if compared == 0 {
		t.Fatal("no loop was parallel at a lower level and planned at a higher one")
	}
	t.Logf("%d sources, %d loop pairs compared", len(srcs), compared)
}

// TestWritesAgreeWithDepend: every scalar cminus.Writes finds in the
// body of a normalized loop of propertySources is one depend's ordered
// scan records as written, or one the body declares, so the two scans
// cannot drift apart.
func TestWritesAgreeWithDepend(t *testing.T) {
	checked := 0
	for _, src := range propertySources(t) {
		prog, err := cminus.Parse(src)
		if err != nil {
			continue
		}
		for _, fn := range prog.Funcs {
			if fn.Body == nil {
				continue
			}
			norm := normalize.Func(fn)
			for _, loop := range cminus.NumberLoops(norm.Func.Body) {
				info := depend.CollectAccesses(loop, norm.Loops[loop.Label])
				declared := map[string]bool{}
				cminus.WalkStmts(loop.Body, func(s cminus.Stmt) bool {
					if d, ok := s.(*cminus.DeclStmt); ok {
						for _, it := range d.Items {
							declared[it.Name] = true
						}
					}
					return true
				})
				scalars, _ := cminus.Writes(loop.Body)
				for _, v := range scalars {
					checked++
					if !info.ScalarWrites[v] && !declared[v] {
						t.Errorf("%s/%s writes %s, which depend does not record\ninput: %q", fn.Name, loop.Label, v, src)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no loop writes a scalar")
	}
	t.Logf("%d scalar writes checked", checked)
}

// TestPureCalls runs the purity check over propertySources: no loop the
// New plan tests parallel calls anything but a builtin.
func TestPureCalls(t *testing.T) {
	srcs := propertySources(t)
	checked := 0
	for _, src := range srcs {
		if res, err := Analyze(src, fuzzOptions()); err == nil {
			checked += checkPureCalls(t, src, res)
		}
	}
	if checked == 0 {
		t.Fatal("no parallel loop checked")
	}
	t.Logf("%d sources, %d parallel loops checked", len(srcs), checked)
}
