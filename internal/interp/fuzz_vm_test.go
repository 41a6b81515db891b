package interp

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/cminus"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// vmFuzzSeeds mirrors FuzzAnalyze's seed corpus (internal/core): the
// same mini-C shapes that steer the analysis fuzzer — monotonic fills,
// scatter updates, permutations — double as execution seeds here.
var vmFuzzSeeds = []string{
	`void f(int n, int *a) { int i, m; m = 0; for (i = 0; i < n; i++) { if (a[i] > 0) a[m++] = i; } }`,
	`void f(int n, int *p) { int i; p[0] = 0; for (i = 1; i <= n; i++) { p[i] = p[i-1] + 3; } }`,
	`void f(int n, int g[][5]) { int i, j; for (i = 0; i < n; i++) { for (j = 0; j < 5; j++) { g[i][j] = 5*i + j; } } }`,
	`void f(int n, double *y, int *ind) { int j; for (j = 0; j < n; j++) { y[ind[j]] = y[ind[j]] + 1.0; } }`,
	`void f(int n, int *a) { int i, s; s = 0; for (i = 0; i < n; i++) { s += a[i]; } a[0] = s; }`,
	`void f(int n) { int i; for (i = n; i > 0; i--) { } }`,
	`void f(int n, int *a) { int i; for (i = 0; i < n; i++) { while (a[i] > 0) { a[i] = a[i] / 2; } } }`,
	`void f(int n, int *p, double *a, double *b) { int i; for (i = 0; i < n; i++) { p[i] = i; } for (i = 0; i < n; i++) { a[p[i]] = a[p[i]] + b[i]; } }`,
	`void f(int n, int *p) { int i, t; for (i = 0; i < n; i++) { p[i] = i; } for (i = 0; i < n; i++) { t = p[i]; p[i] = p[n-1-i]; p[n-1-i] = t; } }`,
	`void f(int n, int *p) { int i; for (i = 0; i < n; i++) { p[2*i] = i; p[2*i + 1] = n + i; } }`,
	`void f(int n, int *p) { int i; for (i = 0; i < n; i++) { p[i] = i / 2; } }`,
	// Execution-oriented extras: recursion, floats, error paths.
	`int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } void f(int *out) { out[0] = fib(9); }`,
	`double g; void f(int n, double *a) { int i; g = 0.0; for (i = 0; i < n; i++) { g = g + a[i] * 0.5; } }`,
	`void f(int n, int *a) { int i; for (i = 0; i < n; i++) { a[i] = a[i] / (i - 2); } }`,
	// A local pointer declarator without dimensions is a 0-dim array on
	// both engines, so indexing it fails the same way.
	`void f(int *p) { int *q; q[0] = 1; }`,
	// So is a file-scope one.
	`int *q; void f(void) { q[0] = 1; }`,
	// x op= e on an unbound name is an error on both engines.
	`void A(){{A%=0;}}`,
	// Block scope: an inner declaration shadows a parameter, a global
	// and an outer local, with its own type, and ends with its block.
	`double g; void f(int n, double *a) { double x; x = 1.5; g = 2.5; { int x; int g; double n; x = 4; g = 3; n = 0.5; a[0] = x / 2; a[1] = g / 2; a[2] = n; } a[3] = x; a[4] = g; a[5] = n; }`,
	// No caller locals: a callee cannot see its caller's local array.
	`void peek(double *out) { out[0] = tmp[0]; } void f(double *a) { double tmp[2]; tmp[0] = 5; a[1] = tmp[0]; peek(a); }`,
	// Implicit scalars: typed by their first value, scoped to the block
	// that defines them, so the u after the block is a new int.
	`void f(int n, double *a) { t = n > 2 ? 2.5 : 1; a[0] = t; { u = -2.5; a[1] = u / 2; } u = 7; a[2] = u / 2; }`,
	// A for post runs after the body: a name it defines is not the
	// body's on the next iteration.
	`void f(int n, double *a) { int i; for (i = 0; i < 3; k = 1) { i = i + 1; if (i > 1) a[0] = k; } }`,
	// Builtins at double and int sites: abs returns int, every other
	// builtin double, and an int site truncates.
	`void f(int n, double *a) { int k; k = floor(-2.5) + abs(-3.7); a[0] = fmod(-7.5, 2) + pow(2, -2); a[1] = k / 2; a[2] = abs(n) / 2 + tan(-0.0); a[3] = fmin(-0.0, 1.0) * fmax(sqrt(6.25), ceil(-2.5)); }`,
	`void f(int n, int *a) { int i; for (i = 0; i < n; i++) { a[i] = abs(i - 3) + floor(exp(0.0) * log(1.0)) + cos(0.0) * sin(-0.0) + fabs(-1.5); } }`,
	// Subscripts with constant offsets: x + c, c + x, x - c + d, two
	// terms that each carry one, in one to three dimensions and around a
	// subscripted subscript.
	`void f(int n, double *a, int *p) { int i; for (i = 0; i < 6; i++) { a[i + 1] = a[1 + i] + a[i - 1 + 2]; } a[0] = a[p[n - 1] - 1]; }`,
	`void f(int n, double *a) { double g[3][4]; double h[2][3][4]; int i, j, k; for (i = 0; i < 2; i++) { for (j = 0; j < 3; j++) { g[i + 1][j + 1] = i - j; for (k = 0; k < 3; k++) { h[i][j][k + 1] = g[i + 1][j + 1 - 1 + 1] + k; } } } a[0] = g[2][3]; a[1] = h[1][2][3]; }`,
	`void f(int n, double *a, int *p) { int i; double s; s = 0.0; for (i = 0; i < n; i++) { a[p[i + 1] + 1] = a[p[i + 2] - 1] + 2.0; s = s + 0.5 * a[p[i] + 2]; } a[0] = s; }`,
	`void f(int n, double *a) { int j, k; for (k = 0; k < 3; k++) { for (j = 0; j < n - (k + 1); j++) { a[j + (k + 1)] = a[j + (k + 1)] + a[(j + 2) - (k + 1)] + a[1 - (j + 1) + 1]; } } }`,
	// A folded subscript out of range: the diagnostic names the index
	// after the offset.
	`void f(int n, double *a) { int i; for (i = 0; i < n; i++) { a[i + 6] = i; } }`,
	`void f(int n, double *a) { double g[2][3]; int i; for (i = 0; i < n; i++) { g[1][i - 1] = a[i + 1]; } }`,
	// Offsets that do not fit in int32, alone and as a sum that does.
	`void f(int n, double *a) { a[n + 4294967296] = 1.0; }`,
	`void f(int n, double *a) { int i; for (i = 0; i < n; i++) { a[i + 2147483648 - 2147483647] = i; } a[n - 2147483649 + 2147483648] = 9.0; }`,
	// Compound loop bounds: invariant, <=, assigned in the body, by ++
	// in an inner loop's condition, in the post, and read from a global.
	`void f(int n, int *a) { int i, j, c; c = 0; for (i = 0; i < n - 1 - 1; i = i + 1) { for (j = 0; j <= n - 2; j++) { c = c + 1; } a[i] = c; } }`,
	`void f(int n, int *a) { int i, j, m; m = 8; for (i = 0; i < m - 1; i++) { m = m - 1; a[i] = m; } for (i = 0; i < 8 - m; i++) { for (j = 0; m++ < 0; j++) { } a[i] = m; } for (i = 0; i < m - 1; m--) { i = i + 1; a[i] = m; } }`,
	`int g; void shrink(int k) { g = g - k; } void f(int n, int *a) { int i; g = n + 4; for (i = 0; i < g - 2; i++) { shrink(1); a[i] = g; } }`,
	// A -- in an inner loop's condition changes m, so a[i] = m + i holds
	// no monotone section; the scatter through a[i + 1] must stay serial.
	`void f(int n, int m, int *a, double *y, double *x) { int i, j; for (i = 0; i < n; i++) { a[i] = m + i; for (j = 0; m-- > 100; j++) { } } for (i = 0; i < n - 1; i++) { y[a[i + 1]] = x[i]; } }`,
	// 2-D and 3-D rows a loop leaves unchanged: the varying subscript
	// first, in the middle and last, a row with no varying subscript, two
	// varying subscripts, and rows out of range in a loop that runs no
	// trip, partway through a loop, and by rank.
	`void f(int n, double *a) { double g[3][4]; double h[2][3][4]; int i, j, k; for (i = 0; i < 3; i++) { for (j = 0; j < 4; j++) { g[i][j] = i * 4 + j; } } for (k = 0; k < 2; k++) { for (j = 0; j < 3; j++) { for (i = 0; i < 4; i++) { h[k][j][i] = g[j][i] + g[k + 1][j] + g[2][3] * k; } } } for (j = 0; j < 3; j++) { a[j] = h[1][j][n - 1] + h[0][2 - j][j + 1] + g[j][n]; } }`,
	`void f(int n, double *a) { double h[2][3][4]; int i, j; for (j = 0; j < n - 3; j++) { h[5][j][0] = 1.0; a[0] = h[0][j][9]; } for (i = 0; i < 2; i++) { for (j = 0; j < 3; j++) { h[i][j][i + 1] = i + j; a[j] = a[j] + h[i][j][i + 1]; } } }`,
	`void f(int n, double *a) { double g[2][3]; int i, j; for (i = 0; i < n; i++) { for (j = 0; j < 3; j++) { g[i][j] = j; a[i] = g[i][j] + a[i]; } } }`,
	`void f(int n, double *a) { int i; for (i = 0; i < n; i++) { a[i] = a[i + 1] + a[0][i]; } }`,
	// Two subscripts out of range at once: the diagnostic names the
	// first dimension, invariant or varying.
	`void f(int n, double *a) { double g[2][3]; int j; for (j = 0; j < n; j++) { a[j] = j; g[n][j + 3] = 1.0; } } void h(int n, double *a) { double g[4][3]; int j; for (j = 0; j < n; j++) { a[j] = g[j + 4][n]; } }`,
	// A subscript that reads the loop's index ahead of a name the loop
	// leaves alone varies: it leaves the array at j = 1, k = 3.
	`void f(int n, double *a) { double h[1][7][3]; int j, k; for (j = 0; j < 2; j++) { for (k = 0; k < 7; k++) { a[0] = h[0][1][k * j]; } } }`,
}

// vmFuzzBudget bounds a VM run so fuzz-generated unbounded loops (and
// unbounded recursion, which also burns instructions per call) abort
// instead of hanging the worker.
const vmFuzzBudget = 1 << 18

// engineSnapshot is the observable outcome of one engine run: the error
// (if any) and the bit patterns of every scalar global, global array,
// and array argument after the call.
type engineSnapshot struct {
	err     string
	globals map[string]uint64
	arrays  map[string][]uint64
}

func snapshotArray(a *Array) []uint64 {
	out := make([]uint64, 0, a.Len())
	if a.Float {
		for _, v := range a.Flts {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	for _, v := range a.Ints {
		out = append(out, uint64(v))
	}
	return out
}

// vmFuzzArgs synthesizes deterministic arguments for fn: small ints,
// small floats, 8-element arrays with a fixed fill. Array args are
// returned separately so their post-call state can be compared.
func vmFuzzArgs(fn *cminus.FuncDecl) (args []Arg, arrs []*Array) {
	for i, prm := range fn.Params {
		isFloat := cminus.IsFloatType(prm.Type)
		if prm.PtrDeep > 0 || len(prm.Dims) > 0 {
			var a *Array
			if isFloat {
				a = NewFloatArray(prm.Name, 8)
				for j := range a.Flts {
					a.Flts[j] = 0.5*float64(j) - float64(i)
				}
			} else {
				a = NewIntArray(prm.Name, 8)
				for j := range a.Ints {
					a.Ints[j] = int64(j%5) - int64(i%3)
				}
			}
			args = append(args, a)
			arrs = append(arrs, a)
			continue
		}
		if isFloat {
			args = append(args, 1.5+float64(i))
			continue
		}
		args = append(args, int64(3+i))
	}
	return args, arrs
}

// runEngineFuzz runs fn on the named engine and snapshots the outcome.
// With a plan it runs the plan's program under the plan on workers
// goroutines; without one it runs src, parsed fresh, on one. Each run
// gets its own machine and argument set. resource is true when the run
// hit the step budget — only vm runs are budgeted, and a budgeted-out
// input is skipped.
func runEngineFuzz(src, engine, fnName string, b *budget.B, plan *parallelize.Plan, workers int) (snap *engineSnapshot, stats Stats, resource bool) {
	prog, err := cminus.Parse(src)
	if err != nil {
		return nil, stats, false
	}
	if plan != nil {
		prog = plan.Program()
	}
	m, err := New(prog)
	if err != nil {
		// Global-initializer errors are engine-independent; nothing to
		// compare.
		return nil, stats, false
	}
	m.Interp, m.Budget, m.Plan, m.Workers = engine, b, plan, workers
	fn := prog.Func(fnName)
	args, arrs := vmFuzzArgs(fn)
	callErr := m.Call(fnName, args...)
	if callErr != nil && (errors.Is(callErr, budget.ErrBudget) || errors.Is(callErr, budget.ErrCanceled)) {
		return nil, stats, true
	}
	snap = &engineSnapshot{globals: map[string]uint64{}, arrays: map[string][]uint64{}}
	if callErr != nil {
		snap.err = callErr.Error()
	}
	for name, v := range m.Globals {
		if v.Float {
			snap.globals[name] = math.Float64bits(v.F)
		} else {
			snap.globals[name] = uint64(v.I)
		}
	}
	for name, a := range m.Arrays {
		snap.arrays["g:"+name] = snapshotArray(a)
	}
	for i, a := range arrs {
		snap.arrays[fmt.Sprintf("p%d", i)] = snapshotArray(a)
	}
	return snap, m.Stats, false
}

// fuzzPlans returns src's New-level plan and the same plan with its
// estimates cleared (openPlan), so that regions open at fuzz sizes too;
// nil when the bounded analysis gives up or contains a crash.
func fuzzPlans(src string) []*parallelize.Plan {
	plans := make([]*parallelize.Plan, 2)
	for i := range plans {
		prog, err := cminus.Parse(src)
		if err != nil {
			return nil
		}
		opts := &parallelize.Options{Budget: budget.New(nil, 4*vmFuzzBudget)}
		if err := budget.Guard(func() { plans[i] = parallelize.Run(prog, phase2.LevelNew, opts) }); err != nil || len(plans[i].Diagnostics) > 0 {
			return nil
		}
	}
	openPlan(plans[1])
	return plans
}

// floatReduction reports whether a loop the plan chooses reduces a
// double (or a name it cannot type): the combine then rounds in another
// order than the serial loop, while an int reduction is exact in any.
func floatReduction(plan *parallelize.Plan) bool {
	prog := plan.Program()
	for _, fn := range prog.Funcs {
		fp := plan.Funcs[fn.Name]
		if fp == nil || fn.Body == nil {
			continue
		}
		binds := cminus.Bind(prog, fn)
		for _, loop := range cminus.NumberLoops(fn.Body) {
			if lp := fp.Loops[loop.Label]; lp != nil && lp.Chosen {
				for _, red := range lp.Decision.SortedReductions() {
					if bd := binds.Lookup(loop, red.Name, false); bd == nil || bd.Float {
						return true
					}
				}
			}
		}
	}
	return false
}

func diffSnapshots(a, b *engineSnapshot) string {
	if a.err != b.err {
		return fmt.Sprintf("error %q vs %q", a.err, b.err)
	}
	if len(a.globals) != len(b.globals) {
		return fmt.Sprintf("global count %d vs %d", len(a.globals), len(b.globals))
	}
	names := make([]string, 0, len(a.globals))
	for n := range a.globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a.globals[n] != b.globals[n] {
			return fmt.Sprintf("global %s: %#x vs %#x", n, a.globals[n], b.globals[n])
		}
	}
	if len(a.arrays) != len(b.arrays) {
		return fmt.Sprintf("array count %d vs %d", len(a.arrays), len(b.arrays))
	}
	anames := make([]string, 0, len(a.arrays))
	for n := range a.arrays {
		anames = append(anames, n)
	}
	sort.Strings(anames)
	for _, n := range anames {
		av, bv := a.arrays[n], b.arrays[n]
		if len(av) != len(bv) {
			return fmt.Sprintf("array %s: len %d vs %d", n, len(av), len(bv))
		}
		for i := range av {
			if av[i] != bv[i] {
				return fmt.Sprintf("array %s[%d]: %#x vs %#x", n, i, av[i], bv[i])
			}
		}
	}
	return ""
}

// checkVMDifferential is the shared fuzz body: every function in the
// program runs through the vm (budgeted) and the unmodified tree walker
// with identical deterministic arguments; outputs and diagnostics must
// be bit-identical. The vm runs first so a budget abort (unbounded loop
// or recursion) skips the input before the unbudgeted tree walker sees
// it — if the vm terminates, the tree walker executes the same
// computation and terminates too. A function that runs without error
// then runs on 2 workers under its New-level plan and under the cleared
// plan, on both engines: the two must end bit-identical with equal
// Stats, and, unless a chosen loop reduces a double, equal to the
// serial tree run.
func checkVMDifferential(t *testing.T, src string) {
	t.Helper()
	if len(src) > 1<<16 {
		return
	}
	prog, err := cminus.Parse(src)
	if err != nil {
		return
	}
	plans := fuzzPlans(src)
	ran := 0
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		if ran++; ran > 8 {
			break
		}
		vm, _, resource := runEngineFuzz(src, "vm", fn.Name, budget.New(nil, vmFuzzBudget), nil, 1)
		if resource {
			continue
		}
		if vm == nil {
			return
		}
		tree, _, _ := runEngineFuzz(src, "tree", fn.Name, nil, nil, 1)
		if vm.err != tree.err {
			t.Fatalf("vm vs tree diagnostics diverge on %s: %q vs %q\ninput: %q", fn.Name, vm.err, tree.err, src)
		}
		if vm.err != "" {
			continue
		}
		if d := diffSnapshots(vm, tree); d != "" {
			t.Fatalf("vm vs tree diverge on %s: %s\ninput: %q", fn.Name, d, src)
		}
		for i, plan := range plans {
			pvm, vmStats, resource := runEngineFuzz(src, "vm", fn.Name, budget.New(nil, vmFuzzBudget), plan, 2)
			if resource || pvm == nil {
				continue
			}
			ptree, treeStats, _ := runEngineFuzz(src, "tree", fn.Name, nil, plan, 2)
			if d := diffSnapshots(pvm, ptree); d != "" || vmStats != treeStats {
				t.Fatalf("vm vs tree diverge on %s under plan %d at 2 workers: %s, counts %+v vs %+v\ninput: %q",
					fn.Name, i, d, vmStats, treeStats, src)
			}
			if floatReduction(plan) {
				continue
			}
			if d := diffSnapshots(ptree, tree); d != "" {
				t.Fatalf("plan %d at 2 workers diverges from the serial run on %s: %s\ninput: %q", i, fn.Name, d, src)
			}
		}
	}
}

// FuzzVMDifferential cross-checks the VM against the tree walker on
// fuzz-generated mini-C, seeded with the FuzzAnalyze seed programs and
// the permanent crashers corpus from internal/core.
func FuzzVMDifferential(f *testing.F) {
	for _, s := range vmFuzzSeeds {
		f.Add(s)
	}
	dir := filepath.Join("..", "core", "testdata", "crashers")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("crasher corpus: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatalf("crasher corpus: %v", err)
		}
		f.Add(string(b))
	}
	f.Fuzz(checkVMDifferential)
}

// TestVMDifferentialSeeds replays the seed corpus through the fuzz body
// on every ordinary `go test` run.
func TestVMDifferentialSeeds(t *testing.T) {
	for _, src := range vmFuzzSeeds {
		checkVMDifferential(t, src)
	}
}
