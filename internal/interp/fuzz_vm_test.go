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

// runEngineFuzz parses src fresh (each engine gets its own machine and
// argument set), runs fn on the named engine, and snapshots the
// outcome. resource is true when the run hit the step budget — only the
// vm engine is budgeted, and a budgeted-out input is skipped entirely.
// flat rewrites the program with flattenProgram before the run.
func runEngineFuzz(src, engine, fnName string, b *budget.B, flat bool) (snap *engineSnapshot, resource bool) {
	prog, err := cminus.Parse(src)
	if err != nil {
		return nil, false
	}
	m, err := New(prog)
	if err != nil {
		// Global-initializer errors are engine-independent; nothing to
		// compare.
		return nil, false
	}
	if flat {
		flattenProgram(m)
	}
	m.Interp = engine
	m.Budget = b
	fn := prog.Func(fnName)
	args, arrs := vmFuzzArgs(fn)
	callErr := m.Call(fnName, args...)
	if callErr != nil && (errors.Is(callErr, budget.ErrBudget) || errors.Is(callErr, budget.ErrCanceled)) {
		return nil, true
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
	return snap, false
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

// treeComparable reports whether fn follows the declare-then-use
// discipline under which the VM's flat slots are documented (see the
// resolve.go header) to match the tree walker exactly: all locals are
// declared, initializer-free, in a prefix of the body. Outside that
// discipline the tree walker's block scoping and use-before-definition
// errors legitimately diverge from the per-function zero-initialized
// slots; such functions are compared against the tree walker running
// the flattenProgram rewrite instead.
func treeComparable(prog *cminus.Program, fn *cminus.FuncDecl) bool {
	// Only scalar declarations make a name a valid scalar assignment
	// target: assigning an array-typed name (e.g. an int* parameter)
	// implicitly defines a block-scoped variable in the tree walker but
	// a function-wide slot in the VM.
	declared := map[string]bool{}
	for _, d := range prog.Globals {
		for _, it := range d.Items {
			declared[it.Name] = len(it.Dims) == 0 && it.PtrDeep == 0
		}
	}
	for _, prm := range fn.Params {
		declared[prm.Name] = len(prm.Dims) == 0 && prm.PtrDeep == 0
	}
	// Declarations must form an initializer-free prefix of the body.
	inPrefix := true
	for _, s := range fn.Body.Stmts {
		d, isDecl := s.(*cminus.DeclStmt)
		if !isDecl {
			inPrefix = false
			continue
		}
		if !inPrefix {
			return false
		}
		for _, it := range d.Items {
			if it.Init != nil {
				return false
			}
			declared[it.Name] = len(it.Dims) == 0 && it.PtrDeep == 0
		}
	}
	ok := true
	cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
		switch x := s.(type) {
		case *cminus.DeclStmt:
			// Nested declarations are block-scoped by the tree walker
			// but flattened by the VM.
			nested := true
			for _, top := range fn.Body.Stmts {
				if top == s {
					nested = false
					break
				}
			}
			if nested {
				ok = false
			}
			_ = x
		case *cminus.AssignStmt:
			// Assigning an undeclared name implicitly defines a
			// zero-initialized slot here but an env variable (after an
			// unbound-read window) in the tree walker.
			if id, isID := x.LHS.(*cminus.Ident); isID && !declared[id.Name] {
				ok = false
			}
		}
		cminus.StmtExprs(s, func(e cminus.Expr) bool {
			if u, isU := e.(*cminus.UnaryExpr); isU && (u.Op == "++" || u.Op == "--") {
				if id, isID := u.X.(*cminus.Ident); isID && !declared[id.Name] {
					ok = false
				}
			}
			return true
		})
		return ok
	})
	return ok
}

// flattenProgram rewrites every function of m.Prog in place so that the
// tree walker runs it with the VM's flat scoping. Each non-parameter
// scalar slot that the VM's own resolution pass assigns becomes one
// initializer-free declaration at the top of its function; every scalar
// declarator becomes an assignment of its initializer, or of 0; array
// declarators stay where they are. A scalar slot that shadows an array
// parameter (p = 0 on int *p) is a non-parameter slot. Positions are
// kept, so diagnostics still match.
func flattenProgram(m *Machine) {
	for _, fn := range m.Prog.Funcs {
		if fn.Body == nil {
			continue
		}
		r := newResolver(m, fn, &bfunc{})
		param := map[[2]int]bool{}
		for _, ps := range r.bf.params {
			param[[2]int{int(ps.kind), ps.idx}] = true
		}
		ints := &cminus.DeclStmt{Type: "int", P: fn.Body.P}
		flts := &cminus.DeclStmt{Type: "double", P: fn.Body.P}
		names := make([]string, 0, len(r.scalars))
		for name := range r.scalars {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := r.scalars[name]
			switch {
			case s.kind == syLocalInt && !param[[2]int{int(psInt), s.idx}]:
				ints.Items = append(ints.Items, cminus.DeclItem{Name: name})
			case s.kind == syLocalFlt && !param[[2]int{int(psFlt), s.idx}]:
				flts.Items = append(flts.Items, cminus.DeclItem{Name: name})
			}
		}
		var top []cminus.Stmt
		for _, d := range []*cminus.DeclStmt{ints, flts} {
			if len(d.Items) > 0 {
				top = append(top, d)
			}
		}
		fn.Body.Stmts = append(top, flattenStmts(fn.Body.Stmts)...)
	}
}

func flattenStmts(stmts []cminus.Stmt) []cminus.Stmt {
	out := make([]cminus.Stmt, 0, len(stmts))
	for _, s := range stmts {
		out = append(out, flattenStmt(s)...)
	}
	return out
}

// flattenStmt rewrites s in place and returns the statements that take
// its place: a declaration splits into its array declarators and one
// assignment per scalar declarator, in declarator order.
func flattenStmt(s cminus.Stmt) []cminus.Stmt {
	switch x := s.(type) {
	case *cminus.DeclStmt:
		var out []cminus.Stmt
		var arrs *cminus.DeclStmt
		for _, it := range x.Items {
			if len(it.Dims) > 0 || it.PtrDeep > 0 {
				if arrs == nil {
					arrs = &cminus.DeclStmt{Type: x.Type, P: x.P}
					out = append(out, arrs)
				}
				arrs.Items = append(arrs.Items, it)
				continue
			}
			arrs = nil
			init := it.Init
			if init == nil {
				init = &cminus.IntLit{P: x.P}
			}
			out = append(out, &cminus.AssignStmt{LHS: &cminus.Ident{Name: it.Name, P: x.P}, RHS: init, P: x.P})
		}
		return out
	case *cminus.Block:
		x.Stmts = flattenStmts(x.Stmts)
	case *cminus.IfStmt:
		flattenStmt(x.Then)
		if x.Else != nil {
			x.Else = flattenOne(x.Else)
		}
	case *cminus.ForStmt:
		if x.Init != nil {
			x.Init = flattenOne(x.Init)
		}
		if x.Post != nil {
			x.Post = flattenOne(x.Post)
		}
		flattenStmt(x.Body)
	case *cminus.WhileStmt:
		flattenStmt(x.Body)
	}
	return []cminus.Stmt{s}
}

// flattenOne flattens a statement in a single-statement position (a for
// clause, an else branch), wrapping a split declaration in a block.
func flattenOne(s cminus.Stmt) cminus.Stmt {
	out := flattenStmt(s)
	if len(out) == 1 {
		return out[0]
	}
	return &cminus.Block{Stmts: out, P: s.Pos()}
}

// checkVMDifferential is the shared fuzz body: every function in the
// program runs through the vm (budgeted) and the tree walker with
// identical deterministic arguments; outputs and diagnostics must be
// bit-identical. Functions outside the declare-then-use discipline
// (treeComparable) run on the tree walker after flattenProgram, so
// every executed function has the oracle as a reference. The vm runs
// first so a budget abort (unbounded loop or recursion) skips the input
// before the unbudgeted tree walker sees it — if the vm terminates, the
// tree walker executes the same computation and terminates too.
func checkVMDifferential(t *testing.T, src string) {
	t.Helper()
	if len(src) > 1<<16 {
		return
	}
	prog, err := cminus.Parse(src)
	if err != nil {
		return
	}
	ran := 0
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		if ran++; ran > 8 {
			break
		}
		vm, resource := runEngineFuzz(src, "vm", fn.Name, budget.New(nil, vmFuzzBudget), false)
		if resource {
			continue
		}
		if vm == nil {
			return
		}
		flat := !treeComparable(prog, fn)
		tree, _ := runEngineFuzz(src, "tree", fn.Name, nil, flat)
		if vm.err != tree.err {
			t.Fatalf("vm vs tree (flat=%v) diagnostics diverge on %s: %q vs %q\ninput: %q", flat, fn.Name, vm.err, tree.err, src)
		}
		if vm.err == "" {
			if d := diffSnapshots(vm, tree); d != "" {
				t.Fatalf("vm vs tree (flat=%v) diverge on %s: %s\ninput: %q", flat, fn.Name, d, src)
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
