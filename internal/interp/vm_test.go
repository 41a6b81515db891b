package interp

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/budget"
	"repro/internal/cminus"
	"repro/internal/parallelize"
	"repro/internal/phase2"
	"repro/internal/ranges"
	"repro/internal/symbolic"
)

var updateShape = flag.Bool("update", false, "rewrite testdata/shape.golden")

// TestUnknownEngineError: satellite regression test for engine-selection
// hardening — an unknown Machine.Interp is rejected with the available
// engine list, so a typo'd -engine flag fails loudly instead of
// silently falling back.
func TestUnknownEngineError(t *testing.T) {
	m := machineFor(t, `int g; void f(int n) { g = n; }`, "llvm")
	err := m.Call("f", 1)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	want := `interp: unknown engine "llvm" (available: vm, tree)`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestVMBudgetExhaustion: the VM bills one Step(vmQuantum) per quantum
// of executed instructions, so an exhausted budget aborts within one
// metering quantum of the limit — and at exactly the same instruction
// every run (deterministic abort point).
func TestVMBudgetExhaustion(t *testing.T) {
	src := `
void spin(int n) {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < n; i++) { acc = acc + i; }
}
`
	const limit = 4096
	run := func() (error, int64) {
		m := machineFor(t, src, "vm")
		m.Budget = budget.New(context.Background(), limit)
		err := m.Call("spin", 1<<30)
		return err, m.Budget.Steps()
	}
	err1, steps1 := run()
	if !errors.Is(err1, budget.ErrBudget) {
		t.Fatalf("err = %v, want budget.ErrBudget", err1)
	}
	if steps1 > limit+vmQuantum {
		t.Fatalf("billed %d steps before aborting, want <= limit+quantum = %d", steps1, limit+vmQuantum)
	}
	err2, steps2 := run()
	if !errors.Is(err2, budget.ErrBudget) {
		t.Fatalf("second run: err = %v, want budget.ErrBudget", err2)
	}
	if steps2 != steps1 {
		t.Fatalf("abort point not deterministic: %d vs %d billed steps", steps1, steps2)
	}

	// The tree walker does not consume the budget: the same machine
	// budget survives a full run untouched.
	m := machineFor(t, src, "tree")
	m.Budget = budget.New(context.Background(), limit)
	if err := m.Call("spin", 1000); err != nil {
		t.Fatalf("tree: %v", err)
	}
	if got := m.Budget.Steps(); got != 0 {
		t.Fatalf("tree billed %d steps, want 0", got)
	}
}

// TestVMBudgetParallelRegion: a plan-chosen loop run as a parallel
// region bills its iterations to the step budget. Each iteration body is
// far shorter than vmQuantum, so the region is billed only because every
// worker carries its partial quantum from one iteration to the next.
func TestVMBudgetParallelRegion(t *testing.T) {
	src := `
void scale(int n, double a[]) {
	int i;
	for (i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
}
`
	const n = 1 << 16
	plan := parallelize.Run(cminus.MustParse(src), phase2.LevelNew, nil)
	run := func(workers int, limit int64) (*Machine, error) {
		m, err := New(plan.Program())
		if err != nil {
			t.Fatal(err)
		}
		m.Plan, m.Workers = plan, workers
		m.Budget = budget.New(context.Background(), limit)
		return m, m.Call("scale", n, NewFloatArray("a", n))
	}

	m, err := run(2, 4096)
	if !errors.Is(err, budget.ErrBudget) {
		t.Fatalf("2 workers, limit 4096: err = %v, want budget.ErrBudget", err)
	}
	if m.Stats.ParallelRegions != 1 {
		t.Fatalf("ran %d parallel regions, want 1", m.Stats.ParallelRegions)
	}

	// Under a limit it never reaches, every iteration is billed at least
	// one step (its segment end), less under one quantum per worker chunk.
	m, err = run(2, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Budget.Steps(); got < n-2*vmQuantum {
		t.Fatalf("2 workers billed %d steps for %d iterations, want >= %d", got, n, n-2*vmQuantum)
	}
}

// TestVMSteadyStateAllocs: after the bytecode is compiled and the frame
// pool is warm, a serial VM call allocates nothing — values live in
// typed columns indexed by compile-time slots, so the dispatch loop
// never boxes.
func TestVMSteadyStateAllocs(t *testing.T) {
	src := `
void kernel(int a[], int n) {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < n; i++) {
		acc = acc + a[i];
		a[i] = acc % 1024;
	}
}
`
	m := machineFor(t, src, "vm")
	a := NewIntArray("a", 256)
	// Pre-boxed argument slice: the steady-state claim is about the VM,
	// not about the host's interface conversions at the Call boundary.
	args := []Arg{a, 255}
	for i := 0; i < 3; i++ {
		if err := m.Call("kernel", args...); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := m.Call("kernel", args...); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("vm Call allocates %.1f allocs/run at steady state, want 0", avg)
	}
}

// TestVMCompileOncePerPlan: the bytecode is compiled on the first call
// and reused by later calls under the same plan; a new plan recompiles.
func TestVMCompileOncePerPlan(t *testing.T) {
	m := machineFor(t, `int g; void f(int n) { g = n * 2; }`, "vm")
	if err := m.Call("f", 21); err != nil {
		t.Fatal(err)
	}
	if got := m.Globals["g"].AsInt(); got != 42 {
		t.Fatalf("g = %d, want 42", got)
	}
	bc := m.bc
	if err := m.Call("f", 21); err != nil {
		t.Fatal(err)
	}
	if m.bc != bc {
		t.Fatal("second call under the same plan recompiled the bytecode")
	}
	m.Plan = parallelize.Run(m.Prog, phase2.LevelNew, nil)
	if err := m.Call("f", 21); err != nil {
		t.Fatal(err)
	}
	if m.bc == bc {
		t.Fatal("a new plan reused the old bytecode")
	}
}

// corpusMachine is a machine over one corpus program's plan at one
// level, named "file level".
type corpusMachine struct {
	name string
	m    *Machine
}

// corpusMachines plans every corpus source in testdata/ at Classical,
// Base and New, each under its "Requires: -assume" list. Compiled code
// does not depend on Workers.
func corpusMachines(t *testing.T) []corpusMachine {
	t.Helper()
	files, err := filepath.Glob("../../testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus sources: %v (%d files)", err, len(files))
	}
	var out []corpusMachine
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var assume []string
		for _, line := range strings.Split(string(src), "\n") {
			if rest, ok := strings.CutPrefix(line, "// Requires: -assume "); ok {
				assume = strings.Split(strings.TrimSpace(rest), ",")
			}
		}
		for _, level := range []struct {
			name string
			l    phase2.Level
		}{{"classical", phase2.LevelClassical}, {"base", phase2.LevelBase}, {"new", phase2.LevelNew}} {
			dict := ranges.New()
			for _, sym := range assume {
				dict.Set(sym, symbolic.One, nil)
			}
			plan := parallelize.Run(cminus.MustParse(string(src)), level.l, &parallelize.Options{Assume: dict})
			m, err := New(plan.Program())
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			m.Plan = plan
			out = append(out, corpusMachine{name: filepath.Base(file) + " " + level.name, m: m})
		}
	}
	return out
}

// TestVMSuperinstructionsEmitted keeps the peephole tied to the
// programs the VM runs: every opcode fuse can write must appear in the
// compiled code of some corpus plan (corpusMachines).
// The opcodes fuse can write are read from its source: an opcode named
// as the Op of an Instr literal, assigned to a variable used as one, or
// reached by the offset idiom in.Op + (opX - opY) from a case of the
// switch on in.Op.
func TestVMSuperinstructionsEmitted(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "bytecode.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string // opcode names in declaration order: names[op]
	index := map[string]int{}
	var fuse *ast.FuncDecl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			if d.Tok != token.CONST {
				continue
			}
			if vs := d.Specs[0].(*ast.ValueSpec); vs.Type == nil || types.ExprString(vs.Type) != "Opcode" {
				continue
			}
			for _, sp := range d.Specs {
				for _, id := range sp.(*ast.ValueSpec).Names {
					index[id.Name] = len(names)
					names = append(names, id.Name)
				}
			}
		case *ast.FuncDecl:
			if d.Name.Name == "fuse" {
				fuse = d
			}
		}
	}
	if fuse == nil || len(names) == 0 {
		t.Fatal("bytecode.go: no opcode list or no fuse")
	}
	// The clauses of fuse's switch on in.Op, whose cases the offset
	// idiom shifts.
	var clauses []*ast.CaseClause
	for _, st := range fuse.Body.List {
		if sw, ok := st.(*ast.SwitchStmt); ok && sw.Tag != nil && types.ExprString(sw.Tag) == "in.Op" {
			for _, c := range sw.Body.List {
				clauses = append(clauses, c.(*ast.CaseClause))
			}
		}
	}
	type write struct {
		op    ast.Expr
		cases []ast.Expr // the enclosing clause's cases
	}
	var writes []write
	assigned := map[string][]string{} // a variable's opcode values
	ast.Inspect(fuse.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.KeyValueExpr:
			if types.ExprString(x.Key) != "Op" {
				return true
			}
			w := write{op: x.Value}
			for _, cc := range clauses {
				if cc.Pos() <= x.Pos() && x.End() <= cc.End() {
					w.cases = cc.List
				}
			}
			writes = append(writes, w)
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, l := range x.Lhs {
				if r, ok := x.Rhs[i].(*ast.Ident); ok {
					if _, isOp := index[r.Name]; isOp {
						assigned[types.ExprString(l)] = append(assigned[types.ExprString(l)], r.Name)
					}
				}
			}
		}
		return true
	})
	fused := map[string]bool{}
	for _, w := range writes {
		if id, ok := w.op.(*ast.Ident); ok {
			if _, isOp := index[id.Name]; isOp {
				fused[id.Name] = true
				continue
			}
			if ops := assigned[id.Name]; len(ops) > 0 {
				for _, op := range ops {
					fused[op] = true
				}
				continue
			}
		}
		// in.Op + (opX - opY): each case of the switch shifted by X-Y.
		if b, ok := w.op.(*ast.BinaryExpr); ok && b.Op == token.ADD && types.ExprString(b.X) == "in.Op" {
			if d, ok := ast.Unparen(b.Y).(*ast.BinaryExpr); ok && d.Op == token.SUB {
				x, okX := index[types.ExprString(d.X)]
				y, okY := index[types.ExprString(d.Y)]
				if okX && okY {
					for _, c := range w.cases {
						fused[names[index[types.ExprString(c)]+x-y]] = true
					}
					continue
				}
			}
		}
		t.Errorf("fuse writes Op: %s, which this test cannot resolve to opcodes", types.ExprString(w.op))
	}

	emitted := map[Opcode]bool{}
	for _, cm := range corpusMachines(t) {
		for _, bf := range cm.m.ensureBytecode().funcs {
			for _, in := range bf.code {
				emitted[in.Op] = true
			}
		}
	}
	var all, missing []string
	for name := range fused {
		all = append(all, name)
		if !emitted[Opcode(index[name])] {
			missing = append(missing, name)
		}
	}
	sort.Strings(all)
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("fuse can produce %d superinstructions no corpus plan emits: %s", len(missing), strings.Join(missing, " "))
	}
	t.Logf("fuse can produce %d superinstructions: %s", len(all), strings.Join(all, " "))
}

// intDest returns the int register an instruction writes, or -1.
func intDest(in Instr) int32 {
	switch in.Op {
	case opIConst, opIMove, opF2I, opIAdd, opIAddK, opIMulK, opIMulAdd, opIMulKAdd,
		opISub, opIMul, opIDiv, opIMod, opIAnd, opIOr, opIXor, opIShl, opIShr, opINeg,
		opIBNot, opILt, opILe, opIEq, opINe, opFLt, opFLe, opFEq, opFNe, opGetGI,
		opGetCI, opALoad1I, opALoadI, opGathLoadI, opIMulAddL, opAIdx0, opAIdxN,
		opAIdx01, opRowLoadI, opPar:
		return in.A
	case opJIncLt, opJIKIncLt:
		return in.B
	case opCallU:
		if in.K == 0 {
			return in.A
		}
	}
	return -1
}

// indexRegs returns the int registers an instruction reads as array
// subscripts.
func indexRegs(in Instr) []int32 {
	switch in.Op {
	case opALoad1I, opALoad1F, opAStore1I, opAStore1F, opAUpd1I, opAUpd1F, opAIdxN,
		opGathLoadI, opGathLoadF, opGathStoreI, opGathStoreF, opGathMulAccF,
		opFMulAccL, opIMulAddL, opRowLoadI, opRowLoadF, opRowStoreI, opRowStoreF:
		return []int32{in.C}
	case opAIdx0:
		if in.C >= 0 {
			return []int32{in.C}
		}
	case opAIdx01:
		return []int32{in.C, int32(uint32(in.K))}
	case opRow:
		if rank, vdim := in.K>>32, int64(uint32(in.K)); rank > 2 || vdim == rank {
			return []int32{in.C, in.Aux}
		}
		return []int32{in.C}
	}
	return nil
}

// isJump reports whether in's A is a jump target.
func isJump(op Opcode) bool {
	return op >= opJump && op <= opJIKIncLt || op == opJNoPar || op == opParEnter
}

// innerLoops returns the instructions, top to back edge, of each
// innermost loop of a compiled function, in code order: what one
// iteration of a straight-line body runs.
func innerLoops(bf *bfunc) []int {
	var sizes []int
	for pc, in := range bf.code {
		if !isJump(in.Op) || int(in.A) > pc {
			continue
		}
		inner := true
		for q := int(in.A); q < pc && inner; q++ {
			inner = !isJump(bf.code[q].Op) || int(bf.code[q].A) > q || int(bf.code[q].A) < int(in.A)
		}
		if inner {
			sizes = append(sizes, pc-int(in.A)+1)
		}
	}
	return sizes
}

// shapeCounts summarizes one compiled function for the shape golden.
func shapeCounts(bf *bfunc) string {
	var addK, fconst, backEdges int
	for _, in := range bf.code {
		switch in.Op {
		case opIAddK:
			addK++
		case opFConst:
			fconst++
		case opJIncLt, opJIKIncLt:
			backEdges++
		}
	}
	return fmt.Sprintf("%d instrs, %d opIAddK, %d opFConst, %d fused back edges, innermost loops %v",
		len(bf.code), addK, fconst, backEdges, innerLoops(bf))
}

// hoistable states the rule by which a loop hoists rows out of its
// body (hoistRows) on its own: it maps the unknown-array message of
// each multi-dimensional load and plain store in a for loop's body,
// outside nested loops, whose subscripts are built of int literals,
// names and + - *, all but at most one reading only local ints the
// loop does not write, and whose array the loop does not declare, to
// whether the plan chooses that loop.
func hoistable(m *Machine, fn *cminus.FuncDecl) map[string]bool {
	binds := cminus.Bind(m.Prog, fn)
	out := map[string]bool{}
	for _, loop := range cminus.NumberLoops(fn.Body) {
		written, _ := cminus.Writes(loop)
		lp := m.funcPlan(fn.Name).Loops[loop.Label]
		chosen := lp != nil && lp.Chosen
		// invariant reports whether e is built of literals, names and
		// + - *, and whether it reads only unwritten local ints.
		var invariant func(e cminus.Expr) (pure, inv bool)
		invariant = func(e cminus.Expr) (pure, inv bool) {
			switch x := e.(type) {
			case *cminus.IntLit:
				return true, true
			case *cminus.Ident:
				bd := binds.Of(x)
				local := bd != nil && !bd.Float && slices.Contains(binds.Locals, bd)
				return bd != nil, local && !slices.Contains(written, x.Name)
			case *cminus.BinaryExpr:
				if x.Op != "+" && x.Op != "-" && x.Op != "*" {
					return false, false
				}
				px, ix := invariant(x.X)
				py, iy := invariant(x.Y)
				return px && py, ix && iy
			}
			return false, false
		}
		access := func(ix *cminus.IndexExpr, pos cminus.Position) {
			name, idx, ok := cminus.ArrayBase(ix)
			if !ok || len(idx) < 2 || binds.Array(ix) != binds.Lookup(loop, name, true) {
				return
			}
			varying := 0
			for _, e := range idx {
				pure, inv := invariant(e)
				if !pure || binds.Float(e) {
					return
				}
				if !inv {
					varying++
				}
			}
			if varying <= 1 {
				out[fmt.Sprintf("interp: unknown array %q at %s", name, pos)] = chosen
			}
		}
		// loads records an access as a load and walks its subscripts,
		// not the rest of its chain.
		var loads func(e cminus.Expr) bool
		subscripts := func(ix *cminus.IndexExpr) {
			_, idx, _ := cminus.ArrayBase(ix)
			for _, e := range idx {
				cminus.WalkExprs(e, loads)
			}
		}
		loads = func(e cminus.Expr) bool {
			ix, ok := e.(*cminus.IndexExpr)
			if ok {
				access(ix, ix.P)
				subscripts(ix)
			}
			return !ok
		}
		cminus.WalkStmts(loop.Body, func(s cminus.Stmt) bool {
			switch x := s.(type) {
			case *cminus.ForStmt, *cminus.WhileStmt:
				return false
			case *cminus.AssignStmt:
				if ix, ok := x.LHS.(*cminus.IndexExpr); ok && x.Op == "" {
					access(ix, x.P)
					subscripts(ix)
					cminus.WalkExprs(x.RHS, loads)
					return true
				}
			}
			cminus.StmtExprs(s, loads)
			return true
		})
	}
	return out
}

// innerMax bounds, in code order, the instructions of each innermost
// loop of the dense kernels whose rows the VM hoists; a parallel
// segment's copy of a loop counts apart. An iteration of heat-3d's
// stencil runs at most 27, of MG's residual 28, of gramschmidt's norm,
// scale, dot and update loops 4, 5, 7 and 7, of syrk's scale and update
// loops 4 and 8, of fdtd-2d's boundary loop 3, of its ey and ex sweeps
// 8 and of its hz sweep, with five loads, 12.
var innerMax = map[string][]int{
	"heat_3d.c":     {27, 27},
	"mg.c":          {28, 28},
	"gramschmidt.c": {4, 5, 7, 7, 7, 7},
	"syrk.c":        {4, 8, 4, 8},
	"fdtd_2d.c":     {3, 8, 8, 12, 8, 8, 12},
}

// TestVMCompiledShape pins what the compiler makes of the normalized
// loops every engine runs, whose subscripts carry the loop's shift
// (heat-3d reads A[i + 1 + 1][j + 1][k + 1]) and whose bounds are
// expressions such as n - 1 - 1:
//   - Instr stays 48 bytes;
//   - no corpus function computes a subscript x ± c with an opIAddK
//     into a temp that an index operand then reads: the indexing op adds
//     the constant itself;
//   - no corpus loop body addresses an access the loop could hoist
//     (hoistable) through an opAIdx0/opAIdx01 chain, but the body of a
//     parallel segment, which hoists nothing;
//   - every innermost loop of the dense kernels is at most innerMax;
//   - a normalized loop with a compound invariant bound ends in a fused
//     back edge;
//   - testdata/shape.golden holds each corpus function's instruction,
//     opIAddK, opFConst and fused back-edge counts and the size of each
//     innermost loop (-update rewrites it).
func TestVMCompiledShape(t *testing.T) {
	if size := unsafe.Sizeof(Instr{}); size != 48 {
		t.Errorf("Instr is %d bytes, want 48", size)
	}

	var golden strings.Builder
	for _, cm := range corpusMachines(t) {
		bp := cm.m.ensureBytecode()
		var names []string
		for name := range bp.funcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bf := bp.funcs[name]
			fmt.Fprintf(&golden, "%s %s: %s\n", cm.name, name, shapeCounts(bf))
			file, _, _ := strings.Cut(cm.name, " ")
			if most, ok := innerMax[file]; ok {
				sizes := innerLoops(bf)
				if len(sizes) != len(most) {
					t.Errorf("%s %s: %d innermost loops, want %d", cm.name, name, len(sizes), len(most))
				}
				for i, n := range sizes {
					if i < len(most) && n > most[i] {
						t.Errorf("%s %s: innermost loop %d runs %d instructions an iteration, want at most %d", cm.name, name, i, n, most[i])
					}
				}
			}
			segs := len(bf.code)
			for _, pl := range bf.pars {
				segs = min(segs, int(pl.bodyPC))
			}
			hoist := hoistable(cm.m, cm.m.Prog.Func(name))
			for pc, in := range bf.code {
				if in.Op != opAIdx01 && (in.Op != opAIdx0 || in.C < 0 || in.K < 2) {
					continue
				}
				if chosen, ok := hoist[bf.strs[in.Aux]]; ok && (pc < segs || !chosen) {
					t.Errorf("%s %s: pc %d addresses a hoistable access through a chain (%s)", cm.name, name, pc, bf.strs[in.Aux])
				}
			}
			// Registers at or above the named int slots are temps.
			named := &bfunc{name: name}
			newResolver(cm.m, cm.m.Prog.Func(name), named)
			targets := map[int32]bool{}
			for _, in := range bf.code {
				if isJump(in.Op) {
					targets[in.A] = true
				}
			}
			for _, pl := range bf.pars {
				targets[pl.bodyPC] = true
			}
			for q, in := range bf.code {
				for _, r := range indexRegs(in) {
					if r < int32(named.nInts) {
						continue
					}
					// The subscript's definition, searched back to the
					// start of q's straight-line block.
					for p := q - 1; p >= 0 && !targets[int32(p+1)]; p-- {
						if intDest(bf.code[p]) != r {
							continue
						}
						if bf.code[p].Op == opIAddK {
							t.Errorf("%s %s: pc %d adds %d into temp %d for the subscript read at pc %d",
								cm.name, name, p, bf.code[p].K, r, q)
						}
						break
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "shape.golden")
	if *updateShape {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if golden.String() != string(want) {
		t.Errorf("compiled shape differs from %s (-update rewrites it):\n%s", path, golden.String())
	}

	m := machineFor(t, `
void f(int n, double *a) {
	int i, j;
	for (i = 0; i < n - 1 - 1; i = i + 1) {
		for (j = 0; j < n - 1 - 1; j = j + 1) {
			a[j + 1] = a[j + 1 + 1] + 0.5;
		}
	}
}`, "vm")
	backEdges := 0
	for pc, in := range m.ensureBytecode().funcs["f"].code {
		switch {
		case in.Op == opJIncLt:
			backEdges++
		case in.Op == opIAddK && in.A == in.B:
			t.Errorf("pc %d: a loop index steps by its own opIAddK, outside a fused back edge", pc)
		}
	}
	if backEdges != 2 {
		t.Errorf("two normalized loops bounded by n - 1 - 1 end in %d fused back edges, want 2", backEdges)
	}
}

// goRelation applies a mini-C relational operator with Go's semantics:
// every ordered float relation is false when a side is NaN, and != is
// true.
func goRelation[T int64 | float64](op string, a, b T) bool {
	switch op {
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	case "==":
		return a == b
	}
	return a != b
}

// TestVMRelations pins every relation in each context the bytecode
// compiler lowers its own way: materialized to 0/1, branched on in both
// senses (if and if-not), and as a for-loop condition stepping up and
// down. The operands are int registers, an int literal on either side,
// and floats including NaN and both zeros. The tree walker, the VM and
// Go's own operators must agree; the engines must agree bit for bit.
func TestVMRelations(t *testing.T) {
	rels := []string{"<", "<=", ">", ">=", "==", "!="}
	// holds is Go's answer to l op r.
	holds := func(op string, l, r Arg) bool {
		if lf, ok := l.(float64); ok {
			return goRelation(op, lf, r.(float64))
		}
		return goRelation(op, l.(int64), r.(int64))
	}
	add := func(v Arg, d int) Arg {
		if f, ok := v.(float64); ok {
			return f + float64(d)
		}
		return v.(int64) + int64(d)
	}
	asF := func(v Arg) float64 {
		if f, ok := v.(float64); ok {
			return f
		}
		return float64(v.(int64))
	}

	const loopCap = 6
	three := Arg(int64(3))
	ints := []Arg{int64(-3), int64(0), int64(2), int64(3), int64(4)}
	kinds := []struct {
		name   string
		params string
		l, r   string // the relation's operands over a and b
		vals   []Arg
		// operands maps a and b to Go's operands of the relation.
		operands func(a, b Arg) (Arg, Arg)
	}{
		{"int", "int a, int b", "a", "b", ints, func(a, b Arg) (Arg, Arg) { return a, b }},
		{"lit-right", "int a, int b", "a", "3", ints, func(a, b Arg) (Arg, Arg) { return a, three }},
		{"lit-left", "int a, int b", "3", "a", ints, func(a, b Arg) (Arg, Arg) { return three, a }},
		{"float", "double a, double b", "a", "b", []Arg{math.NaN(), 0.0, math.Copysign(0, -1), -1.5, 1.5, math.Inf(1)},
			func(a, b Arg) (Arg, Arg) { return a, b }},
	}

	for _, k := range kinds {
		// The loop variable v starts at a and stands in for it in the
		// condition.
		lv, rv := strings.ReplaceAll(k.l, "a", "v"), strings.ReplaceAll(k.r, "a", "v")
		vtyp, one := "int", "1"
		if _, ok := k.vals[0].(float64); ok {
			vtyp, one = "double", "1.0"
		}
		var src strings.Builder
		fmt.Fprintf(&src, "void val(%s, int *out) {\n", k.params)
		for i, op := range rels {
			fmt.Fprintf(&src, "  out[%d] = %s %s %s;\n", i, k.l, op, k.r)
		}
		fmt.Fprintf(&src, "}\nvoid br(%s, int *out) {\n", k.params)
		for i, op := range rels {
			fmt.Fprintf(&src, "  if (%s %s %s) { out[%d] = 1; } else { out[%d] = 2; }\n", k.l, op, k.r, i, i)
			fmt.Fprintf(&src, "  if (!(%s %s %s)) { out[%d] = 1; } else { out[%d] = 2; }\n", k.l, op, k.r, 6+i, 6+i)
		}
		fmt.Fprintf(&src, "}\nvoid loop(%s, int *trips, double *fin) {\n  int c;\n  %s v;\n", k.params, vtyp)
		for i, op := range rels {
			for s, step := range []string{"+", "-"} {
				fmt.Fprintf(&src, "  c = 0;\n  for (v = a; %s %s %s; v = v %s %s) { c = c + 1; if (c >= %d) { break; } }\n",
					lv, op, rv, step, one, loopCap)
				fmt.Fprintf(&src, "  trips[%d] = c;\n  fin[%d] = v;\n", 2*i+s, 2*i+s)
			}
		}
		src.WriteString("}\n")

		var ends [2][][]uint64
		for e, engine := range []string{"vm", "tree"} {
			m := machineFor(t, src.String(), engine)
			for _, a := range k.vals {
				for _, b := range k.vals {
					val, br := NewIntArray("out", 6), NewIntArray("out", 12)
					trips, fin := NewIntArray("trips", 12), NewFloatArray("fin", 12)
					for _, c := range []struct {
						fn   string
						args []Arg
					}{{"val", []Arg{a, b, val}}, {"br", []Arg{a, b, br}}, {"loop", []Arg{a, b, trips, fin}}} {
						if err := m.Call(c.fn, c.args...); err != nil {
							t.Fatalf("%s/%s %s(%v, %v): %v", engine, k.name, c.fn, a, b, err)
						}
					}
					ends[e] = append(ends[e], snapshotArray(val), snapshotArray(br), snapshotArray(trips), snapshotArray(fin))

					for i, op := range rels {
						l, r := k.operands(a, b)
						w := b2i(holds(op, l, r))
						if val.Ints[i] != w {
							t.Errorf("%s/%s: out = %s %s %s at a=%v b=%v is %d, Go says %d", engine, k.name, k.l, op, k.r, a, b, val.Ints[i], w)
						}
						if br.Ints[i] != 2-w || br.Ints[6+i] != 1+w {
							t.Errorf("%s/%s: if (%s %s %s) at a=%v b=%v took %d, if-not took %d; Go says %d", engine, k.name, k.l, op, k.r, a, b, br.Ints[i], br.Ints[6+i], w)
						}
						for s := 0; s < 2; s++ {
							var c int64
							v := a
							for ; ; v = add(v, 1-2*s) {
								if l, r := k.operands(v, b); !holds(op, l, r) {
									break
								}
								if c++; c >= loopCap {
									break
								}
							}
							j, wf := 2*i+s, asF(v)
							if gf := fin.Flts[j]; trips.Ints[j] != c || !(gf == wf || math.IsNaN(gf) && math.IsNaN(wf)) {
								t.Errorf("%s/%s: for (v = a; %s %s %s; v += %d) at a=%v b=%v ran %d trips ending at %v, Go ran %d ending at %v",
									engine, k.name, lv, op, rv, 1-2*s, a, b, trips.Ints[j], gf, c, wf)
							}
						}
					}
				}
			}
		}
		if !reflect.DeepEqual(ends[0], ends[1]) {
			t.Errorf("%s: vm and tree end states differ bit for bit", k.name)
		}
	}
}
