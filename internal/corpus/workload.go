package corpus

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cminus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// Scale selects a workload size.
type Scale int

const (
	// ScaleQuick is sized for differential tests: every benchmark runs in
	// milliseconds while still exercising the parallel drivers.
	ScaleQuick Scale = iota
	// ScaleBench is sized for runtime benchmarks: kernels dominate over
	// call overhead.
	ScaleBench
)

// Call is one step of a workload: a function and its arguments.
type Call struct {
	Fn   string
	Args []interp.Arg
}

// Work is one benchmark's executable workload: deterministic input
// arrays plus the call sequence (fill loops first, then the kernel).
// Two Works built with the same benchmark and scale are bit-identical,
// so array end states are directly comparable across engines and
// worker counts.
type Work struct {
	Bench *Benchmark
	Calls []Call
	// Arrays holds every array argument by name, the observable end
	// state of the workload.
	Arrays map[string]*interp.Array
}

// Run executes the workload's calls on m in order.
func (w *Work) Run(m *interp.Machine) error {
	for _, c := range w.Calls {
		if err := m.Call(c.Fn, c.Args...); err != nil {
			return fmt.Errorf("%s: %w", c.Fn, err)
		}
	}
	return nil
}

// NewMachine builds an executor for the workload's benchmark with the
// plan from the paper's full analysis (LevelNew) attached.
func (w *Work) NewMachine(workers int) (*interp.Machine, error) {
	plan := PlanFor(w.Bench, phase2.LevelNew)
	return machineForPlan(plan, workers)
}

func machineForPlan(plan *parallelize.Plan, workers int) (*interp.Machine, error) {
	m, err := interp.New(plan.Program())
	if err != nil {
		return nil, err
	}
	m.Plan = plan
	if workers < 1 {
		workers = 1
	}
	m.Workers = workers
	return m, nil
}

// NewWork builds the deterministic workload for benchmark b. It panics
// on an unknown benchmark (the corpus is closed).
func NewWork(b *Benchmark, scale Scale) *Work {
	w := &Work{Bench: b, Arrays: map[string]*interp.Array{}}
	rng := rand.New(rand.NewSource(int64(1789 + len(b.Name))))
	q := scale == ScaleQuick
	pick := func(quick, bench int) int {
		if q {
			return quick
		}
		return bench
	}
	ints := func(name string, dims ...int64) *interp.Array {
		a := interp.NewIntArray(name, dims...)
		w.Arrays[name] = a
		return a
	}
	flts := func(name string, dims ...int64) *interp.Array {
		a := interp.NewFloatArray(name, dims...)
		w.Arrays[name] = a
		return a
	}
	randFlts := func(name string, dims ...int64) *interp.Array {
		a := flts(name, dims...)
		for i := range a.Flts {
			a.Flts[i] = rng.Float64()*2 - 1
		}
		return a
	}

	switch b.Name {
	case "AMGmk":
		rows := pick(300, 20000)
		ai := ints("A_i", int64(rows+1))
		nnz, nonzeroRows := 0, 0
		for i := 0; i < rows; i++ {
			ai.Ints[i] = int64(nnz)
			rl := rng.Intn(6) // some rows empty
			if rl > 0 {
				nonzeroRows++
			}
			nnz += rl
		}
		ai.Ints[rows] = int64(nnz)
		rownnz := ints("A_rownnz", int64(rows))
		count := ints("out_count", 1)
		aj := ints("A_j", int64(max(nnz, 1)))
		for i := range aj.Ints {
			aj.Ints[i] = int64(rng.Intn(rows))
		}
		adata := randFlts("A_data", int64(max(nnz, 1)))
		x := randFlts("x_data", int64(rows))
		y := randFlts("y_data", int64(rows))
		w.Calls = []Call{
			{Fn: "amg_fill", Args: []interp.Arg{rows, ai, rownnz, count}},
			{Fn: "amg_matvec", Args: []interp.Arg{nonzeroRows, rows, rownnz, ai, aj, adata, x, y}},
		}

	case "CHOLMOD-Supernodal":
		nsuper, bs := pick(50, 2000), pick(4, 8)
		lpx := ints("Lpx", int64(nsuper+1))
		lx := randFlts("Lx", int64(nsuper*bs))
		diag := flts("diag", int64(nsuper))
		for i := range diag.Flts {
			diag.Flts[i] = 1 + rng.Float64() // keep divisions well-conditioned
		}
		w.Calls = []Call{
			{Fn: "chol_fill", Args: []interp.Arg{nsuper, bs, lpx}},
			{Fn: "chol_scale", Args: []interp.Arg{nsuper, lpx, lx, diag}},
		}

	case "SDDMM":
		nCols, k, nRows := pick(40, 500), pick(8, 32), pick(50, 600)
		// One run of column values per column, lengths >= 1.
		var colVals []int64
		for c := 0; c < nCols; c++ {
			for r := 1 + rng.Intn(3); r > 0; r-- {
				colVals = append(colVals, int64(c))
			}
		}
		nonzeros := len(colVals)
		cv := ints("col_val", int64(nonzeros))
		copy(cv.Ints, colVals)
		cp := ints("col_ptr", int64(nCols+1))
		for i := range cp.Ints {
			// The fill loop writes the interior boundaries; the final
			// boundary col_ptr[n_cols] stays at the nonzero count.
			cp.Ints[i] = int64(nonzeros)
		}
		holder := ints("out_holder", 1)
		ri := ints("row_ind", int64(nonzeros))
		for i := range ri.Ints {
			ri.Ints[i] = int64(rng.Intn(nRows))
		}
		wMat := randFlts("W", int64(nCols*k))
		h := randFlts("H", int64(nRows*k))
		nv := randFlts("nnz_val", int64(nonzeros))
		p := flts("p", int64(nonzeros))
		w.Calls = []Call{
			{Fn: "sddmm_fill", Args: []interp.Arg{nonzeros, cv, cp, holder}},
			{Fn: "sddmm", Args: []interp.Arg{nCols, k, nCols, cp, ri, wMat, h, nv, p}},
		}

	case "UA(transf)":
		lelt := pick(6, 300)
		idel := ints("idel", int64(lelt), 6, 5, 5)
		tx := randFlts("tx", int64(125*lelt))
		tmort := randFlts("tmort", int64(150*lelt))
		w.Calls = []Call{
			{Fn: "ua_fill", Args: []interp.Arg{lelt, idel}},
			{Fn: "ua_transf", Args: []interp.Arg{lelt, idel, tx, tmort}},
		}

	case "CG":
		n := pick(200, 8000)
		rowstr := ints("rowstr", int64(n+1))
		nnz := 0
		for i := 0; i < n; i++ {
			rowstr.Ints[i] = int64(nnz)
			nnz += 1 + rng.Intn(5)
		}
		rowstr.Ints[n] = int64(nnz)
		colidx := ints("colidx", int64(nnz))
		for i := range colidx.Ints {
			colidx.Ints[i] = int64(rng.Intn(n))
		}
		a := randFlts("a", int64(nnz))
		p := randFlts("p", int64(n))
		wv := flts("w", int64(n))
		w.Calls = []Call{
			{Fn: "cg_matvec", Args: []interp.Arg{n, rowstr, colidx, a, p, wv}},
		}

	case "heat-3d":
		n := pick(16, 72)
		a := randFlts("A", int64(n), 120, 120)
		bArr := flts("B", int64(n), 120, 120)
		w.Calls = []Call{
			{Fn: "heat3d_step", Args: []interp.Arg{n, a, bArr}},
		}

	case "fdtd-2d":
		tmax, nx, ny := pick(2, 3), pick(30, 200), pick(30, 200)
		ex := randFlts("ex", int64(nx), 1000)
		ey := randFlts("ey", int64(nx), 1000)
		hz := randFlts("hz", int64(nx), 1000)
		fict := randFlts("fict", int64(tmax))
		w.Calls = []Call{
			{Fn: "fdtd2d", Args: []interp.Arg{tmax, nx, ny, ex, ey, hz, fict}},
		}

	case "gramschmidt":
		m, n := pick(24, 100), pick(16, 80)
		a := flts("A", int64(m), 600)
		for i := range a.Flts {
			a.Flts[i] = 0.5 + rng.Float64() // keep columns independent enough
		}
		r := flts("R", int64(n), 600)
		qArr := flts("Q", int64(m), 600)
		w.Calls = []Call{
			{Fn: "gramschmidt", Args: []interp.Arg{m, n, a, r, qArr}},
		}

	case "syrk":
		n, m := pick(24, 140), pick(16, 100)
		c := randFlts("C", int64(n), 1200)
		a := randFlts("A", int64(n), 1000)
		w.Calls = []Call{
			{Fn: "syrk", Args: []interp.Arg{n, m, 1.5, 0.5, c, a}},
		}

	case "MG":
		n := pick(14, 64)
		u := randFlts("u", int64(n), 130, 130)
		v := randFlts("v", int64(n), 130, 130)
		r := flts("r", int64(n), 130, 130)
		w.Calls = []Call{
			{Fn: "mg_resid", Args: []interp.Arg{n, u, v, r}},
		}

	case "IS":
		n, maxkey := pick(500, 100000), pick(64, 2048)
		keys := ints("key_array", int64(n))
		for i := range keys.Ints {
			keys.Ints[i] = int64(rng.Intn(maxkey))
		}
		buff := ints("key_buff", int64(maxkey))
		w.Calls = []Call{
			{Fn: "is_rank", Args: []interp.Arg{n, keys, buff}},
		}

	case "Incomplete-Cholesky":
		n := pick(100, 4000)
		rowlen := ints("rowlen", int64(n))
		nnz := 0
		for i := range rowlen.Ints {
			rl := 1 + rng.Intn(4)
			rowlen.Ints[i] = int64(rl)
			nnz += rl
		}
		ia := ints("ia", int64(n+1))
		ja := ints("ja", int64(nnz))
		for i := range ja.Ints {
			ja.Ints[i] = int64(rng.Intn(n))
		}
		val := randFlts("val", int64(nnz))
		diag := flts("diag", int64(n))
		for i := range diag.Flts {
			diag.Flts[i] = 1 + rng.Float64()
		}
		w.Calls = []Call{
			{Fn: "ic_fill", Args: []interp.Arg{n, rowlen, ia}},
			{Fn: "ic_sweep", Args: []interp.Arg{n, ia, ja, val, diag}},
		}

	case "Scatter-Identity", "Scatter-Shuffle":
		n := pick(400, 20000)
		p := ints("p", int64(n))
		a := randFlts("a", int64(n))
		bArr := randFlts("b", int64(n))
		w.Calls = []Call{
			{Fn: "scatter_fill", Args: []interp.Arg{n, p}},
			{Fn: "scatter", Args: []interp.Arg{n, p, a, bArr}},
		}

	case "Scatter-Interleave":
		n := pick(200, 10000)
		p := ints("p", int64(2*n))
		a := randFlts("a", int64(2*n))
		bArr := randFlts("b", int64(2*n))
		w.Calls = []Call{
			{Fn: "scatter_fill", Args: []interp.Arg{n, p}},
			{Fn: "scatter", Args: []interp.Arg{2 * n, p, a, bArr}},
		}

	default:
		panic(fmt.Sprintf("corpus: no workload for benchmark %q", b.Name))
	}
	return w
}

// Scramble names a way to corrupt the subscript array a plan's guard
// checks (depend.Guard).
type Scramble string

// Scrambles lists the corruptions Adversarial applies, at the middle m
// of the section (a block boundary of a blocked array) or at its end.
var Scrambles = []Scramble{
	"duplicate",      // x[m] = x[m-1]
	"descending-run", // x[m-2:m+2] reversed
	"short-fill",     // last element zeroed, as a fill one element short leaves it
}

// Adversarial builds b's quick workload with its fill calls replaced by
// their result, scrambled: the fills run once serially, then s corrupts
// every array a guard of the kernel's chosen loops checks, within the
// section the loop reads. Only the kernel call remains. It returns nil
// when no chosen loop of the kernel carries a guard.
func Adversarial(b *Benchmark, s Scramble) (*Work, error) {
	w := NewWork(b, ScaleQuick)
	m, err := w.NewMachine(1)
	if err != nil {
		return nil, err
	}
	kernel := w.Calls[len(w.Calls)-1]
	w.Calls = w.Calls[:len(w.Calls)-1]
	if err := w.Run(m); err != nil {
		return nil, err
	}
	w.Calls = []Call{kernel}
	plan := PlanFor(b, phase2.LevelNew)
	fn, fp := plan.Program().Func(b.KernelFunc), plan.Funcs[b.KernelFunc]
	arg := map[string]interp.Arg{}
	for i, p := range fn.Params {
		arg[p.Name] = kernel.Args[i]
	}
	guarded := false
	for _, loop := range cminus.NumberLoops(fn.Body) {
		lp := fp.Loops[loop.Label]
		if lp == nil || !lp.Chosen {
			continue
		}
		var n int
		if _, bound, err := parallelize.Canonical(loop); err == nil {
			if id, ok := bound.(*cminus.Ident); ok {
				n, _ = arg[id.Name].(int)
			}
		}
		for _, g := range lp.Decision.Guards {
			a, _ := arg[g.Array].(*interp.Array)
			if a == nil || n < 4 {
				return nil, fmt.Errorf("%s: loop %s: no int bound of at least 4 or no array %s", b.Name, lp.Label, g.Array)
			}
			block := len(a.Ints) / int(a.Dims[0])
			x, mid := a.Ints, n/2*block
			switch s {
			case "duplicate":
				x[mid] = x[mid-1]
			case "descending-run":
				slices.Reverse(x[mid-2 : mid+2])
			case "short-fill":
				x[n*block-1] = 0
			}
			guarded = true
		}
	}
	if !guarded {
		return nil, nil
	}
	return w, nil
}
