package kernels

import (
	"fmt"
	"testing"

	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/interp"
)

// TestKernelsMatchCorpusPrograms pins every hand kernel to the corpus
// program the analyzer analyzes for its benchmark. The figures simulate
// the kernels' work models, while the plans come from the programs, so
// the two must compute the same thing. Each kernel of smallSet runs
// serially; its corpus program gets the same input on the VM, serially,
// fill loops included (AMGmk's A_rownnz, CHOLMOD's Lpx, SDDMM's col_ptr,
// UA's idel, Incomplete-Cholesky's ia), and the end states must agree:
// integers exactly, floats within a relative 1e-9.
func TestKernelsMatchCorpusPrograms(t *testing.T) {
	for _, k := range smallSet() {
		t.Run(k.Name(), func(t *testing.T) {
			k.Reset()
			bench, calls, check := programRun(k)
			k.RunSerial()
			m, err := interp.New(cminus.MustParse(bench.Source))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range calls {
				if err := m.Call(c.Fn, c.Args...); err != nil {
					t.Fatalf("%s: %v", c.Fn, err)
				}
			}
			check(t)
		})
	}
}

// programRun gives kernel k's current (initial) input to its corpus
// program: the benchmark, the fill and kernel calls, and a check to run
// once both the kernel and the calls have run. The corpus programs
// declare fixed inner extents (A[][120][120]), so a kernel's n×n×n grid
// sits in the leading corner of the program's array.
func programRun(k Kernel) (*corpus.Benchmark, []corpus.Call, func(t *testing.T)) {
	type arg = interp.Arg
	var outs []func(t *testing.T)
	ints := func(got *interp.Array, want []int32) {
		outs = append(outs, func(t *testing.T) { checkInts(t, got, want) })
	}
	flts := func(got *interp.Array, want []float64, shape ...int64) {
		outs = append(outs, func(t *testing.T) { checkFlts(t, got, want, shape) })
	}
	var b *corpus.Benchmark
	var calls []corpus.Call
	switch k := k.(type) {
	case *AMG:
		b = corpus.AMGmk
		rows := k.mat.Rows
		ai := intArr("A_i", k.mat.RowPtr)
		rownnz := interp.NewIntArray("A_rownnz", int64(rows))
		count := interp.NewIntArray("out_count", 1)
		y := fltArr("y_data", k.y)
		calls = []corpus.Call{
			{Fn: "amg_fill", Args: []arg{rows, ai, rownnz, count}},
			{Fn: "amg_matvec", Args: []arg{len(k.rownnz), rows, rownnz, ai, intArr("A_j", k.mat.ColIdx),
				fltArr("A_data", k.mat.Val), fltArr("x_data", k.x), y}},
		}
		ints(count, []int32{int32(len(k.rownnz))})
		ints(rownnz, k.rownnz)
		flts(y, k.y)
	case *CHOLMOD:
		b = corpus.CHOLMOD
		nsuper := len(k.lpx) - 1
		lpx := interp.NewIntArray("Lpx", int64(nsuper+1))
		lx := fltArr("Lx", k.lx)
		calls = []corpus.Call{
			{Fn: "chol_fill", Args: []arg{nsuper, int(k.lpx[1] - k.lpx[0]), lpx}},
			{Fn: "chol_scale", Args: []arg{nsuper, lpx, lx, fltArr("diag", k.diag)}},
		}
		ints(lpx, k.lpx)
		flts(lx, k.lx)
	case *SDDMM:
		b = corpus.SDDMM
		cols, nnz := k.mat.Cols, k.mat.NNZ()
		colVal := interp.NewIntArray("col_val", int64(nnz))
		for c := 0; c < cols; c++ {
			for ind := k.mat.ColPtr[c]; ind < k.mat.ColPtr[c+1]; ind++ {
				colVal.Ints[ind] = int64(c)
			}
		}
		// The fill writes the interior boundaries; col_ptr[n_cols] is
		// the nonzero count on input, as in corpus.NewWork.
		colPtr := interp.NewIntArray("col_ptr", int64(cols+1))
		colPtr.Ints[cols] = int64(nnz)
		holder := interp.NewIntArray("out_holder", 1)
		p := fltArr("p", k.p)
		calls = []corpus.Call{
			{Fn: "sddmm_fill", Args: []arg{nnz, colVal, colPtr, holder}},
			{Fn: "sddmm", Args: []arg{cols, k.k, cols, colPtr, intArr("row_ind", k.mat.RowIdx),
				fltArr("W", k.w), fltArr("H", k.h), fltArr("nnz_val", k.mat.Val), p}},
		}
		ints(holder, []int32{int32(cols)})
		ints(colPtr, k.mat.ColPtr)
		flts(p, k.p)
	case *UA:
		b = corpus.UATransf
		idel := interp.NewIntArray("idel", int64(k.lelt), 6, 5, 5)
		tx := fltArr("tx", k.tx)
		calls = []corpus.Call{
			{Fn: "ua_fill", Args: []arg{k.lelt, idel}},
			{Fn: "ua_transf", Args: []arg{k.lelt, idel, tx, fltArr("tmort", k.tmort)}},
		}
		ints(idel, k.idel)
		flts(tx, k.tx)
	case *CG:
		b = corpus.CG
		w := fltArr("w", k.w)
		calls = []corpus.Call{{Fn: "cg_matvec", Args: []arg{k.mat.Rows, intArr("rowstr", k.mat.RowPtr),
			intArr("colidx", k.mat.ColIdx), fltArr("a", k.mat.Val), fltArr("p", k.p), w}}}
		flts(w, k.w)
	case *Heat3D:
		b = corpus.Heat3D
		n := int64(k.n)
		grid := []int64{n, n, n}
		out := padded("B", k.b, grid, n, 120, 120)
		calls = []corpus.Call{{Fn: "heat3d_step", Args: []arg{k.n, padded("A", k.a, grid, n, 120, 120), out}}}
		flts(out, k.b, grid...)
	case *FDTD2D:
		b = corpus.FDTD2D
		nx := int64(k.nx)
		grid := []int64{nx, int64(k.ny)}
		ex := padded("ex", k.ex, grid, nx, 1000)
		ey := padded("ey", k.ey, grid, nx, 1000)
		hz := padded("hz", k.hz, grid, nx, 1000)
		calls = []corpus.Call{{Fn: "fdtd2d", Args: []arg{k.tmax, k.nx, k.ny, ex, ey, hz, fltArr("fict", k.fict)}}}
		flts(ex, k.ex, grid...)
		flts(ey, k.ey, grid...)
		flts(hz, k.hz, grid...)
	case *Gramschmidt:
		b = corpus.Gramschmidt
		m, n := int64(k.m), int64(k.n)
		a := padded("A", k.a, []int64{m, n}, m, 600)
		r := padded("R", k.r, []int64{n, n}, n, 600)
		q := padded("Q", k.q, []int64{m, n}, m, 600)
		calls = []corpus.Call{{Fn: "gramschmidt", Args: []arg{k.m, k.n, a, r, q}}}
		flts(a, k.a, m, n)
		flts(r, k.r, n, n)
		flts(q, k.q, m, n)
	case *Syrk:
		b = corpus.Syrk
		n, m := int64(k.n), int64(k.m)
		c := padded("C", k.c, []int64{n, n}, n, 1200)
		calls = []corpus.Call{{Fn: "syrk", Args: []arg{k.n, k.m, k.alpha, k.beta, c,
			padded("A", k.a, []int64{n, m}, n, 1000)}}}
		flts(c, k.c, n, n)
	case *MG:
		b = corpus.MG
		n := int64(k.n)
		grid := []int64{n, n, n}
		r := padded("r", k.r, grid, n, 130, 130)
		calls = []corpus.Call{{Fn: "mg_resid", Args: []arg{k.n, padded("u", k.u, grid, n, 130, 130),
			padded("v", k.v, grid, n, 130, 130), r}}}
		flts(r, k.r, grid...)
	case *IS:
		b = corpus.IS
		buff := intArr("key_buff", k.buff)
		calls = []corpus.Call{{Fn: "is_rank", Args: []arg{len(k.keys), intArr("key_array", k.keys), buff}}}
		ints(buff, k.buff)
	case *IC:
		b = corpus.IncompleteCholesky
		n := k.mat.Rows
		rowlen := interp.NewIntArray("rowlen", int64(n))
		for i := range rowlen.Ints {
			rowlen.Ints[i] = int64(k.mat.RowNNZ(i))
		}
		ia := interp.NewIntArray("ia", int64(n+1))
		val, diag := fltArr("val", k.val), fltArr("diag", k.diag)
		calls = []corpus.Call{
			{Fn: "ic_fill", Args: []arg{n, rowlen, ia}},
			{Fn: "ic_sweep", Args: []arg{n, ia, intArr("ja", k.mat.ColIdx), val, diag}},
		}
		ints(ia, k.mat.RowPtr)
		flts(val, k.val)
		flts(diag, k.diag)
	default:
		panic(fmt.Sprintf("no corpus program for %T", k))
	}
	return b, calls, func(t *testing.T) {
		for _, check := range outs {
			check(t)
		}
	}
}

func intArr(name string, vals []int32) *interp.Array {
	a := interp.NewIntArray(name, int64(len(vals)))
	for i, v := range vals {
		a.Ints[i] = int64(v)
	}
	return a
}

func fltArr(name string, vals []float64) *interp.Array {
	a := interp.NewFloatArray(name, int64(len(vals)))
	copy(a.Flts, vals)
	return a
}

// padded copies vals, a row-major array of the given shape, into the
// leading corner of a new float array of dims.
func padded(name string, vals []float64, shape []int64, dims ...int64) *interp.Array {
	a := interp.NewFloatArray(name, dims...)
	eachCell(shape, dims, func(k, p int64) { a.Flts[p] = vals[k] })
	return a
}

// eachCell calls f with the flat offset of every cell of shape in a
// row-major array of that shape (k) and in one of dims (p).
func eachCell(shape, dims []int64, f func(k, p int64)) {
	idx := make([]int64, len(shape))
	for {
		var k, p int64
		for d := range shape {
			k = k*shape[d] + idx[d]
			p = p*dims[d] + idx[d]
		}
		f(k, p)
		d := len(shape) - 1
		for ; d >= 0; d-- {
			if idx[d]++; idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// checkInts compares the program's array with the kernel's exactly, over
// the kernel's length (a fill may leave the tail of its output unused).
func checkInts(t *testing.T, got *interp.Array, want []int32) {
	t.Helper()
	if len(got.Ints) < len(want) {
		t.Fatalf("%s: program array has %d elements, kernel %d", got.Name, len(got.Ints), len(want))
	}
	for i, w := range want {
		if got.Ints[i] != int64(w) {
			t.Errorf("%s[%d] = %d, kernel %d", got.Name, i, got.Ints[i], w)
			return
		}
	}
}

// checkFlts compares the program's array with the kernel's within a
// relative 1e-9; shape, when given, is the kernel's row-major layout in
// the leading corner of the program's array.
func checkFlts(t *testing.T, got *interp.Array, want []float64, shape []int64) {
	t.Helper()
	if shape == nil {
		shape = []int64{int64(len(want))}
	}
	worst, atK, atP := 0.0, int64(0), int64(0)
	eachCell(shape, got.Dims, func(k, p int64) {
		if d := relDiff(got.Flts[p], want[k]); d > worst {
			worst, atK, atP = d, k, p
		}
	})
	if worst > 1e-9 {
		t.Errorf("%s: relative difference %.3g at kernel offset %d (program %v, kernel %v)",
			got.Name, worst, atK, got.Flts[atP], want[atK])
	}
}
