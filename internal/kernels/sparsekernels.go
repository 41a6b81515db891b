package kernels

import (
	"math"

	"repro/internal/sparse"
)

// CHOLMOD is the supernodal block-scaling kernel: each supernode's block
// of the factor Lx is scaled by its pivot. The block extents Lpx are a
// prefix sum (the Base algorithm's Figure 2(b) recurrence).
type CHOLMOD struct {
	dataset string
	lpx     []int32
	lx      []float64
	lx0     []float64
	diag    []float64
}

// NewCHOLMOD builds the kernel: nsuper supernodes of blockSize entries.
func NewCHOLMOD(d sparse.Dataset, blockSize int) *CHOLMOD {
	nsuper := d.Rows / 8
	if nsuper < 1 {
		nsuper = 1
	}
	k := &CHOLMOD{dataset: d.Name}
	k.lpx = make([]int32, nsuper+1)
	for s := 1; s <= nsuper; s++ {
		k.lpx[s] = k.lpx[s-1] + int32(blockSize)
	}
	k.lx0 = make([]float64, k.lpx[nsuper])
	for i := range k.lx0 {
		k.lx0[i] = 1 + float64(i%31)*0.125
	}
	k.lx = append([]float64(nil), k.lx0...)
	k.diag = make([]float64, nsuper)
	for i := range k.diag {
		k.diag[i] = 2 + float64(i%5)
	}
	return k
}

// Name implements Kernel.
func (k *CHOLMOD) Name() string { return "CHOLMOD-Supernodal" }

// Dataset implements Kernel.
func (k *CHOLMOD) Dataset() string { return k.dataset }

// Iters: one region per supernode (the p loop over its block).
func (k *CHOLMOD) Iters() []OuterIter {
	out := make([]OuterIter, len(k.lpx)-1)
	for s := range out {
		blk := int(k.lpx[s+1] - k.lpx[s])
		out[s] = OuterIter{Serial: 2, Regions: []Region{{Units: float64(blk), Trips: blk}}}
	}
	return out
}

func (k *CHOLMOD) super(s int) {
	d := k.diag[s]
	for p := k.lpx[s]; p < k.lpx[s+1]; p++ {
		k.lx[p] /= d
	}
}

// RunSerial implements Kernel.
func (k *CHOLMOD) RunSerial() {
	for s := 0; s < len(k.lpx)-1; s++ {
		k.super(s)
	}
}

// Reset implements Kernel.
func (k *CHOLMOD) Reset() { copy(k.lx, k.lx0) }

// MemFrac implements Kernel: block scaling streams the factor.
func (k *CHOLMOD) MemFrac() float64 { return 0.7 }

// CG is the NPB conjugate-gradient sparse matvec w = A·p (classically
// parallelizable: the gather through colidx does not block the dense
// write w[j]).
type CG struct {
	dataset string
	mat     *sparse.CSR
	p, w    []float64
}

// NewCG builds the kernel.
func NewCG(d sparse.Dataset) *CG {
	m := d.Build()
	k := &CG{dataset: d.Name, mat: m}
	k.p = make([]float64, m.Cols)
	for i := range k.p {
		k.p[i] = math.Sin(float64(i))
	}
	k.w = make([]float64, m.Rows)
	return k
}

// Name implements Kernel.
func (k *CG) Name() string { return "CG" }

// Dataset implements Kernel.
func (k *CG) Dataset() string { return k.dataset }

// Iters implements Kernel.
func (k *CG) Iters() []OuterIter {
	out := make([]OuterIter, k.mat.Rows)
	for j := range out {
		nnz := k.mat.RowNNZ(j)
		out[j] = OuterIter{Serial: 2, Regions: []Region{{Units: 2 * float64(nnz), Trips: nnz}}}
	}
	return out
}

func (k *CG) row(j int) {
	var sum float64
	for p := k.mat.RowPtr[j]; p < k.mat.RowPtr[j+1]; p++ {
		sum += k.mat.Val[p] * k.p[k.mat.ColIdx[p]]
	}
	k.w[j] = sum
}

// RunSerial implements Kernel.
func (k *CG) RunSerial() {
	for j := 0; j < k.mat.Rows; j++ {
		k.row(j)
	}
}

// MemFrac implements Kernel: CSR matvec is memory-bound.
func (k *CG) MemFrac() float64 { return 0.8 }

// Reset implements Kernel.
func (k *CG) Reset() {
	for i := range k.w {
		k.w[i] = 0
	}
}

// IS is the NPB integer-sort key histogram: updates collide on repeated
// keys, so no compile-time technique parallelizes it (it runs serial
// under every analysis arm).
type IS struct {
	dataset string
	keys    []int32
	buff    []int32
}

// NewIS builds the kernel with n keys over a 2^14 key space.
func NewIS(name string, n int, seed int64) *IS {
	k := &IS{dataset: name}
	k.keys = make([]int32, n)
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range k.keys {
		state = state*6364136223846793005 + 1442695040888963407
		k.keys[i] = int32(state>>33) % 16384
	}
	k.buff = make([]int32, 16384)
	return k
}

// Name implements Kernel.
func (k *IS) Name() string { return "IS" }

// Dataset implements Kernel.
func (k *IS) Dataset() string { return k.dataset }

// Iters implements Kernel (uniform single-unit iterations; no parallel
// regions exist).
func (k *IS) Iters() []OuterIter {
	out := make([]OuterIter, len(k.keys))
	for i := range out {
		out[i] = OuterIter{Serial: 2}
	}
	return out
}

// RunSerial implements Kernel.
func (k *IS) RunSerial() {
	for _, key := range k.keys {
		k.buff[key]++
	}
}

// MemFrac implements Kernel: random histogram updates are memory-bound.
func (k *IS) MemFrac() float64 { return 0.9 }

// Reset implements Kernel.
func (k *IS) Reset() {
	for i := range k.buff {
		k.buff[i] = 0
	}
}

// IC is the incomplete-Cholesky column sweep whose structure arrays come
// from input data: the analysis cannot prove any property, so it runs
// serial under every arm.
type IC struct {
	dataset string
	mat     *sparse.CSR
	val     []float64
	val0    []float64
	diag    []float64
	diag0   []float64
}

// NewIC builds the kernel.
func NewIC(d sparse.Dataset) *IC {
	m := d.Build()
	k := &IC{dataset: d.Name, mat: m}
	k.val0 = append([]float64(nil), m.Val...)
	k.val = append([]float64(nil), k.val0...)
	k.diag0 = make([]float64, m.Cols)
	for i := range k.diag0 {
		k.diag0[i] = 4 + float64(i%3)
	}
	k.diag = append([]float64(nil), k.diag0...)
	return k
}

// Name implements Kernel.
func (k *IC) Name() string { return "Incomplete-Cholesky" }

// Dataset implements Kernel.
func (k *IC) Dataset() string { return k.dataset }

// Iters implements Kernel (no parallel regions: the diag[ja[p]] updates
// block even the inner loop).
func (k *IC) Iters() []OuterIter {
	out := make([]OuterIter, k.mat.Rows)
	for i := range out {
		out[i] = OuterIter{Serial: 4 * float64(k.mat.RowNNZ(i))}
	}
	return out
}

// RunSerial implements Kernel.
func (k *IC) RunSerial() {
	for i := 0; i < k.mat.Rows; i++ {
		for p := k.mat.RowPtr[i]; p < k.mat.RowPtr[i+1]; p++ {
			col := k.mat.ColIdx[p]
			k.val[p] /= math.Sqrt(k.diag[col])
			k.diag[col] += k.val[p] * k.val[p]
		}
	}
}

// MemFrac implements Kernel.
func (k *IC) MemFrac() float64 { return 0.8 }

// Reset implements Kernel.
func (k *IC) Reset() {
	copy(k.val, k.val0)
	copy(k.diag, k.diag0)
}

var (
	_ Kernel = (*CHOLMOD)(nil)
	_ Kernel = (*CG)(nil)
	_ Kernel = (*IS)(nil)
	_ Kernel = (*IC)(nil)
)
