package kernels

import "repro/internal/sparse"

// SDDMMRank is the dense rank k of the sampled dense-dense matmul (the
// paper's inputs use large dense factors; the rank sets the inner t-loop
// work per nonzero).
const SDDMMRank = 512

// SDDMM is the sampled dense-dense matrix multiplication kernel (paper
// Figure 10): p[ind] = (W_r · H_row(ind)) * nnz_val[ind] over the
// nonzeros of each compressed column, whose extents live in col_ptr.
type SDDMM struct {
	dataset string
	mat     *sparse.CSC
	k       int
	w, h    []float64 // dense factors, row-major n×k
	p       []float64
}

// NewSDDMMRank builds the kernel with an explicit rank (tests use small
// ranks).
func NewSDDMMRank(d sparse.Dataset, rank int) *SDDMM {
	return newSDDMMFrom(d.Name, d.BuildCSC(), rank)
}

func newSDDMMFrom(name string, m *sparse.CSC, rank int) *SDDMM {
	k := &SDDMM{dataset: name, mat: m, k: rank}
	k.w = make([]float64, m.Cols*rank)
	k.h = make([]float64, m.Rows*rank)
	for i := range k.w {
		k.w[i] = float64(i%17) * 0.0625
	}
	for i := range k.h {
		k.h[i] = float64(i%13) * 0.125
	}
	k.p = make([]float64, m.NNZ())
	return k
}

// Name implements Kernel.
func (k *SDDMM) Name() string { return "SDDMM" }

// Dataset implements Kernel.
func (k *SDDMM) Dataset() string { return k.dataset }

// Iters: per column r, every nonzero runs a 2k-flop dot product over the
// t loop, plus 2 serial units. For the classical arm ("without") the
// model forks once per nonzero, a region of k trips and 2k units: it
// assumes the classical parallelizer targets the t loop. The classical
// plan does not: it parallelizes L3, the ind loop, once per column
// (#pragma omp parallel for private(sm, t), in
// internal/core/testdata/golden/classical.json), a region of nnz(r)
// trips. A model that follows the plan moves the SDDMM rows of Figures
// 13 and 17 past what their shape tests assert.
func (k *SDDMM) Iters() []OuterIter {
	out := make([]OuterIter, k.mat.Cols)
	for r := 0; r < k.mat.Cols; r++ {
		nnz := k.mat.ColNNZ(r)
		regions := make([]Region, nnz)
		for c := 0; c < nnz; c++ {
			regions[c] = Region{Units: 2 * float64(k.k), Trips: k.k}
		}
		out[r] = OuterIter{Serial: 2 * float64(nnz), Regions: regions}
	}
	return out
}

func (k *SDDMM) column(r int) {
	kk := k.k
	for ind := k.mat.ColPtr[r]; ind < k.mat.ColPtr[r+1]; ind++ {
		row := int(k.mat.RowIdx[ind])
		var sm float64
		wOff := r * kk
		hOff := row * kk
		for t := 0; t < kk; t++ {
			sm += k.w[wOff+t] * k.h[hOff+t]
		}
		k.p[ind] = sm * k.mat.Val[ind]
	}
}

// RunSerial implements Kernel.
func (k *SDDMM) RunSerial() {
	for r := 0; r < k.mat.Cols; r++ {
		k.column(r)
	}
}

// MemFrac implements Kernel: the rank-512 dense dot products are
// cache-resident, so SDDMM is mostly compute-bound.
func (k *SDDMM) MemFrac() float64 { return 0.2 }

// Reset implements Kernel.
func (k *SDDMM) Reset() {
	for i := range k.p {
		k.p[i] = 0
	}
}

var _ Kernel = (*SDDMM)(nil)
