package kernels

import "repro/internal/sparse"

// AMG is the AMGmk sparse matvec over nonzero rows (paper Figure 8): the
// subscripted-subscript kernel y[A_rownnz[i]] += row_i · x.
type AMG struct {
	dataset string
	mat     *sparse.CSR
	rownnz  []int32 // indices of nonzero rows (the subscript array)
	x, y    []float64
	y0      []float64
}

// NewAMG builds the kernel for one AMG grid.
func NewAMG(grid sparse.AMGGrid) *AMG {
	m := grid.Build()
	k := &AMG{dataset: grid.Name, mat: m}
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) > 0 {
			k.rownnz = append(k.rownnz, int32(i))
		}
	}
	k.x = make([]float64, m.Cols)
	k.y0 = make([]float64, m.Rows)
	for i := range k.x {
		k.x[i] = 1.0 / float64(i+1)
	}
	for i := range k.y0 {
		k.y0[i] = float64(i%7) * 0.25
	}
	k.y = append([]float64(nil), k.y0...)
	return k
}

// Name implements Kernel.
func (k *AMG) Name() string { return "AMGmk" }

// Dataset implements Kernel.
func (k *AMG) Dataset() string { return k.dataset }

// Iters: each nonzero row does 2·nnz flops of dot product inside the
// inner jj loop plus a few units of row bookkeeping.
func (k *AMG) Iters() []OuterIter {
	out := make([]OuterIter, len(k.rownnz))
	for i, m := range k.rownnz {
		nnz := k.mat.RowNNZ(int(m))
		out[i] = OuterIter{
			Serial:  4,
			Regions: []Region{{Units: 2 * float64(nnz), Trips: nnz}},
		}
	}
	return out
}

func (k *AMG) row(i int) {
	m := int(k.rownnz[i])
	tempx := k.y[m]
	for jj := k.mat.RowPtr[m]; jj < k.mat.RowPtr[m+1]; jj++ {
		tempx += k.mat.Val[jj] * k.x[k.mat.ColIdx[jj]]
	}
	k.y[m] = tempx
}

// RunSerial implements Kernel.
func (k *AMG) RunSerial() {
	for i := range k.rownnz {
		k.row(i)
	}
}

// Reset implements Kernel.
func (k *AMG) Reset() { copy(k.y, k.y0) }

// MemFrac implements Kernel: sparse matvec is strongly memory-bound.
func (k *AMG) MemFrac() float64 { return 0.8 }

var _ Kernel = (*AMG)(nil)
