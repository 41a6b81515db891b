package kernels

import "repro/internal/sparse"

// UA is the transf kernel of the NPB Unstructured Adaptive benchmark
// (paper Figure 12): a scatter of mortar-point contributions through the
// four-dimensional subscript array idel, whose per-element value blocks
// [125·iel : 125·iel+124] are strictly range-monotonic.
type UA struct {
	dataset string
	lelt    int
	idel    []int32 // lelt×6×5×5, flattened
	tx      []float64
	tmort   []float64
	tx0     []float64
}

// NewUA builds the kernel for one UA class.
func NewUA(c sparse.UAClass) *UA {
	k := &UA{dataset: c.Name, lelt: c.Lelt}
	k.idel = make([]int32, c.Lelt*6*5*5)
	// The Figure 12 initialization.
	p := 0
	for iel := 0; iel < c.Lelt; iel++ {
		ntemp := 125 * iel
		for face := 0; face < 6; face++ {
			for j := 0; j < 5; j++ {
				for i := 0; i < 5; i++ {
					var v int
					switch face {
					case 0:
						v = ntemp + i*5 + j*25 + 4
					case 1:
						v = ntemp + i*5 + j*25
					case 2:
						v = ntemp + i + j*25 + 20
					case 3:
						v = ntemp + i + j*25
					case 4:
						v = ntemp + i + j*5 + 100
					default:
						v = ntemp + i + j*5
					}
					_ = p
					k.idel[((iel*6+face)*5+j)*5+i] = int32(v)
				}
			}
		}
	}
	k.tx0 = make([]float64, 125*c.Lelt)
	for i := range k.tx0 {
		k.tx0[i] = float64(i%11) * 0.5
	}
	k.tx = append([]float64(nil), k.tx0...)
	k.tmort = make([]float64, c.Lelt*150)
	for i := range k.tmort {
		k.tmort[i] = 1.0 / float64(1+i%29)
	}
	return k
}

// Name implements Kernel.
func (k *UA) Name() string { return "UA(transf)" }

// Dataset implements Kernel.
func (k *UA) Dataset() string { return k.dataset }

// Iters: 150 mortar points per element, ~4 units each. The subscripted
// accesses defeat classical analysis entirely, so there is no inner
// parallel region (the without-case runs serial).
func (k *UA) Iters() []OuterIter {
	out := make([]OuterIter, k.lelt)
	for i := range out {
		out[i] = OuterIter{Serial: 600}
	}
	return out
}

func (k *UA) element(iel int) {
	base := iel * 150
	idelBase := iel * 150
	for p := 0; p < 150; p++ {
		k.tx[k.idel[idelBase+p]] += k.tmort[base+p]
	}
}

// RunSerial implements Kernel.
func (k *UA) RunSerial() {
	for iel := 0; iel < k.lelt; iel++ {
		k.element(iel)
	}
}

// Reset implements Kernel.
func (k *UA) Reset() { copy(k.tx, k.tx0) }

// MemFrac implements Kernel: the scatter streams tx and tmort but each
// element block is small.
func (k *UA) MemFrac() float64 { return 0.25 }

var _ Kernel = (*UA)(nil)
