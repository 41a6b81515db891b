package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sparse"
)

// NewAMGFromCSR builds the AMG kernel over an arbitrary matrix.
func NewAMGFromCSR(name string, m *sparse.CSR) *AMG {
	k := &AMG{dataset: name, mat: m}
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
	k.y = append([]float64(nil), k.y0...)
	return k
}

// smallSet builds scaled-down instances of all 12 kernels for testing.
func smallSet() []Kernel {
	tiny := sparse.Dataset{Name: "tiny", Rows: 300, Cols: 300, MeanNNZ: 8, Shape: sparse.Skewed, EmptyFrac: 0.2, Seed: 42}
	tinyBal := sparse.Dataset{Name: "tinybal", Rows: 300, Cols: 300, MeanNNZ: 8, Shape: sparse.Balanced, Seed: 43}
	return []Kernel{
		NewAMGFromCSR("tiny", tiny.Build()),
		NewCHOLMOD(tinyBal, 16),
		NewSDDMMRank(tinyBal, 16),
		NewUA(sparse.UAClass{Name: "tiny", Lelt: 64}),
		NewCG(tinyBal),
		NewHeat3D("tiny", 18),
		NewFDTD2D("tiny", 4, 40, 40),
		NewGramschmidt("tiny", 40, 30),
		NewSyrk("tiny", 40, 24),
		NewMG("tiny", 18),
		NewIS("tiny", 5000, 7),
		NewIC(tinyBal),
	}
}

// relDiff is |a-b| relative to the larger magnitude. A NaN on either
// side, or two different infinities, compare as an infinite difference.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	switch {
	case a == b:
		return 0
	case math.IsNaN(d) || math.IsInf(scale, 0):
		return math.Inf(1)
	}
	return d / scale
}

// TestRepeatability: Reset + RunSerial reaches the same end state, bit
// for bit, every time.
func TestRepeatability(t *testing.T) {
	for _, k := range smallSet() {
		k.Reset()
		k.RunSerial()
		first := endState(k)
		k.Reset()
		k.RunSerial()
		for i, v := range endState(k) {
			if math.Float64bits(v) != math.Float64bits(first[i]) {
				t.Errorf("%s: not repeatable at %d: %v then %v", k.Name(), i, first[i], v)
				break
			}
		}
	}
}

// endState concatenates every array a kernel's RunSerial writes.
func endState(k Kernel) []float64 {
	cat := func(parts ...[]float64) []float64 {
		var out []float64
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	switch k := k.(type) {
	case *AMG:
		return cat(k.y)
	case *CHOLMOD:
		return cat(k.lx)
	case *SDDMM:
		return cat(k.p)
	case *UA:
		return cat(k.tx)
	case *CG:
		return cat(k.w)
	case *Heat3D:
		return cat(k.b)
	case *FDTD2D:
		return cat(k.ex, k.ey, k.hz)
	case *Gramschmidt:
		return cat(k.a, k.q, k.r)
	case *Syrk:
		return cat(k.c)
	case *MG:
		return cat(k.r)
	case *IS:
		out := make([]float64, len(k.buff))
		for i, v := range k.buff {
			out[i] = float64(v)
		}
		return out
	case *IC:
		return cat(k.val, k.diag)
	}
	panic(fmt.Sprintf("no end state for %T", k))
}

// TestWorkModelsPositive: every kernel's work model is non-trivial and
// finite.
func TestWorkModelsPositive(t *testing.T) {
	for _, k := range smallSet() {
		iters := k.Iters()
		if len(iters) == 0 {
			t.Errorf("%s: empty work model", k.Name())
			continue
		}
		total := TotalUnits(k)
		if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
			t.Errorf("%s: total units %g", k.Name(), total)
		}
		for _, it := range iters {
			if it.Serial < 0 {
				t.Errorf("%s: negative serial units", k.Name())
			}
			for _, r := range it.Regions {
				if r.Units < 0 || r.Trips < 0 {
					t.Errorf("%s: negative region", k.Name())
				}
			}
		}
	}
}

// TestAMGSkipsEmptyRows: the rownnz list excludes empty rows and the
// kernel only touches those entries of y.
func TestAMGSkipsEmptyRows(t *testing.T) {
	d := sparse.Dataset{Name: "t", Rows: 200, Cols: 200, MeanNNZ: 5, Shape: sparse.Balanced, EmptyFrac: 0.5, Seed: 9}
	m := d.Build()
	k := NewAMGFromCSR("t", m)
	nonEmpty := 0
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) > 0 {
			nonEmpty++
		}
	}
	if len(k.rownnz) != nonEmpty {
		t.Errorf("rownnz has %d entries, want %d", len(k.rownnz), nonEmpty)
	}
	if len(k.Iters()) != nonEmpty {
		t.Errorf("work model should cover only nonzero rows")
	}
}

// TestUADisjointBlocks: each element's idel entries stay within its own
// 125-point block (the property the parallelization relies on).
func TestUADisjointBlocks(t *testing.T) {
	k := NewUA(sparse.UAClass{Name: "t", Lelt: 10})
	for iel := 0; iel < 10; iel++ {
		lo, hi := int32(125*iel), int32(125*iel+124)
		for p := 0; p < 150; p++ {
			v := k.idel[iel*150+p]
			if v < lo || v > hi {
				t.Fatalf("element %d writes outside its block: %d not in [%d,%d]", iel, v, lo, hi)
			}
		}
	}
}

// TestSDDMMWindows: column windows into p are the col_ptr extents.
func TestSDDMMWindows(t *testing.T) {
	d := sparse.Dataset{Name: "t", Rows: 100, Cols: 100, MeanNNZ: 4, Shape: sparse.Skewed, Seed: 5}
	k := NewSDDMMRank(d, 8)
	k.RunSerial()
	// Every p entry must have been written (all columns non-empty).
	zero := 0
	for _, v := range k.p {
		if v == 0 {
			zero++
		}
	}
	// Some products may legitimately be zero, but not the vast majority.
	if zero > len(k.p)/2 {
		t.Errorf("suspiciously many zero outputs: %d/%d", zero, len(k.p))
	}
}

// TestISHistogramTotal: the histogram counts every key exactly once.
func TestISHistogramTotal(t *testing.T) {
	k := NewIS("t", 10000, 3)
	k.RunSerial()
	var total int32
	for _, c := range k.buff {
		total += c
	}
	if total != 10000 {
		t.Errorf("histogram total %d, want 10000", total)
	}
}

// TestSyrkTriangular: iteration cost grows with the row index
// (triangular imbalance that static scheduling mishandles).
func TestSyrkTriangular(t *testing.T) {
	k := NewSyrk("t", 64, 16)
	iters := k.Iters()
	if iters[0].Total() >= iters[63].Total() {
		t.Error("row cost should grow with i")
	}
}
