package kernels

import "math"

// Heat3D is the PolyBench heat-3d Jacobi step B = stencil(A); the i loop
// parallelizes classically.
type Heat3D struct {
	dataset string
	n       int
	a, b    []float64
	b0      []float64
}

// NewHeat3D builds an n³ grid.
func NewHeat3D(dataset string, n int) *Heat3D {
	k := &Heat3D{dataset: dataset, n: n}
	k.a = make([]float64, n*n*n)
	for i := range k.a {
		k.a[i] = float64(i%97) * 0.01
	}
	k.b0 = make([]float64, n*n*n)
	k.b = append([]float64(nil), k.b0...)
	return k
}

// Name implements Kernel.
func (k *Heat3D) Name() string { return "heat-3d" }

// Dataset implements Kernel.
func (k *Heat3D) Dataset() string { return k.dataset }

// Iters: one outer iteration per interior i plane.
func (k *Heat3D) Iters() []OuterIter {
	n := k.n
	out := make([]OuterIter, n-2)
	plane := float64((n - 2) * (n - 2) * 10)
	for i := range out {
		out[i] = OuterIter{Regions: []Region{{Units: plane, Trips: n - 2}}}
	}
	return out
}

func (k *Heat3D) plane(ii int) {
	n := k.n
	i := ii + 1
	at := func(x, y, z int) float64 { return k.a[(x*n+y)*n+z] }
	for j := 1; j < n-1; j++ {
		for kk := 1; kk < n-1; kk++ {
			k.b[(i*n+j)*n+kk] = 0.125*(at(i+1, j, kk)-2*at(i, j, kk)+at(i-1, j, kk)) +
				0.125*(at(i, j+1, kk)-2*at(i, j, kk)+at(i, j-1, kk)) +
				0.125*(at(i, j, kk+1)-2*at(i, j, kk)+at(i, j, kk-1)) +
				at(i, j, kk)
		}
	}
}

// RunSerial implements Kernel.
func (k *Heat3D) RunSerial() {
	for i := 0; i < k.n-2; i++ {
		k.plane(i)
	}
}

// Reset implements Kernel.
func (k *Heat3D) Reset() { copy(k.b, k.b0) }

// MemFrac implements Kernel: 3-D stencils stream two grids.
func (k *Heat3D) MemFrac() float64 { return 0.6 }

// FDTD2D is the PolyBench fdtd-2d kernel: the time loop is sequential,
// the four spatial sweeps inside each step parallelize classically (this
// is one of the benchmarks where inner-level parallelism is profitable
// because each region is a full grid sweep).
type FDTD2D struct {
	dataset    string
	tmax       int
	nx, ny     int
	ex, ey, hz []float64
	ex0        []float64
	ey0        []float64
	hz0        []float64
	fict       []float64
}

// NewFDTD2D builds the kernel.
func NewFDTD2D(dataset string, tmax, nx, ny int) *FDTD2D {
	k := &FDTD2D{dataset: dataset, tmax: tmax, nx: nx, ny: ny}
	size := nx * ny
	k.ex0 = make([]float64, size)
	k.ey0 = make([]float64, size)
	k.hz0 = make([]float64, size)
	for i := 0; i < size; i++ {
		k.ex0[i] = float64(i%7) * 0.1
		k.ey0[i] = float64(i%5) * 0.2
		k.hz0[i] = float64(i%3) * 0.3
	}
	k.ex = append([]float64(nil), k.ex0...)
	k.ey = append([]float64(nil), k.ey0...)
	k.hz = append([]float64(nil), k.hz0...)
	k.fict = make([]float64, tmax)
	for t := range k.fict {
		k.fict[t] = float64(t)
	}
	return k
}

// Name implements Kernel.
func (k *FDTD2D) Name() string { return "fdtd-2d" }

// Dataset implements Kernel.
func (k *FDTD2D) Dataset() string { return k.dataset }

// Iters: one outer iteration per time step with four grid-sweep regions.
func (k *FDTD2D) Iters() []OuterIter {
	out := make([]OuterIter, k.tmax)
	grid := float64(k.nx * k.ny)
	for t := range out {
		out[t] = OuterIter{Regions: []Region{
			{Units: float64(k.ny), Trips: k.ny},
			{Units: grid * 3, Trips: k.nx},
			{Units: grid * 3, Trips: k.nx},
			{Units: grid * 5, Trips: k.nx},
		}}
	}
	return out
}

func (k *FDTD2D) step(t int) {
	nx, ny := k.nx, k.ny
	for j := 0; j < ny; j++ {
		k.ey[j] = k.fict[t]
	}
	for i := 1; i < nx; i++ {
		for j := 0; j < ny; j++ {
			k.ey[i*ny+j] -= 0.5 * (k.hz[i*ny+j] - k.hz[(i-1)*ny+j])
		}
	}
	for i := 0; i < nx; i++ {
		for j := 1; j < ny; j++ {
			k.ex[i*ny+j] -= 0.5 * (k.hz[i*ny+j] - k.hz[i*ny+j-1])
		}
	}
	for i := 0; i < nx-1; i++ {
		for j := 0; j < ny-1; j++ {
			k.hz[i*ny+j] -= 0.7 * (k.ex[i*ny+j+1] - k.ex[i*ny+j] + k.ey[(i+1)*ny+j] - k.ey[i*ny+j])
		}
	}
}

// RunSerial implements Kernel.
func (k *FDTD2D) RunSerial() {
	for t := 0; t < k.tmax; t++ {
		k.step(t)
	}
}

// MemFrac implements Kernel.
func (k *FDTD2D) MemFrac() float64 { return 0.6 }

// Reset implements Kernel.
func (k *FDTD2D) Reset() {
	copy(k.ex, k.ex0)
	copy(k.ey, k.ey0)
	copy(k.hz, k.hz0)
}

// Gramschmidt is the PolyBench modified Gram-Schmidt QR; the k loop
// carries dependences, the column-update loops parallelize classically.
type Gramschmidt struct {
	dataset string
	m, n    int
	a, q, r []float64
	a0      []float64
}

// NewGramschmidt builds an m×n problem.
func NewGramschmidt(dataset string, m, n int) *Gramschmidt {
	k := &Gramschmidt{dataset: dataset, m: m, n: n}
	k.a0 = make([]float64, m*n)
	for i := range k.a0 {
		k.a0[i] = math.Sin(float64(i)*0.37) + 2
	}
	k.a = append([]float64(nil), k.a0...)
	k.q = make([]float64, m*n)
	k.r = make([]float64, n*n)
	return k
}

// Name implements Kernel.
func (k *Gramschmidt) Name() string { return "gramschmidt" }

// Dataset implements Kernel.
func (k *Gramschmidt) Dataset() string { return k.dataset }

// Iters: per column k, three parallel regions (norm reduction, Q column,
// and the j update loop over the remaining columns).
func (k *Gramschmidt) Iters() []OuterIter {
	out := make([]OuterIter, k.n)
	for kk := 0; kk < k.n; kk++ {
		rest := k.n - kk - 1
		regions := []Region{
			{Units: 2 * float64(k.m), Trips: k.m},
			{Units: float64(k.m), Trips: k.m},
		}
		if rest > 0 {
			regions = append(regions, Region{Units: 4 * float64(k.m) * float64(rest), Trips: rest})
		}
		out[kk] = OuterIter{Serial: 4, Regions: regions}
	}
	return out
}

func (k *Gramschmidt) stepColumn(kk int) {
	m, n := k.m, k.n
	var nrm float64
	for i := 0; i < m; i++ {
		nrm += k.a[i*n+kk] * k.a[i*n+kk]
	}
	k.r[kk*n+kk] = math.Sqrt(nrm)
	// Divide, as the corpus program does: on this rank-deficient input
	// the columns past the third are rounding noise, and multiplying by
	// the reciprocal rounds them differently.
	for i := 0; i < m; i++ {
		k.q[i*n+kk] = k.a[i*n+kk] / k.r[kk*n+kk]
	}
	for j := kk + 1; j < n; j++ {
		var dot float64
		for i := 0; i < m; i++ {
			dot += k.q[i*n+kk] * k.a[i*n+j]
		}
		k.r[kk*n+j] = dot
		for i := 0; i < m; i++ {
			k.a[i*n+j] -= k.q[i*n+kk] * dot
		}
	}
}

// RunSerial implements Kernel.
func (k *Gramschmidt) RunSerial() {
	for kk := 0; kk < k.n; kk++ {
		k.stepColumn(kk)
	}
}

// MemFrac implements Kernel: column updates reuse the Q column.
func (k *Gramschmidt) MemFrac() float64 { return 0.3 }

// Reset implements Kernel.
func (k *Gramschmidt) Reset() {
	copy(k.a, k.a0)
	for i := range k.q {
		k.q[i] = 0
	}
	for i := range k.r {
		k.r[i] = 0
	}
}

// Syrk is the PolyBench symmetric rank-k update; the i loop parallelizes
// classically.
type Syrk struct {
	dataset string
	n, m    int
	alpha   float64
	beta    float64
	c, a    []float64
	c0      []float64
}

// NewSyrk builds an n×n update with inner dimension m.
func NewSyrk(dataset string, n, m int) *Syrk {
	k := &Syrk{dataset: dataset, n: n, m: m, alpha: 1.5, beta: 1.2}
	k.c0 = make([]float64, n*n)
	k.a = make([]float64, n*m)
	for i := range k.c0 {
		k.c0[i] = float64(i%13) * 0.25
	}
	for i := range k.a {
		k.a[i] = float64(i%7) * 0.5
	}
	k.c = append([]float64(nil), k.c0...)
	return k
}

// Name implements Kernel.
func (k *Syrk) Name() string { return "syrk" }

// Dataset implements Kernel.
func (k *Syrk) Dataset() string { return k.dataset }

// Iters: row i does (i+1)·(2m+1) work (triangular update).
func (k *Syrk) Iters() []OuterIter {
	out := make([]OuterIter, k.n)
	for i := range out {
		cols := i + 1
		out[i] = OuterIter{Regions: []Region{{
			Units: float64(cols) * float64(2*k.m+1),
			Trips: cols,
		}}}
	}
	return out
}

func (k *Syrk) row(i int) {
	n, m := k.n, k.m
	for j := 0; j <= i; j++ {
		k.c[i*n+j] *= k.beta
	}
	for kk := 0; kk < m; kk++ {
		aik := k.alpha * k.a[i*m+kk]
		for j := 0; j <= i; j++ {
			k.c[i*n+j] += aik * k.a[j*m+kk]
		}
	}
}

// RunSerial implements Kernel.
func (k *Syrk) RunSerial() {
	for i := 0; i < k.n; i++ {
		k.row(i)
	}
}

// Reset implements Kernel.
func (k *Syrk) Reset() { copy(k.c, k.c0) }

// MemFrac implements Kernel: rank-k updates are compute-bound.
func (k *Syrk) MemFrac() float64 { return 0.1 }

// MG is the NPB multigrid residual stencil; the outer i3 loop
// parallelizes classically.
type MG struct {
	dataset string
	n       int
	u, v, r []float64
	r0      []float64
}

// NewMG builds an n³ grid.
func NewMG(dataset string, n int) *MG {
	k := &MG{dataset: dataset, n: n}
	size := n * n * n
	k.u = make([]float64, size)
	k.v = make([]float64, size)
	for i := 0; i < size; i++ {
		k.u[i] = float64(i%19) * 0.05
		k.v[i] = float64(i%23) * 0.04
	}
	k.r0 = make([]float64, size)
	k.r = append([]float64(nil), k.r0...)
	return k
}

// Name implements Kernel.
func (k *MG) Name() string { return "MG" }

// Dataset implements Kernel.
func (k *MG) Dataset() string { return k.dataset }

// Iters implements Kernel.
func (k *MG) Iters() []OuterIter {
	n := k.n
	out := make([]OuterIter, n-2)
	plane := float64((n - 2) * (n - 2) * 14)
	for i := range out {
		out[i] = OuterIter{Regions: []Region{{Units: plane, Trips: n - 2}}}
	}
	return out
}

func (k *MG) plane(ii int) {
	n := k.n
	i3 := ii + 1
	at := func(z, y, x int) float64 { return k.u[(z*n+y)*n+x] }
	for i2 := 1; i2 < n-1; i2++ {
		for i1 := 1; i1 < n-1; i1++ {
			u1 := at(i3, i2-1, i1) + at(i3, i2+1, i1) + at(i3-1, i2, i1) + at(i3+1, i2, i1)
			u2 := at(i3-1, i2-1, i1) + at(i3-1, i2+1, i1) + at(i3+1, i2-1, i1) + at(i3+1, i2+1, i1)
			k.r[(i3*n+i2)*n+i1] = k.v[(i3*n+i2)*n+i1] - 0.8*at(i3, i2, i1) -
				0.2*(at(i3, i2, i1-1)+at(i3, i2, i1+1)+u1) - 0.1*u2
		}
	}
}

// RunSerial implements Kernel.
func (k *MG) RunSerial() {
	for i := 0; i < k.n-2; i++ {
		k.plane(i)
	}
}

// Reset implements Kernel.
func (k *MG) Reset() { copy(k.r, k.r0) }

// MemFrac implements Kernel: the 27-point residual streams three grids.
func (k *MG) MemFrac() float64 { return 0.6 }

var (
	_ Kernel = (*Heat3D)(nil)
	_ Kernel = (*FDTD2D)(nil)
	_ Kernel = (*Gramschmidt)(nil)
	_ Kernel = (*Syrk)(nil)
	_ Kernel = (*MG)(nil)
)
