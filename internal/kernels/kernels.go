// Package kernels provides native Go implementations of the twelve
// benchmark kernels of Table 1. Each kernel runs serially for real (Table
// 1's measured times and the calibration's seconds-per-unit rate) and
// exposes a per-outer-iteration work model consumed by the multicore
// simulator (internal/simcore) to produce the 4/8/16-core series of
// Figures 13-16 (see DESIGN.md §4.3). The kernels' tests pin each one to
// the corpus program the analyzer analyzes: on the same input, the
// program's serial VM run must reach the kernel's end state.
//
// Work units are abstract (≈ one inner-loop floating-point update); the
// bench harness calibrates units→seconds from a measured serial run.
package kernels

// Region is one parallelizable inner region of an outer iteration: its
// total work and its trip count (which bounds achievable parallelism).
type Region struct {
	Units float64
	Trips int
}

// OuterIter models one iteration of the kernel's outermost loop.
type OuterIter struct {
	// Serial is work that stays serial under inner-loop parallelization.
	Serial float64
	// Regions are the parallel regions executed by this iteration when
	// the classical parallelizer targets the inner loops.
	Regions []Region
}

// Total returns the iteration's total work.
func (it OuterIter) Total() float64 {
	t := it.Serial
	for _, r := range it.Regions {
		t += r.Units
	}
	return t
}

// Kernel is a runnable benchmark with a work model.
type Kernel interface {
	// Name is the benchmark name (Table 1).
	Name() string
	// Dataset is the input dataset name.
	Dataset() string
	// Iters returns the per-outer-iteration work model.
	Iters() []OuterIter
	// RunSerial executes one serial sweep.
	RunSerial()
	// MemFrac is the fraction of the kernel's work that is
	// memory-bandwidth-bound (the roofline split used by the simulator).
	MemFrac() float64
	// Reset restores the initial data so sweeps are repeatable.
	Reset()
}

// OuterCosts flattens the model into per-outer-iteration totals (the cost
// vector for outer-loop parallelization and serial execution).
func OuterCosts(k Kernel) []float64 {
	iters := k.Iters()
	out := make([]float64, len(iters))
	for i, it := range iters {
		out[i] = it.Total()
	}
	return out
}

// TotalUnits is the kernel's total work.
func TotalUnits(k Kernel) float64 {
	var t float64
	for _, c := range OuterCosts(k) {
		t += c
	}
	return t
}
