// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section (Table 1, Figures 13-17) as
// printed tables/series.
//
// Methodology (DESIGN.md §4.3): the container has 2 cores, so the
// 4/8/16-core series come from the deterministic multicore simulator
// (internal/simcore) driven by each kernel's per-iteration work model and
// calibrated against real measurements: a serial wall-clock run fixes the
// seconds-per-unit rate, and goroutine fork-join/dispatch microbenchmarks
// fix the overhead constants. The parallelization *strategy* simulated for
// each analysis arm is not hard-coded — it is read off the plan the
// parallelizer actually produces for the benchmark's mini-C source.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/kernels"
	"repro/internal/phase2"
	"repro/internal/sched"
	"repro/internal/simcore"
	"repro/internal/sparse"
)

// Cores are the simulated core counts of Figures 13-16.
var Cores = []int{4, 8, 16}

// Harness runs the experiments.
type Harness struct {
	Cal   simcore.Calibration
	Out   io.Writer
	Quick bool // scaled-down datasets (used by tests)
	// Workers overrides the worker-pool size of the concurrent
	// compile-time batch experiment (0 = all cores, minimum 2).
	Workers int
}

// New builds a harness, measuring the calibration constants.
func New(out io.Writer, quick bool) *Harness {
	h := &Harness{Out: out, Quick: quick}
	h.Cal = Calibrate(quick)
	return h
}

// Calibrate measures the unit rate and overhead constants.
func Calibrate(quick bool) simcore.Calibration {
	// Seconds per unit: time a serial AMG sweep of known unit count.
	grid := sparse.AMGGrid{Name: "cal", Nx: 24, Ny: 24, Nz: 24}
	if quick {
		grid = sparse.AMGGrid{Name: "cal", Nx: 10, Ny: 10, Nz: 10}
	}
	k := kernels.NewAMG(grid)
	units := kernels.TotalUnits(k)
	t0 := time.Now()
	reps := 5
	for r := 0; r < reps; r++ {
		k.RunSerial()
	}
	perUnit := time.Since(t0).Seconds() / float64(reps) / units

	// Fork-join overhead (one parallel region on a warm runtime).
	fj := sched.MeasureForkJoin(2, 32).Seconds()

	// Dynamic dispatch: the per-chunk cost of a dynamic schedule.
	n := 20000
	if quick {
		n = 2000
	}
	dispatch := measureDispatch(n)

	return simcore.Calibration{
		SecondsPerUnit: perUnit,
		ForkJoinUnits:  fj / perUnit,
		DispatchUnits:  dispatch / perUnit,
	}
}

// measureDispatch returns the seconds per chunk of a dynamic schedule
// over n empty iterations: two goroutines pull one-iteration chunks off
// a mutex-guarded counter until it passes n.
func measureDispatch(n int) float64 {
	var mu sync.Mutex
	var next int
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds() / float64(n)
}

// ---- kernel instantiation (Experiment datasets) ----

// amgKernels returns the five AMG MATRIX instances (scaled down in quick
// mode).
func (h *Harness) amgKernels() []kernels.Kernel {
	var out []kernels.Kernel
	for _, g := range sparse.AMGMatrices {
		if h.Quick {
			g = sparse.AMGGrid{Name: g.Name, Nx: g.Nx / 2, Ny: g.Ny / 2, Nz: g.Nz / 2}
		}
		out = append(out, kernels.NewAMG(g))
	}
	return out
}

func (h *Harness) sddmmKernels() []kernels.Kernel {
	var out []kernels.Kernel
	for _, d := range sparse.SDDMMDatasets {
		if h.Quick {
			d.Rows /= 8
			d.Cols /= 8
		}
		rank := kernels.SDDMMRank
		if h.Quick {
			rank = 64
		}
		out = append(out, kernels.NewSDDMMRank(d, rank))
	}
	return out
}

func (h *Harness) uaKernels() []kernels.Kernel {
	var out []kernels.Kernel
	for _, c := range sparse.UAClasses {
		if h.Quick {
			c.Lelt /= 16
		}
		out = append(out, kernels.NewUA(c))
	}
	return out
}

// experiment2Kernel builds the single-dataset instance used in
// Experiment 2 (Figure 17): MATRIX2 for AMGmk, dielFilterV2clx for SDDMM,
// CLASS A for UA, and the Table-1 dataset for the rest.
func (h *Harness) experiment2Kernel(name string) kernels.Kernel {
	scale := 1
	if h.Quick {
		scale = 4
	}
	switch name {
	case "AMGmk":
		g := sparse.AMGMatrices[1] // MATRIX2
		if h.Quick {
			g = sparse.AMGGrid{Name: g.Name, Nx: g.Nx / 2, Ny: g.Ny / 2, Nz: g.Nz / 2}
		}
		return kernels.NewAMG(g)
	case "CHOLMOD-Supernodal":
		d := sparse.Spal004
		d.Rows /= scale
		return kernels.NewCHOLMOD(d, 64)
	case "SDDMM":
		d := sparse.DielFilterV2
		d.Rows /= scale * 2
		d.Cols /= scale * 2
		rank := kernels.SDDMMRank
		if h.Quick {
			rank = 64
		}
		return kernels.NewSDDMMRank(d, rank)
	case "UA(transf)":
		c := sparse.UAClasses[0] // CLASS A
		c.Lelt /= scale
		return kernels.NewUA(c)
	case "CG":
		d := sparse.Dataset{Name: "CLASS B", Rows: 75000 / scale, Cols: 75000 / scale, MeanNNZ: 13, Shape: sparse.Balanced, Seed: 21}
		return kernels.NewCG(d)
	case "heat-3d":
		n := 60
		if h.Quick {
			n = 20
		}
		return kernels.NewHeat3D("EXTRALARGE", n)
	case "fdtd-2d":
		if h.Quick {
			return kernels.NewFDTD2D("EXTRALARGE", 4, 100, 100)
		}
		return kernels.NewFDTD2D("EXTRALARGE", 20, 500, 500)
	case "gramschmidt":
		if h.Quick {
			return kernels.NewGramschmidt("EXTRALARGE", 60, 40)
		}
		return kernels.NewGramschmidt("EXTRALARGE", 400, 300)
	case "syrk":
		if h.Quick {
			return kernels.NewSyrk("EXTRALARGE", 80, 40)
		}
		return kernels.NewSyrk("EXTRALARGE", 500, 300)
	case "MG":
		n := 66
		if h.Quick {
			n = 20
		}
		return kernels.NewMG("CLASS B", n)
	case "IS":
		n := 2000000 / scale
		return kernels.NewIS("CLASS C", n, 5)
	case "Incomplete-Cholesky":
		d := sparse.Crankseg1
		d.Rows /= scale * 2
		d.Cols /= scale * 2
		return kernels.NewIC(d)
	}
	return nil
}

// ---- simulated execution times ----

// innerParallelTime simulates the classical (inner-loop) parallelization:
// every parallel region of every outer iteration pays a fork-join, and
// its memory-bound share scales only to bandwidth saturation.
func innerParallelTime(m simcore.Machine, iters []kernels.OuterIter, memFrac float64) float64 {
	var t float64
	for _, it := range iters {
		t += it.Serial
		for _, r := range it.Regions {
			p := m.Cores
			if r.Trips < p {
				p = r.Trips
			}
			if p <= 1 {
				t += r.Units
				continue
			}
			sub := m
			sub.Cores = p
			t += m.ForkJoin + sub.RooflineTime(r.Units/float64(p), r.Units, memFrac)
		}
	}
	return t
}

// timeFor simulates a kernel's execution time under a parallelism level
// and schedule, applying the roofline split between compute (which scales
// with cores and scheduling) and memory-bound work (which scales to
// bandwidth saturation).
func (h *Harness) timeFor(k kernels.Kernel, level corpus.ParallelismLevel, cores int, policy simcore.Policy, chunk int) float64 {
	m := h.Cal.NewMachine(cores)
	costs := kernels.OuterCosts(k)
	work := simcore.SerialTime(costs)
	switch level {
	case corpus.Outer:
		makespan := m.Schedule(policy, costs, chunk) - m.ForkJoin
		return m.ForkJoin + m.RooflineTime(makespan, work, k.MemFrac())
	case corpus.Inner:
		return innerParallelTime(m, k.Iters(), k.MemFrac())
	default:
		return work
	}
}

// serialSeconds converts the kernel's unit total to seconds.
func (h *Harness) serialSeconds(k kernels.Kernel) float64 {
	return simcore.SerialTime(kernels.OuterCosts(k)) * h.Cal.SecondsPerUnit
}

// achieved returns the parallelism level each analysis arm finds for a
// benchmark by running the parallelizer on its mini-C source.
func achieved(b *corpus.Benchmark) map[phase2.Level]corpus.ParallelismLevel {
	out := map[phase2.Level]corpus.ParallelismLevel{}
	for _, lvl := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase, phase2.LevelNew} {
		out[lvl] = corpus.Achieved(corpus.PlanFor(b, lvl), b.KernelFunc)
	}
	return out
}

func (h *Harness) printf(format string, args ...any) {
	fmt.Fprintf(h.Out, format, args...)
}
