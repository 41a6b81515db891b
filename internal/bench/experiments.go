package bench

import (
	"time"

	"repro/internal/corpus"
	"repro/internal/phase2"
	"repro/internal/simcore"

	"repro/internal/kernels"
)

// Result rows are exposed so tests and the benchmark harness can assert
// on the shapes.

// Table1Row is one row of Table 1.
type Table1Row struct {
	Benchmark, Suite, Dataset string
	SerialSeconds             float64
	MeasuredSeconds           float64
}

// Table1 regenerates Table 1: benchmarks, datasets and serial execution
// times. MeasuredSeconds is a real wall-clock run; SerialSeconds is the
// calibrated model time (the two agreeing validates the calibration).
func (h *Harness) Table1() []Table1Row {
	var rows []Table1Row
	add := func(k kernels.Kernel, suite string) {
		// Take the best of two runs to shed scheduler/GC noise.
		measured := 0.0
		for r := 0; r < 2; r++ {
			k.Reset()
			t0 := time.Now()
			k.RunSerial()
			d := time.Since(t0).Seconds()
			if r == 0 || d < measured {
				measured = d
			}
		}
		rows = append(rows, Table1Row{
			Benchmark:       k.Name(),
			Suite:           suite,
			Dataset:         k.Dataset(),
			SerialSeconds:   h.serialSeconds(k),
			MeasuredSeconds: measured,
		})
	}
	for _, k := range h.amgKernels() {
		add(k, "CORAL suite")
	}
	add(h.experiment2Kernel("CHOLMOD-Supernodal"), "SuiteSparse")
	for _, k := range h.sddmmKernels() {
		add(k, "Nisa et al.")
	}
	for _, k := range h.uaKernels() {
		add(k, "NPB3.3")
	}
	add(h.experiment2Kernel("CG"), "NPB3.3")
	add(h.experiment2Kernel("heat-3d"), "PolyBench-4.2")
	add(h.experiment2Kernel("fdtd-2d"), "PolyBench-4.2")
	add(h.experiment2Kernel("gramschmidt"), "PolyBench-4.2")
	add(h.experiment2Kernel("syrk"), "PolyBench-4.2")
	add(h.experiment2Kernel("MG"), "NPB3.3/SPEC")
	add(h.experiment2Kernel("IS"), "NPB3.3")
	add(h.experiment2Kernel("Incomplete-Cholesky"), "Sparselib++")
	h.printf("Table 1: benchmarks, datasets, serial execution times\n")
	h.printf("%-22s %-16s %-16s %12s %12s\n", "Benchmark", "Suite", "Dataset", "model(s)", "measured(s)")
	for _, r := range rows {
		h.printf("%-22s %-16s %-16s %12.4f %12.4f\n", r.Benchmark, r.Suite, r.Dataset, r.SerialSeconds, r.MeasuredSeconds)
	}
	return rows
}

// SeriesRow is one dataset's series over the simulated core counts.
type SeriesRow struct {
	Benchmark, Dataset string
	// Values[i] corresponds to Cores[i].
	Values []float64
}

// experiment1Sets returns the three Experiment-1 application groups.
func (h *Harness) experiment1Sets() map[string][]kernels.Kernel {
	return map[string][]kernels.Kernel{
		"AMGmk":      h.amgKernels(),
		"SDDMM":      h.sddmmKernels(),
		"UA(transf)": h.uaKernels(),
	}
}

// withoutLevel is the parallelism the classical parallelizer finds for an
// Experiment-1 benchmark (the "without subscripted-subscript analysis"
// arm), read off the actual plan.
func withoutLevel(name string) corpus.ParallelismLevel {
	b := corpus.ByName(name)
	return corpus.Achieved(corpus.PlanFor(b, phase2.LevelClassical), b.KernelFunc)
}

// withLevel is the parallelism found with the new analysis.
func withLevel(name string) corpus.ParallelismLevel {
	b := corpus.ByName(name)
	return corpus.Achieved(corpus.PlanFor(b, phase2.LevelNew), b.KernelFunc)
}

// Fig13 regenerates Figure 13: performance improvement of the
// Cetus-parallelized codes with vs without subscripted-subscript analysis
// on 4/8/16 cores.
func (h *Harness) Fig13() map[string][]SeriesRow {
	out := map[string][]SeriesRow{}
	for name, ks := range h.experiment1Sets() {
		with := withLevel(name)
		without := withoutLevel(name)
		for _, k := range ks {
			row := SeriesRow{Benchmark: name, Dataset: k.Dataset()}
			for _, cores := range Cores {
				tWith := h.timeFor(k, with, cores, simcore.Static, 0)
				tWithout := h.timeFor(k, without, cores, simcore.Static, 0)
				row.Values = append(row.Values, tWithout/tWith)
			}
			out[name] = append(out[name], row)
		}
	}
	h.printSeries("Figure 13: improvement, Cetus WITH vs WITHOUT subscripted-subscript analysis", out, "x")
	return out
}

// Fig14 regenerates Figure 14: improvement of the parallel codes (with
// the analysis) over serial.
func (h *Harness) Fig14() map[string][]SeriesRow {
	out := map[string][]SeriesRow{}
	for name, ks := range h.experiment1Sets() {
		with := withLevel(name)
		for _, k := range ks {
			row := SeriesRow{Benchmark: name, Dataset: k.Dataset()}
			serial := simcore.SerialTime(kernels.OuterCosts(k))
			for _, cores := range Cores {
				t := h.timeFor(k, with, cores, simcore.Static, 0)
				row.Values = append(row.Values, serial/t)
			}
			out[name] = append(out[name], row)
		}
	}
	h.printSeries("Figure 14: improvement over serial with the analysis applied", out, "x")
	return out
}

// Fig15 regenerates Figure 15: parallel efficiency (speedup / cores).
func (h *Harness) Fig15() map[string][]SeriesRow {
	out := map[string][]SeriesRow{}
	for name, ks := range h.experiment1Sets() {
		with := withLevel(name)
		for _, k := range ks {
			row := SeriesRow{Benchmark: name, Dataset: k.Dataset()}
			serial := simcore.SerialTime(kernels.OuterCosts(k))
			for _, cores := range Cores {
				t := h.timeFor(k, with, cores, simcore.Static, 0)
				row.Values = append(row.Values, 100*serial/t/float64(cores))
			}
			out[name] = append(out[name], row)
		}
	}
	h.printSeries("Figure 15: parallel efficiency (%)", out, "%")
	return out
}

// Fig16Row holds the static/dynamic pair for one SDDMM dataset and core
// count.
type Fig16Row struct {
	Dataset         string
	Cores           int
	Static, Dynamic float64 // improvement over serial
}

// Fig16 regenerates Figure 16: dynamic vs static scheduling for SDDMM.
func (h *Harness) Fig16() []Fig16Row {
	var rows []Fig16Row
	for _, k := range h.sddmmKernels() {
		serial := simcore.SerialTime(kernels.OuterCosts(k))
		for _, cores := range Cores {
			st := h.timeFor(k, corpus.Outer, cores, simcore.Static, 0)
			dy := h.timeFor(k, corpus.Outer, cores, simcore.Dynamic, 1)
			rows = append(rows, Fig16Row{
				Dataset: k.Dataset(),
				Cores:   cores,
				Static:  serial / st,
				Dynamic: serial / dy,
			})
		}
	}
	h.printf("\nFigure 16: dynamic vs static scheduling, SDDMM (improvement over serial)\n")
	h.printf("%-18s %6s %10s %10s\n", "Dataset", "Cores", "Dynamic", "Static")
	for _, r := range rows {
		h.printf("%-18s %6d %9.2fx %9.2fx\n", r.Dataset, r.Cores, r.Dynamic, r.Static)
	}
	return rows
}

// Fig17Row is one benchmark's bars in Figure 17.
type Fig17Row struct {
	Benchmark string
	// Improvement over serial on 16 cores for the three arms.
	Cetus, Base, New float64
	// Achieved parallelism levels per arm.
	Levels map[phase2.Level]corpus.ParallelismLevel
}

// Fig17 regenerates Figure 17: the three analysis arms over all twelve
// benchmarks on 16 simulated cores.
func (h *Harness) Fig17() []Fig17Row {
	var rows []Fig17Row
	for _, b := range corpus.All() {
		k := h.experiment2Kernel(b.Name)
		levels := achieved(b)
		serial := simcore.SerialTime(kernels.OuterCosts(k))
		timeAt := func(level corpus.ParallelismLevel) float64 {
			return serial / h.timeFor(k, level, 16, simcore.Static, 0)
		}
		rows = append(rows, Fig17Row{
			Benchmark: b.Name,
			Cetus:     timeAt(levels[phase2.LevelClassical]),
			Base:      timeAt(levels[phase2.LevelBase]),
			New:       timeAt(levels[phase2.LevelNew]),
			Levels:    levels,
		})
	}
	h.printf("\nFigure 17: improvement over serial on 16 cores (three analysis arms)\n")
	h.printf("%-22s %10s %14s %14s   %s\n", "Benchmark", "Cetus", "Cetus+Base", "Cetus+New", "(levels C/B/N)")
	for _, r := range rows {
		h.printf("%-22s %9.2fx %13.2fx %13.2fx   %s/%s/%s\n",
			r.Benchmark, r.Cetus, r.Base, r.New,
			r.Levels[phase2.LevelClassical], r.Levels[phase2.LevelBase], r.Levels[phase2.LevelNew])
	}
	return rows
}

// printSeries renders a per-dataset series table.
func (h *Harness) printSeries(title string, data map[string][]SeriesRow, unit string) {
	h.printf("\n%s\n", title)
	h.printf("%-12s %-18s", "Benchmark", "Dataset")
	for _, c := range Cores {
		h.printf(" %8d-core", c)
	}
	h.printf("\n")
	for _, name := range []string{"AMGmk", "SDDMM", "UA(transf)"} {
		for _, row := range data[name] {
			h.printf("%-12s %-18s", row.Benchmark, row.Dataset)
			for _, v := range row.Values {
				h.printf(" %11.2f%s", v, unit)
			}
			h.printf("\n")
		}
	}
}
