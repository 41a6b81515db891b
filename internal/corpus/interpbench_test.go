package corpus

import (
	"fmt"
	"testing"

	"repro/internal/interp"
)

// Engine benchmarks: the same workload on the tree-walking oracle and
// the bytecode VM, serial (Workers=1), so the ratio isolates pure
// interpretation overhead. BENCH_runtime.json
// (cmd/benchrunner -experiment runtime) tracks the same kernels with
// parallel rows.
var interpBenchKernels = []string{"AMGmk", "UA(transf)", "SDDMM"}

func benchEngine(b *testing.B, name, engine string) {
	bench := ByName(name)
	if bench == nil {
		b.Fatalf("no benchmark %q", name)
	}
	w := NewWork(bench, ScaleBench)
	m, err := w.NewMachine(1)
	if err != nil {
		b.Fatal(err)
	}
	m.Interp = engine
	if err := w.Run(m); err != nil { // warm-up: compile + touch memory
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpTree(b *testing.B) {
	for _, name := range interpBenchKernels {
		b.Run(name, func(b *testing.B) { benchEngine(b, name, "tree") })
	}
}

func BenchmarkInterpVM(b *testing.B) {
	for _, name := range interpBenchKernels {
		b.Run(name, func(b *testing.B) { benchEngine(b, name, "vm") })
	}
}

// BenchmarkInterpRegions times parallel-region dispatch: every corpus
// kernel at quick scale on the VM, with 1 and 2 workers. Like an
// operation of perfbench's exec-kernels workload, an iteration restores
// the seeded inputs, then runs the calls. It reports the regions opened
// and declined per run. Most quick-scale regions are short next to a
// region's fork-join: gramschmidt's 48 and the Scatter kernels' 2 per run
// decline for a work estimate below parallelize.MinWork, CHOLMOD's
// region, whose estimate is unknown, opens and lasts a few microseconds,
// and heat-3d's, MG's, syrk's and fdtd-2d's sweeps open and gain from a
// second worker.
func BenchmarkInterpRegions(b *testing.B) {
	for _, bench := range Extended() {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", bench.Name, workers), func(b *testing.B) {
				w := NewWork(bench, ScaleQuick)
				pristine := map[string]*interp.Array{}
				for n, a := range w.Arrays {
					pristine[n] = a.Clone()
				}
				m, err := w.NewMachine(workers)
				if err != nil {
					b.Fatal(err)
				}
				m.Interp = "vm"
				run := func() {
					for n, a := range w.Arrays {
						copy(a.Ints, pristine[n].Ints)
						copy(a.Flts, pristine[n].Flts)
					}
					if err := w.Run(m); err != nil {
						b.Fatal(err)
					}
				}
				run() // warm-up: compile + touch memory
				before := m.Stats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(m.Stats.ParallelRegions-before.ParallelRegions)/float64(b.N), "regions/op")
				b.ReportMetric(float64(m.Stats.Declined-before.Declined)/float64(b.N), "declined/op")
			})
		}
	}
}
