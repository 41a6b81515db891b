package corpus

import "testing"

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
