// SDDMM (paper Figures 10, 11 and 16): the plan that parallelizes the
// column loop, checked on real data — the corpus workload runs on the
// VM serially and on every core, and the example exits nonzero unless
// both runs reach bit-identical end states — and the calibrated
// 4/8/16-core simulation of static vs dynamic scheduling: the skewed
// column occupancy of the input matrices makes OpenMP-style static
// chunking imbalanced, while dynamic scheduling load-balances it.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"slices"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/phase2"
)

func main() {
	// The analysis side: the plan that justifies the parallel column loop.
	b := corpus.SDDMM
	plan := corpus.PlanFor(b, phase2.LevelNew)
	fmt.Println("plan summary:")
	fmt.Print(plan.Summary())

	// The plan on real data: the corpus workload (sddmm_fill, then
	// sddmm) on the VM, serially and on every core.
	workers := max(runtime.GOMAXPROCS(0), 2) // two on one core, so the region runs
	serial, _ := run(b, 1)
	par, stats := run(b, workers)
	fmt.Printf("\nVM, %d workers: %d parallel regions, %d declined, %d fallbacks\n",
		workers, stats.ParallelRegions, stats.Declined, stats.RuntimeFallback)
	if !sameState(serial, par) {
		fmt.Println("end state differs from the serial run")
		os.Exit(1)
	}
	fmt.Println("end state bit-identical to the serial run")

	fmt.Println("\ncalibrated 4/8/16-core simulation (Figure 16 reproduction):")
	bench.New(os.Stdout, true).Fig16()
}

// run executes b's corpus workload on the VM with the plan of the full
// analysis attached.
func run(b *corpus.Benchmark, workers int) (*corpus.Work, interp.Stats) {
	w := corpus.NewWork(b, corpus.ScaleBench)
	m, err := w.NewMachine(workers)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Run(m); err != nil {
		log.Fatal(err)
	}
	return w, m.Stats
}

// sameState reports whether two runs left every array bit-identical.
func sameState(a, b *corpus.Work) bool {
	for name, x := range a.Arrays {
		y := b.Arrays[name]
		if !slices.Equal(x.Ints, y.Ints) || len(x.Flts) != len(y.Flts) {
			return false
		}
		for i, v := range x.Flts {
			if math.Float64bits(v) != math.Float64bits(y.Flts[i]) {
				return false
			}
		}
	}
	return true
}
