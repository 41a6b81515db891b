// AMGmk end-to-end: run the three analysis arms on the AMGmk kernels
// (paper Section 3.1), show which loop each arm parallelizes, and check
// the chosen plan on real data: the corpus workload runs on the VM
// serially and on every core, and the example exits nonzero unless both
// runs reach bit-identical end states.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"slices"

	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/phase2"

	"repro"
)

func main() {
	b := corpus.AMGmk

	fmt.Println("== analysis arms on the AMGmk kernels ==")
	for _, level := range []phase2.Level{phase2.LevelClassical, phase2.LevelBase, phase2.LevelNew} {
		plan := corpus.PlanFor(b, level)
		fmt.Printf("%-16s parallelism: %s\n", level, corpus.Achieved(plan, b.KernelFunc))
	}

	res, err := subsub.Analyze(b.Source, subsub.Options{Level: subsub.New})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-- properties --")
	for _, p := range res.Properties() {
		fmt.Println(" ", p)
	}
	fmt.Println("\n-- annotated kernel --")
	fmt.Print(res.AnnotatedSource())

	// The plan on real data: the corpus workload (amg_fill, then
	// amg_matvec) on the VM, serially and on every core.
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
