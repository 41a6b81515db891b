// SDDMM with static vs dynamic scheduling (paper Figure 16): the skewed
// column occupancy of the input matrix makes OpenMP-style static chunking
// imbalanced, while dynamic scheduling load-balances it. Runs the real
// kernel on the available cores and the calibrated 4/8/16-core simulation.
package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/kernels"
	"repro/internal/phase2"
	"repro/internal/sched"
	"repro/internal/sparse"
)

func main() {
	// A skewed (gsm_106857-like) and a balanced (af_shell1-like) input.
	skewed := sparse.Dataset{Name: "skewed", Rows: 2000, Cols: 2000, MeanNNZ: 24, Shape: sparse.Skewed, Seed: 1}
	balanced := sparse.Dataset{Name: "balanced", Rows: 2000, Cols: 2000, MeanNNZ: 24, Shape: sparse.Balanced, Seed: 2}
	workers := runtime.GOMAXPROCS(0)

	fmt.Printf("real execution on %d workers:\n", workers)
	for _, d := range []sparse.Dataset{skewed, balanced} {
		k := kernels.NewSDDMMRank(d, 128)
		measure := func(policy sched.Policy) time.Duration {
			k.Reset()
			t0 := time.Now()
			k.RunParallel(sched.Options{Workers: workers, Policy: policy, Chunk: 1})
			return time.Since(t0)
		}
		st := measure(sched.Static)
		dy := measure(sched.Dynamic)
		fmt.Printf("  %-9s static %8v   dynamic %8v\n", d.Name, st, dy)
	}

	fmt.Println("\ncalibrated 4/8/16-core simulation (Figure 16 reproduction):")
	bench.New(os.Stdout, true).Fig16()

	// The analysis side: the plan that justifies the parallel column loop.
	plan := corpus.PlanFor(corpus.SDDMM, phase2.LevelNew)
	fmt.Println("\nplan summary:")
	fmt.Print(plan.Summary())
}
