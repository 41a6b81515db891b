// Command benchrunner regenerates the paper's evaluation artifacts:
// Table 1 and Figures 13-17 (see DESIGN.md for the per-experiment index
// and EXPERIMENTS.md for paper-vs-measured results).
//
// Usage:
//
//	benchrunner [-experiment table1|fig13|fig14|fig15|fig16|fig17|ablation|compiletime|runtime|serve|incr|all] [-quick]
//
// Figures 13-17 simulate the hand kernels' work models on a calibrated
// multicore model; the kernels themselves only run serially (Table 1 and
// the calibration). The runtime experiment measures the real execution
// engines (tree oracle, bytecode VM and the emitted native Go, each
// serially and on 2 and 8 workers) over the corpus workloads and writes
// the rows to -runtime-json (default BENCH_runtime.json). The serve
// experiment drives an open-loop Zipf-skewed load against an in-process
// 3-node subsubd fleet — healthy, then with one peer killed — and writes
// latency percentiles, cache hit rate, and fallback rate to -serve-json
// (default BENCH_serve.json). The incr experiment measures
// cold vs warm re-analysis latency with the function-granular unit
// store (1 edited function of N), in process and as a POST of the
// edited source to an in-process subsubd, and writes the rows to
// -incr-json (default BENCH_incr.json).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("experiment", "all", "table1, fig13, fig14, fig15, fig16, fig17, ablation, compiletime, runtime, serve, incr or all")
	quick := flag.Bool("quick", false, "use scaled-down datasets")
	workers := flag.Int("workers", 0, "worker pool for the compile-time batch experiment (0 = all cores)")
	runtimeJSON := flag.String("runtime-json", "BENCH_runtime.json", "output path for the runtime experiment's JSON rows (empty = don't write)")
	serveJSON := flag.String("serve-json", "BENCH_serve.json", "output path for the serve experiment's JSON rows (empty = don't write)")
	incrJSON := flag.String("incr-json", "BENCH_incr.json", "output path for the incr experiment's JSON rows (empty = don't write)")
	flag.Parse()

	h := bench.New(os.Stdout, *quick)
	h.Workers = *workers
	fmt.Printf("calibration: %.3g s/unit, fork-join %.0f units, dispatch %.1f units\n\n",
		h.Cal.SecondsPerUnit, h.Cal.ForkJoinUnits, h.Cal.DispatchUnits)

	run := func(name string) {
		switch name {
		case "table1":
			h.Table1()
		case "fig13":
			h.Fig13()
		case "fig14":
			h.Fig14()
		case "fig15":
			h.Fig15()
		case "fig16":
			h.Fig16()
		case "fig17":
			h.Fig17()
		case "ablation":
			h.Ablation()
		case "compile", "compiletime":
			h.CompileTime()
		case "runtime":
			if _, err := h.Runtime(*runtimeJSON); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: runtime experiment: %v\n", err)
				os.Exit(1)
			}
		case "serve":
			if _, err := h.Serve(*serveJSON); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: serve experiment: %v\n", err)
				os.Exit(1)
			}
		case "incr":
			if _, err := h.Incr(*incrJSON); err != nil {
				fmt.Fprintf(os.Stderr, "benchrunner: incr experiment: %v\n", err)
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig13", "fig14", "fig15", "fig16", "fig17", "ablation", "compile", "runtime", "serve", "incr"} {
			run(name)
		}
		return
	}
	run(*exp)
}
