package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/phase2"
)

// RuntimeRow is one machine-readable measurement of the real execution
// engines over a corpus workload: wall-clock seconds for one workload
// run under (engine, workers), plus the speedup against the tree-walking
// oracle at the same worker count.
type RuntimeRow struct {
	Kernel        string  `json:"kernel"`
	Engine        string  `json:"engine"`
	Workers       int     `json:"workers"`
	Seconds       float64 `json:"seconds"`
	SpeedupVsTree float64 `json:"speedup_vs_tree"`
}

// RuntimeReport is the BENCH_runtime.json document: the perf trajectory
// of the execution substrate across PRs.
type RuntimeReport struct {
	GOOS   string       `json:"goos"`
	GOARCH string       `json:"goarch"`
	Cores  int          `json:"cores"`
	Rows   []RuntimeRow `json:"rows"`
}

// runtimeKernels are the workloads the runtime experiment measures (the
// three headline subscripted-subscript kernels plus one classical one).
var runtimeKernels = []string{"AMGmk", "UA(transf)", "SDDMM", "CG"}

// runtimeWorkers are the worker counts every engine is measured at.
var runtimeWorkers = []int{1, 2, 8}

// runtimeEngines are the measured tiers, the tree oracle first (the
// speedup baseline).
var runtimeEngines = []string{"tree", "vm", "native"}

// Runtime measures real (not simulated) execution time of the corpus
// workloads across the engine tiers — tree oracle, bytecode VM (the
// default engine), and the native tier (internal/codegen output built
// with the Go compiler and timed inside the binary) — serial and
// parallel, prints a table, and — when jsonPath is non-empty — writes
// the rows there as machine-readable JSON. The workload is rebuilt from
// scratch for every repetition so repeated runs never feed a kernel its
// own output.
func (h *Harness) Runtime(jsonPath string) (*RuntimeReport, error) {
	scale, reps := corpus.ScaleBench, 3
	if h.Quick {
		scale, reps = corpus.ScaleQuick, 1
	}
	rep := &RuntimeReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Cores: runtime.NumCPU()}

	h.printf("Runtime: real execution, tree oracle vs vm vs native Go (best of %d)\n", reps)
	h.printf("%-12s %-9s %-8s %12s %14s\n", "kernel", "engine", "workers", "seconds", "vs tree")
	for _, name := range runtimeKernels {
		b := corpus.ByName(name)
		bin, cleanup, err := buildNative(b)
		if err != nil {
			return nil, err
		}
		treeSecs := map[int]float64{}
		for _, engine := range runtimeEngines {
			for _, workers := range runtimeWorkers {
				var secs float64
				var err error
				if engine == "native" {
					secs, err = measureNative(b, bin, workers, scale, reps)
				} else {
					secs, err = measureRuntime(b, engine, workers, scale, reps)
				}
				if err != nil {
					cleanup()
					return nil, err
				}
				speedup := 1.0
				if engine == "tree" {
					treeSecs[workers] = secs
				} else if secs > 0 {
					speedup = treeSecs[workers] / secs
				}
				rep.Rows = append(rep.Rows, RuntimeRow{
					Kernel: name, Engine: engine, Workers: workers,
					Seconds: secs, SpeedupVsTree: speedup,
				})
				h.printf("%-12s %-9s %-8d %12.6f %13.2fx\n", name, engine, workers, secs, speedup)
			}
		}
		cleanup()
	}
	h.printf("\n")

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measureRuntime times one (kernel, engine, workers) cell: the machine
// is built and warmed once (plan + compile outside the timed section),
// then each repetition runs a freshly built workload.
func measureRuntime(b *corpus.Benchmark, engine string, workers int, scale corpus.Scale, reps int) (float64, error) {
	warm := corpus.NewWork(b, scale)
	m, err := warm.NewMachine(workers)
	if err != nil {
		return 0, err
	}
	m.Interp = engine
	if err := warm.Run(m); err != nil {
		return 0, err
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		w := corpus.NewWork(b, scale)
		t0 := time.Now()
		if err := w.Run(m); err != nil {
			return 0, err
		}
		secs := time.Since(t0).Seconds()
		if r == 0 || secs < best {
			best = secs
		}
	}
	return best, nil
}

// buildNative emits the kernel's analyzed plan as a Go main package and
// compiles it (no race instrumentation — this is the timed
// configuration; the differential gate covers -race).
func buildNative(b *corpus.Benchmark) (string, func(), error) {
	plan := corpus.PlanFor(b, phase2.LevelNew)
	pkg, err := codegen.EmitPackage(plan, "subsubgen/bench")
	if err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp("", "subsubgen-bench-")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if err := pkg.WritePackage(dir); err != nil {
		cleanup()
		return "", nil, err
	}
	bin, err := codegen.BuildBinary(dir, false)
	if err != nil {
		cleanup()
		return "", nil, err
	}
	return bin, cleanup, nil
}

// measureNative times the generated binary on freshly built workloads.
// The binary reports the call-sequence wall time itself, so process
// startup and JSON codec costs stay outside the measurement, mirroring
// how the interpreter cells time only w.Run.
func measureNative(b *corpus.Benchmark, bin string, workers int, scale corpus.Scale, reps int) (float64, error) {
	best := 0.0
	for r := 0; r < reps; r++ {
		w := corpus.NewWork(b, scale)
		in, err := codegen.InputFromWork(w, workers, nil)
		if err != nil {
			return 0, err
		}
		res, err := codegen.RunBinary(bin, in)
		if err != nil {
			return 0, err
		}
		if r == 0 || res.Seconds < best {
			best = res.Seconds
		}
	}
	return best, nil
}
