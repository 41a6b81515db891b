package corpus

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// openPlan clears the work estimate of every loop of the plan, so each
// chosen loop opens its region whenever its entry gate passes, as it
// does at sizes where the estimate reaches parallelize.MinWork. Tests of
// the parallel machinery run on such plans: at quick scale most regions
// would decline.
func openPlan(plan *parallelize.Plan) {
	for _, fp := range plan.Funcs {
		for _, lp := range fp.Loops {
			lp.Work = nil
		}
	}
}

// runEngine executes the benchmark's workload under the given engine
// and worker count and returns the array end state. open runs it on
// the plan with its estimates cleared (openPlan).
func runEngine(t *testing.T, b *Benchmark, engine string, workers int, open bool) (map[string]*interp.Array, *interp.Machine) {
	t.Helper()
	w := NewWork(b, ScaleQuick)
	m, err := w.NewMachine(workers)
	if err != nil {
		t.Fatalf("%s: machine: %v", b.Name, err)
	}
	if open {
		openPlan(m.Plan)
	}
	m.Interp = engine
	if err := w.Run(m); err != nil {
		t.Fatalf("%s [%s@%d]: %v", b.Name, engine, workers, err)
	}
	return w.Arrays, m
}

// requireIdentical compares two array end states bit for bit: integer
// slots by value, float slots by their IEEE-754 bit patterns (no
// epsilon — the engines must agree exactly at equal worker counts).
func requireIdentical(t *testing.T, want, got map[string]*interp.Array, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d arrays vs %d", label, len(want), len(got))
	}
	for name, wa := range want {
		ga := got[name]
		if ga == nil {
			t.Fatalf("%s: missing array %q", label, name)
		}
		if len(wa.Ints) != len(ga.Ints) || len(wa.Flts) != len(ga.Flts) {
			t.Fatalf("%s: array %q shape mismatch", label, name)
		}
		for i, v := range wa.Ints {
			if ga.Ints[i] != v {
				t.Fatalf("%s: %s.Ints[%d] = %d, want %d", label, name, i, ga.Ints[i], v)
			}
		}
		for i, v := range wa.Flts {
			if math.Float64bits(ga.Flts[i]) != math.Float64bits(v) {
				t.Fatalf("%s: %s.Flts[%d] = %v (bits %x), want %v (bits %x)",
					label, name, i, ga.Flts[i], math.Float64bits(ga.Flts[i]), v, math.Float64bits(v))
			}
		}
	}
}

// TestDifferentialEngines runs every corpus benchmark under the tree
// oracle and the bytecode VM, serially and at Workers=8, on the plan and
// at 8 workers on the plan with its estimates cleared (openPlan), and
// requires bit-identical end states and equal region counters per run.
// (Serial and parallel float results may legitimately differ in low
// bits — the contract is engine identity, not schedule identity.)
func TestDifferentialEngines(t *testing.T) {
	for _, b := range Extended() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, run := range []struct {
				workers int
				open    bool
			}{{1, false}, {8, false}, {8, true}} {
				ref, mt := runEngine(t, b, "tree", run.workers, run.open)
				got, mv := runEngine(t, b, "vm", run.workers, run.open)
				requireIdentical(t, ref, got, b.Name+"/vm")
				if mt.Stats != mv.Stats {
					t.Errorf("%+v: tree counts %+v, vm %+v", run, mt.Stats, mv.Stats)
				}
			}
		})
	}
}

// TestDifferentialParallelExercised guards against the differential
// test passing vacuously: the benchmarks whose plans choose an outer
// loop must actually run parallel regions on both engines, on the plans
// with their estimates cleared.
func TestDifferentialParallelExercised(t *testing.T) {
	for _, name := range []string{"AMGmk", "UA(transf)", "SDDMM", "CG",
		"Scatter-Identity", "Scatter-Shuffle", "Scatter-Interleave"} {
		b := ByName(name)
		if b == nil {
			t.Fatalf("no benchmark %q", name)
		}
		if b.Expected[phase2.LevelNew] == None {
			continue
		}
		for _, engine := range []string{"tree", "vm"} {
			_, m := runEngine(t, b, engine, 8, true)
			if m.Stats.ParallelRegions == 0 {
				t.Errorf("%s [%s@8]: no parallel regions executed", name, engine)
			}
		}
	}
}

// TestScatterSerialVsParallel checks the scatter extension end to end:
// the a[p[i]] kernels write each cell exactly once (p is a permutation),
// so unlike reductions the parallel schedule cannot perturb float
// results — serial and 8-worker runs must be bit-identical. The
// 8-worker runs use the plans with their estimates cleared, whose quick
// scale regions would otherwise decline. Run under -race this also
// proves the chosen outer loops carry no data races.
func TestScatterSerialVsParallel(t *testing.T) {
	for _, b := range Scatter() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, engine := range []string{"tree", "vm"} {
				ref, _ := runEngine(t, b, engine, 1, false)
				got, m := runEngine(t, b, engine, 8, true)
				requireIdentical(t, ref, got, b.Name+"/"+engine)
				if m.Stats.ParallelRegions == 0 {
					t.Errorf("%s [%s@8]: no parallel regions executed", b.Name, engine)
				}
			}
		})
	}
}

// TestGuardBypassAMGmk pins the region-entry guard on both interpreter
// engines. With amg_fill dropped, A_rownnz stays all zeros: the scalar
// check -1+num_rownnz<=irownnz_max still passes, but the plan's guard
// (A_rownnz strictly monotone) fails, so the region must run its serial
// loop and count one fallback. Run in parallel instead, every iteration
// updates y_data[0] and the result depends on the schedule.
func TestGuardBypassAMGmk(t *testing.T) {
	run := func(engine string, workers int) (map[string]*interp.Array, interp.Stats) {
		w := NewWork(AMGmk, ScaleQuick)
		if w.Calls[0].Fn != "amg_fill" {
			t.Fatalf("first call is %s, want amg_fill", w.Calls[0].Fn)
		}
		w.Calls = w.Calls[1:]
		m, err := w.NewMachine(workers)
		if err != nil {
			t.Fatal(err)
		}
		m.Interp = engine
		if err := w.Run(m); err != nil {
			t.Fatalf("%s@%d: %v", engine, workers, err)
		}
		return w.Arrays, m.Stats
	}
	serial, _ := run("vm", 1)
	for _, engine := range []string{"vm", "tree"} {
		got, st := run(engine, 8)
		if st.ParallelRegions != 0 || st.RuntimeFallback != 1 {
			t.Errorf("%s@8: %d regions, %d fallbacks; want 0 and 1", engine, st.ParallelRegions, st.RuntimeFallback)
		}
		requireIdentical(t, serial, got, "AMGmk unfilled/"+engine)
	}
}

// TestGuardAdversarial feeds every kernel whose chosen loop carries a
// guard a scrambled subscript array (Adversarial) in place of its fill
// calls. Whether the guard passes or fails, the VM and the tree walker
// at 8 workers, on the plan with its estimates cleared, must reach the
// serial end state bit for bit and agree on their region and fallback
// counters; under -race a guard that passes a conflicting array shows as
// a data race too.
func TestGuardAdversarial(t *testing.T) {
	covered := map[string]bool{}
	for _, b := range Extended() {
		t.Run(b.Name, func(t *testing.T) {
			fallbacks := 0
			for _, s := range Scrambles {
				run := func(engine string, workers int) (map[string]*interp.Array, interp.Stats) {
					w, err := Adversarial(b, s)
					if err != nil {
						t.Fatal(err)
					}
					if w == nil {
						return nil, interp.Stats{}
					}
					m, err := w.NewMachine(workers)
					if err != nil {
						t.Fatal(err)
					}
					openPlan(m.Plan)
					m.Interp = engine
					if err := w.Run(m); err != nil {
						t.Fatalf("%s %s@%d: %v", s, engine, workers, err)
					}
					return w.Arrays, m.Stats
				}
				serial, _ := run("vm", 1)
				if serial == nil {
					return
				}
				covered[b.Name] = true
				vm, vmStats := run("vm", 8)
				tree, treeStats := run("tree", 8)
				requireIdentical(t, serial, vm, string(s)+"/vm")
				requireIdentical(t, serial, tree, string(s)+"/tree")
				if vmStats != treeStats {
					t.Errorf("%s: vm counts %+v, tree %+v", s, vmStats, treeStats)
				}
				fallbacks += vmStats.RuntimeFallback
			}
			if fallbacks == 0 {
				t.Errorf("no scramble failed a guard")
			}
		})
	}
	for _, name := range []string{"AMGmk", "SDDMM", "UA(transf)", "Scatter-Identity", "Scatter-Shuffle", "Scatter-Interleave"} {
		if !covered[name] {
			t.Errorf("%s: no guarded loop to scramble", name)
		}
	}
}
