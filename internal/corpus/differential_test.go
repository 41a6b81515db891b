package corpus

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/phase2"
)

// runEngines executes the benchmark's workload under the given engine
// and worker count and returns the array end state.
func runEngine(t *testing.T, b *Benchmark, engine string, workers int) (map[string]*interp.Array, *interp.Machine) {
	t.Helper()
	w := NewWork(b, ScaleQuick)
	m, err := w.NewMachine(workers)
	if err != nil {
		t.Fatalf("%s: machine: %v", b.Name, err)
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
// oracle and the bytecode VM, serially and at Workers=8, and requires
// bit-identical end states per worker count. (Serial and parallel float
// results may legitimately differ in low bits — the contract is engine
// identity, not schedule identity.)
func TestDifferentialEngines(t *testing.T) {
	for _, b := range Extended() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 8} {
				ref, _ := runEngine(t, b, "tree", workers)
				got, _ := runEngine(t, b, "vm", workers)
				requireIdentical(t, ref, got, b.Name+"/vm")
			}
		})
	}
}

// TestDifferentialParallelExercised guards against the differential
// test passing vacuously: the benchmarks whose plans choose an outer
// loop must actually run parallel regions on both engines.
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
			_, m := runEngine(t, b, engine, 8)
			if m.Stats.ParallelRegions == 0 {
				t.Errorf("%s [%s@8]: no parallel regions executed", name, engine)
			}
		}
	}
}

// TestScatterSerialVsParallel checks the scatter extension end to end:
// the a[p[i]] kernels write each cell exactly once (p is a permutation),
// so unlike reductions the parallel schedule cannot perturb float
// results — serial and 8-worker runs must be bit-identical. Run under
// -race this also proves the chosen outer loops carry no data races.
func TestScatterSerialVsParallel(t *testing.T) {
	for _, b := range Scatter() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, engine := range []string{"tree", "vm"} {
				ref, _ := runEngine(t, b, engine, 1)
				got, m := runEngine(t, b, engine, 8)
				requireIdentical(t, ref, got, b.Name+"/"+engine)
				if m.Stats.ParallelRegions == 0 {
					t.Errorf("%s [%s@8]: no parallel regions executed", b.Name, engine)
				}
			}
		})
	}
}
