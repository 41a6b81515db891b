package codegen

import (
	"fmt"
	"math"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// sanitizeModule turns a benchmark name into a go.mod-safe module leaf.
func sanitizeModule(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

// DiffArrays compares a native end state against a reference workload
// bit for bit and returns a description of the first mismatch, or "".
func DiffArrays(ref map[string]*interp.Array, got map[string]*interp.Array) string {
	names := make([]string, 0, len(ref))
	for name := range ref {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, have := ref[name], got[name]
		if have == nil {
			return fmt.Sprintf("array %s missing from native output", name)
		}
		if want.Float != have.Float {
			return fmt.Sprintf("array %s: element type mismatch", name)
		}
		if want.Float {
			if len(want.Flts) != len(have.Flts) {
				return fmt.Sprintf("array %s: length %d vs %d", name, len(want.Flts), len(have.Flts))
			}
			for i := range want.Flts {
				if math.Float64bits(want.Flts[i]) != math.Float64bits(have.Flts[i]) {
					return fmt.Sprintf("array %s[%d]: %v (%#x) vs %v (%#x)", name, i,
						want.Flts[i], math.Float64bits(want.Flts[i]),
						have.Flts[i], math.Float64bits(have.Flts[i]))
				}
			}
			continue
		}
		if len(want.Ints) != len(have.Ints) {
			return fmt.Sprintf("array %s: length %d vs %d", name, len(want.Ints), len(have.Ints))
		}
		for i := range want.Ints {
			if want.Ints[i] != have.Ints[i] {
				return fmt.Sprintf("array %s[%d]: %d vs %d", name, i, want.Ints[i], have.Ints[i])
			}
		}
	}
	if len(got) != len(ref) {
		return fmt.Sprintf("native output has %d arrays, reference has %d", len(got), len(ref))
	}
	return ""
}

// openPlan clears the work estimate of every loop of the plan, so each
// chosen loop opens its region whenever its entry gate passes, as it
// does at sizes where the estimate reaches parallelize.MinWork. The arms
// that exercise the parallel machinery run on such plans: at quick scale
// most regions would decline.
func openPlan(plan *parallelize.Plan) *parallelize.Plan {
	for _, fp := range plan.Funcs {
		for _, lp := range fp.Loops {
			lp.Work = nil
		}
	}
	return plan
}

// vmOracle runs a workload on the bytecode VM and returns the end state
// and region counters; open runs it on the plan with its estimates
// cleared (openPlan).
func vmOracle(t *testing.T, w *corpus.Work, workers int, open bool) (map[string]*interp.Array, interp.Stats) {
	t.Helper()
	m, err := w.NewMachine(workers)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if open {
		openPlan(m.Plan)
	}
	m.Interp = "vm"
	if err := w.Run(m); err != nil {
		t.Fatalf("vm@%d: %v", workers, err)
	}
	return w.Arrays, m.Stats
}

// nativeStats is a native run's region counters in the VM's form.
func nativeStats(res *RunResult) interp.Stats {
	return interp.Stats{ParallelRegions: int(res.Parallel), RuntimeFallback: int(res.Fallback), Declined: int(res.Declined)}
}

// buildKernel emits and compiles a plan as the given module, returning
// the package dir and binary path.
func buildKernel(t *testing.T, plan *parallelize.Plan, module string, race bool) (string, string) {
	t.Helper()
	pkg, err := EmitPackage(plan, module)
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	dir := t.TempDir()
	if err := pkg.WritePackage(dir); err != nil {
		t.Fatalf("write: %v", err)
	}
	bin, err := BuildBinary(dir, race)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return dir, bin
}

func runNative(t *testing.T, bin string, w *corpus.Work, workers int, failGuards []string) *RunResult {
	t.Helper()
	in, err := InputFromWork(w, workers, failGuards)
	if err != nil {
		t.Fatalf("input: %v", err)
	}
	res, err := RunBinary(bin, in)
	if err != nil {
		t.Fatalf("run@%d: %v", workers, err)
	}
	return res
}

// TestCodegenDifferential is the native differential gate: every corpus
// kernel (scatter extension included) emits Go that vets, builds with
// -race, and runs serial, 8-worker and guard-forced bit-identical to
// the bytecode VM, with matching region counters. A kernel whose chosen
// loop carries a guard also runs each corpus.Adversarial workload at 8
// workers: the serial end state, and the VM's region counters. These
// arms run the plan with its estimates cleared (openPlan), so every
// region opens as its gate decides; the plan itself, whose regions below
// parallelize.MinWork decline, builds without -race and runs at 8
// workers against the VM on the same plan.
func TestCodegenDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs native binaries")
	}
	for _, b := range corpus.Extended() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			module := "subsubgen/" + sanitizeModule(b.Name)
			dir, bin := buildKernel(t, openPlan(corpus.PlanFor(b, phase2.LevelNew)), module, true)

			vet := exec.Command("go", "vet", ".")
			vet.Dir = dir
			if out, err := vet.CombinedOutput(); err != nil {
				t.Fatalf("go vet: %v\n%s", err, out)
			}

			work := func() *corpus.Work { return corpus.NewWork(b, corpus.ScaleQuick) }
			serialRef, _ := vmOracle(t, work(), 1, true)
			parRef, vmSt := vmOracle(t, work(), 8, true)

			// Serial native: no parallel machinery engages at workers=1.
			res := runNative(t, bin, work(), 1, nil)
			if d := DiffArrays(serialRef, res.Arrays); d != "" {
				t.Errorf("serial: %s", d)
			}
			if st := nativeStats(res); st != (interp.Stats{}) {
				t.Errorf("serial: stats %+v, want none", st)
			}

			// 8-worker native: same end state and region counters as the VM.
			res = runNative(t, bin, work(), 8, nil)
			if d := DiffArrays(parRef, res.Arrays); d != "" {
				t.Errorf("parallel: %s", d)
			}
			if st := nativeStats(res); st != vmSt {
				t.Errorf("parallel: stats %+v, want %+v (vm)", st, vmSt)
			}

			// Forced guard failure: every region entry must take the serial
			// fallback and still produce the serial end state.
			res = runNative(t, bin, work(), 8, []string{"*"})
			if d := DiffArrays(serialRef, res.Arrays); d != "" {
				t.Errorf("forced fallback: %s", d)
			}
			if res.Parallel != 0 {
				t.Errorf("forced fallback: %d regions still ran parallel", res.Parallel)
			}
			if want := int64(vmSt.ParallelRegions + vmSt.RuntimeFallback); res.Fallback != want {
				t.Errorf("forced fallback: %d fallbacks, want %d", res.Fallback, want)
			}

			for _, s := range corpus.Scrambles {
				adversarial := func() *corpus.Work {
					w, err := corpus.Adversarial(b, s)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				if adversarial() == nil {
					break
				}
				serialRef, _ := vmOracle(t, adversarial(), 1, true)
				_, vmSt := vmOracle(t, adversarial(), 8, true)
				res := runNative(t, bin, adversarial(), 8, nil)
				if d := DiffArrays(serialRef, res.Arrays); d != "" {
					t.Errorf("%s: %s", s, d)
				}
				if st := nativeStats(res); st != vmSt {
					t.Errorf("%s: stats %+v, want %+v (vm)", s, st, vmSt)
				}
			}

			// The plan as analyzed: the same regions decline as on the VM.
			_, planBin := buildKernel(t, corpus.PlanFor(b, phase2.LevelNew), module, false)
			planRef, planSt := vmOracle(t, work(), 8, false)
			res = runNative(t, planBin, work(), 8, nil)
			if d := DiffArrays(planRef, res.Arrays); d != "" {
				t.Errorf("plan: %s", d)
			}
			if st := nativeStats(res); st != planSt {
				t.Errorf("plan: stats %+v, want %+v (vm)", st, planSt)
			}
		})
	}
}
