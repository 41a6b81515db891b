package codegen

import (
	"fmt"
	"testing"

	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/parallelize"
	"repro/internal/phase2"
	"repro/internal/ranges"
	"repro/internal/symbolic"
)

// The corpus kernels carry no reductions, so reduction lowering (per-
// worker partials, identity init, deterministic worker-order combine)
// gets its own differential source: a dot product accumulating into a
// shared scalar, observable through an output array.
const reductionSrc = `
void dotp(int n, double *a, double *b, double *out) {
	double s;
	int i;
	s = 0.0;
	for (i = 0; i < n; i = i + 1) {
		s = s + a[i] * b[i];
	}
	out[0] = s;
}
`

// TestReductionDifferential checks the reduction lowering against the
// VM at matching worker counts: identical chunking makes the combine
// order identical, so even floating-point sums must agree bit for bit.
// The plan with its estimate cleared (openPlan) runs the region at 2
// and 8 workers; the plan itself, whose estimate of 8,024 units for
// n = 1003 is below parallelize.MinWork, declines it at 8 workers and
// sums as on one.
func TestReductionDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a native binary")
	}
	analyze := func() *parallelize.Plan {
		assume := ranges.New()
		assume.Set("n", symbolic.One, nil)
		return parallelize.Run(cminus.MustParse(reductionSrc), phase2.LevelNew,
			&parallelize.Options{Assume: assume})
	}
	plan, open := analyze(), openPlan(analyze())

	chosen := false
	if fp := plan.Funcs["dotp"]; fp != nil {
		for _, lp := range fp.Loops {
			chosen = chosen || lp.Chosen
		}
	}
	if !chosen {
		t.Fatal("dotp loop not chosen for parallel execution")
	}

	_, openBin := buildKernel(t, open, "subsubgen/dotp", true)
	_, planBin := buildKernel(t, plan, "subsubgen/dotp", false)

	const n = 1003 // odd size: last worker gets a short chunk
	newWork := func() *corpus.Work {
		a := interp.NewFloatArray("a", n)
		b := interp.NewFloatArray("b", n)
		out := interp.NewFloatArray("out", 1)
		for i := 0; i < n; i++ {
			a.Flts[i] = 1.0 / float64(i+1)
			b.Flts[i] = float64(i%7) - 3.0
		}
		return &corpus.Work{
			Calls:  []corpus.Call{{Fn: "dotp", Args: []interp.Arg{n, a, b, out}}},
			Arrays: map[string]*interp.Array{"a": a, "b": b, "out": out},
		}
	}

	oracle := func(plan *parallelize.Plan, workers int) (map[string]*interp.Array, interp.Stats) {
		w := newWork()
		m, err := interp.New(plan.Program())
		if err != nil {
			t.Fatal(err)
		}
		m.Plan = plan
		m.Workers = workers
		m.Interp = "vm"
		if err := w.Run(m); err != nil {
			t.Fatalf("vm@%d: %v", workers, err)
		}
		return w.Arrays, m.Stats
	}

	serial, _ := oracle(plan, 1)
	for _, run := range []struct {
		plan    *parallelize.Plan
		bin     string
		workers int
	}{{open, openBin, 1}, {open, openBin, 2}, {open, openBin, 8}, {plan, planBin, 8}} {
		label := fmt.Sprintf("workers=%d open=%v", run.workers, run.plan == open)
		ref, vmSt := oracle(run.plan, run.workers)
		res := runNative(t, run.bin, newWork(), run.workers, nil)
		if d := DiffArrays(ref, res.Arrays); d != "" {
			t.Errorf("%s: %s", label, d)
		}
		if st := nativeStats(res); st != vmSt {
			t.Errorf("%s: stats %+v, want %+v", label, st, vmSt)
		}
		if run.plan == plan {
			if res.Declined != 1 {
				t.Errorf("%s: %d declines, want 1", label, res.Declined)
			}
			if d := DiffArrays(serial, res.Arrays); d != "" {
				t.Errorf("%s: declined, yet not the serial sum: %s", label, d)
			}
		} else if run.workers > 1 && res.Parallel == 0 {
			t.Errorf("%s: reduction loop did not run parallel", label)
		}
	}
}
