package interp

import (
	"testing"

	"repro/internal/cminus"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// TestVMRegionAllocs pins what a plan-chosen loop allocates per entry on
// the VM at 2 workers. Declined for its small work estimate, it runs its
// serial loop and allocates nothing. Opened (the plan with its estimate
// cleared), it allocates for the region's dispatch and worker frames;
// the test logs that count, which README and DESIGN §5f state.
func TestVMRegionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const src = `void scale(double *a, int n) { int i; for (i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; } }`
	for _, open := range []bool{false, true} {
		plan := parallelize.Run(cminus.MustParse(src), phase2.LevelNew, nil)
		if open {
			openPlan(plan)
		}
		m, err := New(plan.Program())
		if err != nil {
			t.Fatal(err)
		}
		m.Plan, m.Workers, m.Interp = plan, 2, "vm"
		args := []Arg{NewFloatArray("a", 64), 64}
		for i := 0; i < 3; i++ {
			if err := m.Call("scale", args...); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := m.Call("scale", args...); err != nil {
				t.Fatal(err)
			}
		})
		if !open {
			if m.Stats.Declined == 0 || m.Stats.ParallelRegions != 0 {
				t.Fatalf("declined run counts %+v, want declines only", m.Stats)
			}
			if avg != 0 {
				t.Errorf("a declined region allocates %.1f times per entry, want 0", avg)
			}
			continue
		}
		if m.Stats.ParallelRegions == 0 {
			t.Fatalf("open run counts %+v, want regions", m.Stats)
		}
		t.Logf("an opened region allocates %.1f times per entry", avg)
	}
}

// TestDeclineLargeEstimate: the work estimate is a double, so where the
// product of trip counts passes 2^63 the region opens on both engines
// rather than wrapping into a decline. The inner loops sit under an if
// that no element meets, so the region runs in microseconds. At small
// sizes the same region declines.
func TestDeclineLargeEstimate(t *testing.T) {
	const src = `
void f(int n, int m, double *a, double *b) {
    int i, j, k;
    for (i = 0; i < n; i++) {
        if (a[i] > 1.0) {
            for (j = 0; j < m; j++) { for (k = 0; k < m; k++) { b[i] = b[i] + 1.0; } }
        }
    }
}`
	plan := parallelize.Run(cminus.MustParse(src), phase2.LevelNew, nil)
	if lp := plan.Funcs["f"].Loops["L1"]; !lp.Chosen || lp.Work == nil {
		t.Fatalf("L1: chosen %v, estimate %v; want a chosen loop with a known estimate", lp.Chosen, lp.Work)
	}
	for _, tc := range []struct {
		m    int64
		want Stats
	}{
		{3, Stats{Declined: 1}},
		{3_000_000_000, Stats{ParallelRegions: 1}},
	} {
		for _, engine := range engines {
			m, err := New(plan.Program())
			if err != nil {
				t.Fatal(err)
			}
			m.Plan, m.Workers, m.Interp = plan, 2, engine
			if err := m.Call("f", 4, tc.m, NewFloatArray("a", 4), NewFloatArray("b", 4)); err != nil {
				t.Fatalf("%s, m = %d: %v", engine, tc.m, err)
			}
			if m.Stats != tc.want {
				t.Errorf("%s, m = %d: counts %+v, want %+v", engine, tc.m, m.Stats, tc.want)
			}
		}
	}
}
