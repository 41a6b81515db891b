package bench

import (
	"io"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/simcore"
)

// quietCalibration is what Calibrate(true) measures on a quiet 2-vCPU
// linux/amd64 host (the median of five runs). The figure-shape tests run
// the simulator on it instead of calibrating on the live host: their
// outcome depends on the fork-join cost in work units, a ratio of two
// timings that host load moves by 2x either way, and the Figure 17
// counts hold only while it stays between about 100 and 1180 units, so
// a live calibration on a busy host failed them. TestCalibrationSane and
// TestTable1 still calibrate on the live host.
var quietCalibration = simcore.Calibration{
	SecondsPerUnit: 1.4e-9,
	ForkJoinUnits:  890,
	DispatchUnits:  17,
}

// quickHarness is a quick-mode harness on quietCalibration.
func quickHarness() *Harness {
	return &Harness{Out: io.Discard, Quick: true, Cal: quietCalibration}
}

func TestCalibrationSane(t *testing.T) {
	cal := Calibrate(true)
	if cal.SecondsPerUnit <= 0 || cal.SecondsPerUnit > 1e-6 {
		t.Errorf("seconds/unit = %g (should be around a nanosecond)", cal.SecondsPerUnit)
	}
	if cal.ForkJoinUnits <= 0 {
		t.Errorf("fork-join units = %g", cal.ForkJoinUnits)
	}
	if cal.DispatchUnits <= 0 {
		t.Errorf("dispatch units = %g", cal.DispatchUnits)
	}
	if cal.ForkJoinUnits < cal.DispatchUnits {
		t.Errorf("fork-join (%g) should cost more than one dispatch (%g)",
			cal.ForkJoinUnits, cal.DispatchUnits)
	}
}

// TestFig13Shape: with-vs-without improvements are large (>2x) at every
// core count for AMGmk and grow with cores — the paper's anomaly.
func TestFig13Shape(t *testing.T) {
	h := quickHarness()
	data := h.Fig13()
	for _, row := range data["AMGmk"] {
		for i, v := range row.Values {
			if v < 2 {
				t.Errorf("AMGmk %s @%d cores: improvement %.2f, want > 2", row.Dataset, Cores[i], v)
			}
		}
		if row.Values[2] <= row.Values[0] {
			t.Errorf("AMGmk %s: improvement should grow with cores: %v", row.Dataset, row.Values)
		}
	}
	// SDDMM improvements exceed 1 (without-case loses to with-case).
	for _, row := range data["SDDMM"] {
		for _, v := range row.Values {
			if v <= 1 {
				t.Errorf("SDDMM %s: improvement %.2f, want > 1", row.Dataset, v)
			}
		}
	}
}

// TestFig14Shape: speedups over serial are >1 and grow with cores.
func TestFig14Shape(t *testing.T) {
	h := quickHarness()
	data := h.Fig14()
	for name, rows := range data {
		for _, row := range rows {
			if len(row.Values) != len(Cores) {
				t.Fatalf("%s: series length", name)
			}
			for i, v := range row.Values {
				if v <= 1 {
					t.Errorf("%s %s @%d cores: speedup %.2f, want > 1", name, row.Dataset, Cores[i], v)
				}
				if v > float64(Cores[i]) {
					t.Errorf("%s %s @%d cores: speedup %.2f exceeds core count", name, row.Dataset, Cores[i], v)
				}
			}
			if row.Values[2] <= row.Values[0] {
				t.Errorf("%s %s: speedup should grow with cores: %v", name, row.Dataset, row.Values)
			}
		}
	}
}

// TestFig15Shape: efficiency is bounded by 100% and declines with core
// count.
func TestFig15Shape(t *testing.T) {
	h := quickHarness()
	data := h.Fig15()
	for name, rows := range data {
		for _, row := range rows {
			for i, v := range row.Values {
				if v <= 0 || v > 100.5 {
					t.Errorf("%s %s @%d cores: efficiency %.1f%%", name, row.Dataset, Cores[i], v)
				}
			}
			if row.Values[2] > row.Values[0]+1e-9 {
				t.Errorf("%s %s: efficiency should not grow with cores: %v", name, row.Dataset, row.Values)
			}
		}
	}
}

// TestFig16Shape: dynamic beats static on the skewed matrices at 16
// cores; static wins (or ties) on the balanced af_shell1.
func TestFig16Shape(t *testing.T) {
	h := quickHarness()
	rows := h.Fig16()
	byKey := map[string]Fig16Row{}
	for _, r := range rows {
		if r.Cores == 16 {
			byKey[r.Dataset] = r
		}
	}
	for _, skewed := range []string{"gsm_106857", "dielFilterV2clx", "inline_1"} {
		r, ok := byKey[skewed]
		if !ok {
			t.Fatalf("missing dataset %s", skewed)
		}
		if r.Dynamic <= r.Static {
			t.Errorf("%s @16: dynamic (%.2f) should beat static (%.2f)", skewed, r.Dynamic, r.Static)
		}
	}
	r := byKey["af_shell1"]
	if r.Static < r.Dynamic {
		t.Errorf("af_shell1 @16: static (%.2f) should not lose to dynamic (%.2f)", r.Static, r.Dynamic)
	}
}

// TestFig17Shape reproduces the headline claims: the new algorithm
// improves 10/12 benchmarks (>1.15x), classical 6, base 7; and the new
// arm is at least as good as base, which is at least as good as classical
// everywhere.
func TestFig17Shape(t *testing.T) {
	h := quickHarness()
	rows := h.Fig17()
	if len(rows) != 12 {
		t.Fatalf("want 12 rows")
	}
	counts := map[string]int{}
	const improved = 1.15
	for _, r := range rows {
		if r.Cetus > improved {
			counts["cetus"]++
		}
		if r.Base > improved {
			counts["base"]++
		}
		if r.New > improved {
			counts["new"]++
		}
		if r.New+1e-9 < r.Base || r.Base+1e-9 < r.Cetus {
			t.Errorf("%s: arms should be monotone: %.2f / %.2f / %.2f", r.Benchmark, r.Cetus, r.Base, r.New)
		}
	}
	if counts["cetus"] != 6 {
		t.Errorf("classical improves %d, want 6", counts["cetus"])
	}
	if counts["base"] != 7 {
		t.Errorf("base improves %d, want 7", counts["base"])
	}
	if counts["new"] != 10 {
		t.Errorf("new improves %d, want 10", counts["new"])
	}
	// IS and Incomplete-Cholesky stay at 1x for every arm.
	for _, r := range rows {
		if r.Benchmark == "IS" || r.Benchmark == "Incomplete-Cholesky" {
			if r.New > 1.01 || r.Cetus > 1.01 {
				t.Errorf("%s should not improve: %.2f/%.2f/%.2f", r.Benchmark, r.Cetus, r.Base, r.New)
			}
		}
	}
}

// TestTable1: rows exist for all benchmarks and the model time tracks the
// measured time within an order of magnitude (calibration sanity).
func TestTable1(t *testing.T) {
	var sb strings.Builder
	h := New(&sb, true)
	rows := h.Table1()
	if len(rows) < 12 {
		t.Fatalf("only %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SerialSeconds <= 0 || r.MeasuredSeconds <= 0 {
			t.Errorf("%s/%s: nonpositive times", r.Benchmark, r.Dataset)
		}
		ratio := r.SerialSeconds / r.MeasuredSeconds
		if ratio < 0.02 || ratio > 50 {
			t.Errorf("%s/%s: model %.5fs vs measured %.5fs (ratio %.2f)",
				r.Benchmark, r.Dataset, r.SerialSeconds, r.MeasuredSeconds, ratio)
		}
	}
	if !strings.Contains(sb.String(), "MATRIX5") {
		t.Error("output should list the AMG matrices")
	}
}

// TestAchievedReadFromPlans: the strategies fed to the simulator come
// from the parallelizer, matching the corpus expectations.
func TestAchievedReadFromPlans(t *testing.T) {
	for _, name := range []string{"AMGmk", "SDDMM", "UA(transf)"} {
		if got := withLevel(name); got.String() != "outer" {
			t.Errorf("%s with-level = %s", name, got)
		}
	}
	if got := withoutLevel("UA(transf)"); got.String() != "none" {
		t.Errorf("UA without-level = %s", got)
	}
}

// TestInnerParallelAnomaly reproduces the Figure 13 anomaly mechanism in
// the inner-loop model: parallelizing many small inner loops is slower
// than serial, while outer parallelization scales.
func TestInnerParallelAnomaly(t *testing.T) {
	m := simcore.Machine{Cores: 8, ForkJoin: 500}
	iters := make([]kernels.OuterIter, 1000)
	costs := make([]float64, len(iters))
	for i := range iters {
		// 30 units of inner work over 30 trips per outer iteration.
		iters[i] = kernels.OuterIter{Regions: []kernels.Region{{Units: 30, Trips: 30}}}
		costs[i] = iters[i].Total()
	}
	serial := simcore.SerialTime(costs)
	innerPar := innerParallelTime(m, iters, 0)
	outerPar := m.StaticTime(costs)
	if innerPar <= serial {
		t.Errorf("inner-parallel should be slower than serial: %g vs %g", innerPar, serial)
	}
	if outerPar >= serial {
		t.Errorf("outer-parallel should beat serial: %g vs %g", outerPar, serial)
	}
	if gap := innerPar / outerPar; gap < 10 {
		t.Errorf("expected an order-of-magnitude gap, got %.1fx", gap)
	}
}

// TestInnerParallelTimeCases pins the inner-loop model's per-region
// arithmetic: a region forks only as many cores as it has trips, a
// one-trip region runs serially without a fork-join, and memory-bound
// work scales only up to bandwidth saturation.
func TestInnerParallelTimeCases(t *testing.T) {
	m := simcore.Machine{Cores: 8, ForkJoin: 10, MemSat: 2}
	cases := []struct {
		name    string
		iter    kernels.OuterIter
		memFrac float64
		want    float64
	}{
		// 3 trips on 8 cores: 30 units over 3 cores, plus one fork-join.
		{"fewer trips than cores", kernels.OuterIter{Regions: []kernels.Region{{Units: 30, Trips: 3}}}, 0, 10 + 30.0/3},
		// Serial prefix plus the region's full work, no fork-join.
		{"one trip", kernels.OuterIter{Serial: 5, Regions: []kernels.Region{{Units: 30, Trips: 1}}}, 0, 5 + 30},
		// All work memory-bound: 80 units over MemSat=2, not 8 cores.
		{"memory bound", kernels.OuterIter{Regions: []kernels.Region{{Units: 80, Trips: 100}}}, 1, 10 + 80.0/2},
	}
	for _, c := range cases {
		if got := innerParallelTime(m, []kernels.OuterIter{c.iter}, c.memFrac); got != c.want {
			t.Errorf("%s: innerParallelTime = %g, want %g", c.name, got, c.want)
		}
	}
}
