package interp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cminus"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

const amgProgram = `
void fill(int num_rows, int *A_i, int *A_rownnz, int *nnz_count) {
    int irownnz = 0;
    int i, adiag;
    for (i = 0; i < num_rows; i++) {
        adiag = A_i[i+1] - A_i[i];
        if (adiag > 0)
            A_rownnz[irownnz++] = i;
    }
    nnz_count[0] = irownnz;
}
void kernel(int num_rownnz, int irownnz_max, int *A_rownnz, int *A_i, int *A_j,
            double *A_data, double *x_data, double *y_data) {
    int i, jj, m;
    double tempx;
    for (i = 0; i < num_rownnz; i++) {
        m = A_rownnz[i];
        tempx = y_data[m];
        for (jj = A_i[m]; jj < A_i[m+1]; jj++)
            tempx += A_data[jj] * x_data[A_j[jj]];
        y_data[m] = tempx;
    }
}
`

// buildCSR builds a random CSR matrix with some empty rows.
func buildCSR(rng *rand.Rand, n int) (ai []int64, aj []int64, ad []float64) {
	ai = make([]int64, n+1)
	for i := 0; i < n; i++ {
		row := 0
		if rng.Intn(4) != 0 { // 25% empty rows
			row = 1 + rng.Intn(5)
		}
		for c := 0; c < row; c++ {
			aj = append(aj, int64(rng.Intn(n)))
			ad = append(ad, rng.Float64())
		}
		ai[i+1] = int64(len(aj))
	}
	return ai, aj, ad
}

// runAMG runs fill+kernel under a machine configuration and returns y.
func runAMG(t *testing.T, plan *parallelize.Plan, workers int, seed int64, n int) *Array {
	t.Helper()
	var prog *cminus.Program
	if plan != nil {
		prog = plan.Program()
	} else {
		prog = cminus.MustParse(amgProgram)
	}
	m, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	m.Plan = plan
	m.Workers = workers

	rng := rand.New(rand.NewSource(seed))
	ai, aj, ad := buildCSR(rng, n)
	aiArr := NewIntArray("A_i", int64(len(ai)))
	copy(aiArr.Ints, ai)
	ajArr := NewIntArray("A_j", int64(max64(1, int64(len(aj)))))
	copy(ajArr.Ints, aj)
	adArr := NewFloatArray("A_data", int64(max64(1, int64(len(ad)))))
	copy(adArr.Flts, ad)
	rownnz := NewIntArray("A_rownnz", int64(n))
	count := NewIntArray("nnz_count", 1)
	x := NewFloatArray("x_data", int64(n))
	y := NewFloatArray("y_data", int64(n))
	for i := 0; i < n; i++ {
		x.Flts[i] = rng.Float64()
		y.Flts[i] = rng.Float64()
	}

	if err := m.Call("fill", int64(n), aiArr, rownnz, count); err != nil {
		t.Fatal(err)
	}
	numRownnz := count.Ints[0]
	if err := m.Call("kernel", numRownnz, numRownnz, rownnz, aiArr, ajArr, adArr, x, y); err != nil {
		t.Fatal(err)
	}
	return y
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestAMGSerialVsParallel: the plan-parallelized AMG kernel must produce
// the same result as serial execution — the soundness statement of the
// whole analysis.
func TestAMGSerialVsParallel(t *testing.T) {
	prog := cminus.MustParse(amgProgram)
	plan := parallelize.Run(prog, phase2.LevelNew, nil)
	serial := runAMG(t, nil, 1, 42, 200)
	par := runAMG(t, plan, 4, 42, 200)
	if d := MaxAbsDiff(serial, par); d > 1e-9 {
		t.Errorf("parallel result differs from serial by %g", d)
	}
}

// TestQuickAMGSoundness: property-based soundness over random matrices.
func TestQuickAMGSoundness(t *testing.T) {
	prog := cminus.MustParse(amgProgram)
	plan := parallelize.Run(prog, phase2.LevelNew, nil)
	f := func(seed int64) bool {
		n := 20 + int(seed%57+57)%57
		serial := runAMG(t, nil, 1, seed, n)
		par := runAMG(t, plan, 3, seed, n)
		return MaxAbsDiff(serial, par) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestParallelRegionCounted: the machine actually ran a parallel region
// (not the serial fallback).
func TestParallelRegionCounted(t *testing.T) {
	prog := cminus.MustParse(amgProgram)
	plan := parallelize.Run(prog, phase2.LevelNew, nil)
	m, err := New(plan.Program())
	if err != nil {
		t.Fatal(err)
	}
	m.Plan = plan
	m.Workers = 2
	n := 50
	rng := rand.New(rand.NewSource(7))
	ai, aj, ad := buildCSR(rng, n)
	aiArr := NewIntArray("A_i", int64(len(ai)))
	copy(aiArr.Ints, ai)
	ajArr := NewIntArray("A_j", int64(max64(1, int64(len(aj)))))
	copy(ajArr.Ints, aj)
	adArr := NewFloatArray("A_data", int64(max64(1, int64(len(ad)))))
	copy(adArr.Flts, ad)
	rownnz := NewIntArray("A_rownnz", int64(n))
	count := NewIntArray("nnz_count", 1)
	x := NewFloatArray("x_data", int64(n))
	y := NewFloatArray("y_data", int64(n))
	if err := m.Call("fill", int64(n), aiArr, rownnz, count); err != nil {
		t.Fatal(err)
	}
	nr := count.Ints[0]
	if err := m.Call("kernel", nr, nr, rownnz, aiArr, ajArr, adArr, x, y); err != nil {
		t.Fatal(err)
	}
	if m.Stats.ParallelRegions == 0 {
		t.Error("expected a parallel region to run")
	}
}

// TestRuntimeCheckFallback: violating the runtime check (num_rownnz >
// irownnz_max) must fall back to serial execution, not crash or corrupt.
func TestRuntimeCheckFallback(t *testing.T) {
	prog := cminus.MustParse(amgProgram)
	plan := parallelize.Run(prog, phase2.LevelNew, nil)
	m, err := New(plan.Program())
	if err != nil {
		t.Fatal(err)
	}
	m.Plan = plan
	m.Workers = 4
	n := 30
	rng := rand.New(rand.NewSource(11))
	ai, aj, ad := buildCSR(rng, n)
	aiArr := NewIntArray("A_i", int64(len(ai)))
	copy(aiArr.Ints, ai)
	ajArr := NewIntArray("A_j", int64(max64(1, int64(len(aj)))))
	copy(ajArr.Ints, aj)
	adArr := NewFloatArray("A_data", int64(max64(1, int64(len(ad)))))
	copy(adArr.Flts, ad)
	rownnz := NewIntArray("A_rownnz", int64(n))
	count := NewIntArray("nnz_count", 1)
	x := NewFloatArray("x_data", int64(n))
	y := NewFloatArray("y_data", int64(n))
	if err := m.Call("fill", int64(n), aiArr, rownnz, count); err != nil {
		t.Fatal(err)
	}
	nr := count.Ints[0]
	// Pass irownnz_max = 0: the check -1+num_rownnz <= 0 fails for nr > 1.
	if nr <= 1 {
		t.Skip("degenerate matrix")
	}
	if err := m.Call("kernel", nr, int64(0), rownnz, aiArr, ajArr, adArr, x, y); err != nil {
		t.Fatal(err)
	}
	if m.Stats.RuntimeFallback == 0 {
		t.Error("expected runtime-check fallback")
	}
	if m.Stats.ParallelRegions != 0 {
		t.Error("no parallel region should have run")
	}
}

// TestReductionParallel: a scalar + reduction combines correctly across
// workers.
func TestReductionParallel(t *testing.T) {
	src := `
void sum(int n, double *a, double *out) {
    int i;
    double s;
    s = 0.0;
    for (i = 0; i < n; i++) {
        s += a[i];
    }
    out[0] = s;
}
`
	prog := cminus.MustParse(src)
	plan := parallelize.Run(prog, phase2.LevelClassical, nil)
	// The loop must be recognized as a reduction and parallelized.
	var chosen bool
	for _, lp := range plan.Funcs["sum"].Loops {
		if lp.Chosen && lp.Decision.Reductions["s"] == "+" {
			chosen = true
		}
	}
	if !chosen {
		t.Fatalf("sum loop should be a parallel reduction: %s", plan.Summary())
	}
	m, err := New(plan.Program())
	if err != nil {
		t.Fatal(err)
	}
	m.Plan = plan
	m.Workers = 4
	n := int64(1000)
	a := NewFloatArray("a", n)
	var want float64
	for i := range a.Flts {
		a.Flts[i] = float64(i%13) * 0.5
		want += a.Flts[i]
	}
	out := NewFloatArray("out", 1)
	if err := m.Call("sum", n, a, out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Flts[0]-want) > 1e-6 {
		t.Errorf("sum = %g, want %g", out.Flts[0], want)
	}
}

// TestBasicExecution exercises the interpreter core: arithmetic, control
// flow, math builtins.
func TestBasicExecution(t *testing.T) {
	src := `
void f(int n, double *out) {
    int i;
    double acc;
    acc = 0.0;
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) {
            acc += sqrt((double)(i));
        } else {
            acc -= 1.0;
        }
    }
    out[0] = acc;
    out[1] = pow(2.0, 10.0);
    out[2] = fabs(-3.5);
}
`
	prog := cminus.MustParse(src)
	m, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := NewFloatArray("out", 3)
	if err := m.Call("f", int64(10), out); err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			want += math.Sqrt(float64(i))
		} else {
			want -= 1
		}
	}
	if math.Abs(out.Flts[0]-want) > 1e-12 {
		t.Errorf("acc = %g, want %g", out.Flts[0], want)
	}
	if out.Flts[1] != 1024 || out.Flts[2] != 3.5 {
		t.Errorf("builtins: %v", out.Flts)
	}
}

// TestOutOfBoundsCaught: bad subscripts produce errors, not corruption.
func TestOutOfBoundsCaught(t *testing.T) {
	src := `void f(int *a) { a[5] = 1; }`
	prog := cminus.MustParse(src)
	m, _ := New(prog)
	a := NewIntArray("a", 3)
	if err := m.Call("f", a); err == nil {
		t.Error("expected out-of-range error")
	}
}

// TestWhileAndBreak.
func TestWhileAndBreak(t *testing.T) {
	src := `
void f(int *out) {
    int i;
    i = 0;
    while (i < 100) {
        i = i + 1;
        if (i == 7) {
            break;
        }
    }
    out[0] = i;
}
`
	prog := cminus.MustParse(src)
	m, _ := New(prog)
	out := NewIntArray("out", 1)
	if err := m.Call("f", out); err != nil {
		t.Fatal(err)
	}
	if out.Ints[0] != 7 {
		t.Errorf("got %d", out.Ints[0])
	}
}

// TestGlobals: global scalars and arrays work.
func TestGlobals(t *testing.T) {
	src := `
int counter = 3;
int table[4];
void f(void) {
    counter = counter + 1;
    table[counter - 4] = counter;
}
`
	prog := cminus.MustParse(src)
	m, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Call("f"); err != nil {
		t.Fatal(err)
	}
	if m.Globals["counter"].I != 4 {
		t.Errorf("counter = %v", m.Globals["counter"])
	}
	if m.Arrays["table"].Ints[0] != 4 {
		t.Errorf("table = %v", m.Arrays["table"].Ints)
	}
}
