package simcore

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func uniformCosts(n int, c float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = c
	}
	return out
}

func TestSerialTime(t *testing.T) {
	if got := SerialTime(uniformCosts(10, 2)); got != 20 {
		t.Errorf("got %g", got)
	}
	if got := SerialTime(nil); got != 0 {
		t.Errorf("empty: %g", got)
	}
}

func TestStaticPerfectBalance(t *testing.T) {
	m := Machine{Cores: 4, ForkJoin: 0}
	// 100 uniform iterations on 4 cores: 25 per core.
	if got := m.StaticTime(uniformCosts(100, 1)); got != 25 {
		t.Errorf("got %g", got)
	}
}

func TestStaticImbalance(t *testing.T) {
	m := Machine{Cores: 2, ForkJoin: 0}
	// All the work in the first half: static chunking puts it on core 0.
	costs := make([]float64, 100)
	for i := 0; i < 50; i++ {
		costs[i] = 2
	}
	if got := m.StaticTime(costs); got != 100 {
		t.Errorf("static imbalance: got %g, want 100", got)
	}
	// Dynamic chunk-1 balances it: ~50 per core.
	d := m.DynamicTime(costs, 1)
	if d > 60 {
		t.Errorf("dynamic should balance: got %g", d)
	}
}

func TestForkJoinCharged(t *testing.T) {
	m := Machine{Cores: 4, ForkJoin: 1000}
	got := m.StaticTime(uniformCosts(4, 1))
	if got != 1001 {
		t.Errorf("got %g", got)
	}
}

// TestQuickMakespanBounds: for any cost vector, the simulated parallel
// time is at least max(work/P, max cost) and at most work + overheads
// (list-scheduling bounds).
func TestQuickMakespanBounds(t *testing.T) {
	f := func(seed int64, coresRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cores := int(coresRaw%15) + 2
		n := 1 + rng.Intn(200)
		costs := make([]float64, n)
		var work, maxc float64
		for i := range costs {
			costs[i] = rng.Float64() * 100
			work += costs[i]
			if costs[i] > maxc {
				maxc = costs[i]
			}
		}
		m := Machine{Cores: cores, ForkJoin: 0, Dispatch: 0}
		lower := work / float64(cores)
		if maxc > lower {
			lower = maxc
		}
		st := m.StaticTime(costs)
		dt := m.DynamicTime(costs, 1)
		const eps = 1e-9
		if st < lower-eps || dt < lower-eps {
			return false
		}
		return st <= work+eps && dt <= work+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDynamicBeatsStaticOnSkew: under front-loaded skew, dynamic
// chunk-1 is never worse than static (both with zero overheads).
func TestQuickDynamicBeatsStaticOnSkew(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = rng.Float64()
			if i < n/4 {
				costs[i] *= 20 // front-loaded heavy work
			}
		}
		m := Machine{Cores: 4}
		return m.DynamicTime(costs, 1) <= m.StaticTime(costs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScheduleDispatch(t *testing.T) {
	m := Machine{Cores: 2, Dispatch: 5}
	costs := uniformCosts(10, 1)
	st := m.Schedule(Static, costs, 1)
	dt := m.Schedule(Dynamic, costs, 1)
	if dt <= st {
		t.Errorf("dispatch overhead should make dynamic slower on uniform work: %g vs %g", dt, st)
	}
}

func TestPolicyString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Error("policy names")
	}
}

func TestCalibrationMachine(t *testing.T) {
	c := Calibration{SecondsPerUnit: 1e-9, ForkJoinUnits: 100, DispatchUnits: 3}
	m := c.NewMachine(16)
	if m.Cores != 16 || m.ForkJoin != 100 || m.Dispatch != 3 {
		t.Errorf("%+v", m)
	}
}
