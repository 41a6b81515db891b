package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRuntimeExperimentQuick runs the real-execution experiment at quick
// scale and checks the report shape and the JSON round trip.
func TestRuntimeExperimentQuick(t *testing.T) {
	var out bytes.Buffer
	h := &Harness{Out: &out, Quick: true}
	path := filepath.Join(t.TempDir(), "BENCH_runtime.json")
	rep, err := h.Runtime(path)
	if err != nil {
		t.Fatal(err)
	}
	want := len(runtimeKernels) * len(runtimeEngines) * len(runtimeWorkers)
	if len(rep.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), want)
	}
	for _, row := range rep.Rows {
		if row.Seconds <= 0 {
			t.Errorf("%s/%s@%d: non-positive seconds %v", row.Kernel, row.Engine, row.Workers, row.Seconds)
		}
		if row.SpeedupVsTree <= 0 {
			t.Errorf("%s/%s@%d: non-positive speedup %v", row.Kernel, row.Engine, row.Workers, row.SpeedupVsTree)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RuntimeReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("BENCH_runtime.json does not round-trip: %v", err)
	}
	if len(back.Rows) != len(rep.Rows) {
		t.Fatalf("JSON rows %d != report rows %d", len(back.Rows), len(rep.Rows))
	}
}

// TestIncrExperimentQuick runs the incremental re-analysis experiment at
// quick scale (which checks warm and HTTP bytes against cold) and checks
// the report shape and the JSON round trip.
func TestIncrExperimentQuick(t *testing.T) {
	var out bytes.Buffer
	h := &Harness{Out: &out, Quick: true}
	path := filepath.Join(t.TempDir(), "BENCH_incr.json")
	rep, err := h.Incr(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.ColdSeconds <= 0 || row.WarmSeconds <= 0 || row.HTTPColdSeconds <= 0 || row.HTTPWarmSeconds <= 0 {
			t.Errorf("funcs %d: non-positive timing in %+v", row.Funcs, row)
		}
		// One edited kernel: every other function replays from the store.
		if row.FuncHits != row.Funcs-1 || row.FuncMisses != 1 || row.PlanHits != row.Funcs-1 || row.PlanMisses != 1 {
			t.Errorf("funcs %d: reuse %d/%d units, %d/%d plans, want %d/1 each",
				row.Funcs, row.FuncHits, row.FuncMisses, row.PlanHits, row.PlanMisses, row.Funcs-1)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back IncrReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("BENCH_incr.json does not round-trip: %v", err)
	}
	if len(back.Rows) != len(rep.Rows) || back.Rows[0] != rep.Rows[0] {
		t.Fatalf("JSON rows %+v != report rows %+v", back.Rows, rep.Rows)
	}
}
