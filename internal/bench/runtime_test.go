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
