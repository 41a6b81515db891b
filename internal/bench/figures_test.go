package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFiguresGolden pins the Figure 13–17 tables a quick harness prints
// on quietCalibration byte for byte. The simulator is deterministic on a
// fixed calibration, so any change to the work models, the datasets, the
// plans the arms read or the schedule simulation shows here. Table 1
// stays out: it prints live timings. Refresh with -update.
func TestFiguresGolden(t *testing.T) {
	var buf bytes.Buffer
	h := quickHarness()
	h.Out = &buf
	h.Fig13()
	h.Fig14()
	h.Fig15()
	h.Fig16()
	h.Fig17()

	golden := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("figure tables differ from %s (re-run with -update after intended changes)\n%s", golden, buf.Bytes())
	}
}
