package corpus

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/budget"
)

var update = flag.Bool("update", false, "rewrite testdata/regions.txt and testdata/exec_steps.txt")

// checkGolden compares got with testdata/name, which -update rewrites.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestRegionsGolden pins which plan-chosen loops open their regions:
// for every corpus kernel at quick scale on 2 workers, the regions
// opened, declined for a work estimate below parallelize.MinWork, and
// fallen back at the entry gate. The VM and the tree walker must both
// reproduce testdata/regions.txt, which -update rewrites.
func TestRegionsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# kernel: regions opened, declined and fallen back per quick-scale run on 2 workers\n")
	for _, bench := range Extended() {
		_, vm := runEngine(t, bench, "vm", 2, false)
		_, tree := runEngine(t, bench, "tree", 2, false)
		if vm.Stats != tree.Stats {
			t.Errorf("%s: vm counts %+v, tree %+v", bench.Name, vm.Stats, tree.Stats)
		}
		st := vm.Stats
		fmt.Fprintf(&b, "%s: parallel %d, declined %d, fallback %d\n", bench.Name, st.ParallelRegions, st.Declined, st.RuntimeFallback)
	}
	checkGolden(t, "regions.txt", b.String())
}

// TestExecStepsGolden pins the work the VM bills for each corpus
// kernel: the budget steps of one quick-scale run on 1 worker, which
// testdata/exec_steps.txt records (-update rewrites it). The VM bills a
// step per instruction, in quanta of 256 and at each user call, so a
// change to the compiler shows as a deterministic diff weighted by trip
// counts. A budget.B counts steps only under a limit, so the run gets
// one far above it.
func TestExecStepsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# kernel: VM budget steps per quick-scale run on 1 worker\n")
	for _, bench := range Extended() {
		w := NewWork(bench, ScaleQuick)
		m, err := w.NewMachine(1)
		if err != nil {
			t.Fatalf("%s: machine: %v", bench.Name, err)
		}
		m.Interp = "vm"
		m.Budget = budget.New(context.Background(), 1<<62)
		if err := w.Run(m); err != nil {
			t.Fatalf("%s: %v", bench.Name, err)
		}
		fmt.Fprintf(&b, "%s: %d\n", bench.Name, m.Budget.Steps())
	}
	checkGolden(t, "exec_steps.txt", b.String())
}
