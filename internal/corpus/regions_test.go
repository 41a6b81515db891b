package corpus

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateRegions = flag.Bool("update", false, "rewrite testdata/regions.txt")

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
	path := filepath.Join("testdata", "regions.txt")
	if *updateRegions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("region counts differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
