package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenDump pins svddump's output over the shipped benchmarks at
// the base and new levels: the Phase-1 SVD, the Phase-2 aggregates, the
// SSR variables, the properties and the failures of every loop.
func TestGoldenDump(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("benchmarks: %v (%d files)", err, len(files))
	}
	for _, level := range []string{"base", "new"} {
		t.Run(level, func(t *testing.T) {
			var got bytes.Buffer
			for _, f := range files {
				fmt.Fprintf(&got, "### %s\n", filepath.Base(f))
				var stderr bytes.Buffer
				if code := run([]string{"-level", level, f}, &got, &stderr); code != 0 {
					t.Fatalf("%s: exit %d: %s", f, code, stderr.String())
				}
			}
			checkGolden(t, level+".txt", got.Bytes())
		})
	}
}

// checkGolden compares got with the named file under testdata/golden,
// rewriting the file instead when -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run go test -update if the change is intended)", path)
	}
}

// TestAssumeFlag: -assume seeds each symbol >= 1, as subsubcc's does,
// so the dump of CHOLMOD under -assume bs shows the fact the analysis
// records (internal/core/testdata/golden/new.json): Lpx strictly
// monotone. Without it Lpx aggregates to ⊥ and no fact holds.
func TestAssumeFlag(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "cholmod_supernodal.c")
	var got, stderr bytes.Buffer
	if code := run([]string{"-assume", "bs", src}, &got, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	const fact = "property: Lpx[1:nsuper] = ⊥#SMA"
	if !strings.Contains(got.String(), fact) {
		t.Errorf("-assume bs: no %q in\n%s", fact, got.String())
	}
	checkGolden(t, "cholmod_assume_bs.txt", got.Bytes())
}

// TestLevelFlag: every level name runs that level, and an unknown name
// is a usage error, not a silent run at new.
func TestLevelFlag(t *testing.T) {
	src := filepath.Join("..", "..", "testdata", "amgmk.c")
	dump := func(level string) (string, int, string) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-level", level, src}, &stdout, &stderr)
		return stdout.String(), code, stderr.String()
	}
	outs := map[string]string{}
	for _, level := range []string{"classical", "base", "new"} {
		out, code, stderr := dump(level)
		if code != 0 {
			t.Fatalf("-level %s: exit %d: %s", level, code, stderr)
		}
		outs[level] = out
	}
	// AMGmk's fact needs the new algorithm; classical records no facts.
	if strings.Contains(outs["classical"], "property:") {
		t.Errorf("-level classical records a property:\n%s", outs["classical"])
	}
	if !strings.Contains(outs["new"], "property:") {
		t.Errorf("-level new records no property:\n%s", outs["new"])
	}
	if outs["base"] == outs["new"] {
		t.Error("-level base prints the same dump as -level new")
	}
	for _, level := range []string{"bogus", "NEW"} {
		out, code, stderr := dump(level)
		if code != 2 || out != "" || !strings.Contains(stderr, "unknown analysis level") {
			t.Errorf("-level %s: exit %d, stdout %q, stderr %q; want exit 2 naming the level", level, code, out, stderr)
		}
	}
}

// TestFailuresSorted: the loops whose analysis failed print in label
// order, whatever order the map of failures iterates in.
func TestFailuresSorted(t *testing.T) {
	var src strings.Builder
	src.WriteString("void f(int n, double *a) {\n    int i;\n")
	for k := 0; k < 6; k++ {
		fmt.Fprintf(&src, "    for (i = 0; i < n; i++) { if (a[i] > %d.0) break; a[i] = 0.0; }\n", k)
	}
	src.WriteString("}\n")
	path := filepath.Join(t.TempDir(), "f.c")
	if err := os.WriteFile(path, []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 5; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{path}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		var labels []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if lbl, ok := strings.CutPrefix(line, "loop "); ok && strings.Contains(lbl, "analysis failed") {
				labels = append(labels, strings.Fields(lbl)[0])
			}
		}
		got := strings.Join(labels, " ")
		if want := "L1: L2: L3: L4: L5: L6:"; got != want {
			t.Fatalf("failed loops print as %q, want %q", got, want)
		}
		if i == 0 {
			first = stdout.String()
		} else if stdout.String() != first {
			t.Fatal("two runs print different dumps")
		}
	}
}
