package core

// Invariant tests for the incremental subsystem: replaying an edit
// script through a shared unit store must produce output byte-identical
// to a cold analysis of each version, serially and with 8 workers (run
// under -race by `make incr-differential`), and a single-function edit
// must reuse every clean function's cached units.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/incr"
	"repro/internal/interp"
)

// incrBase is the edit script's starting point: a subscript-array
// builder (contributes monotonicity properties), a kernel that consumes
// them, and two independent functions.
const incrBase = `
void build(int n, int *idx) {
    int i, x;
    x = 0;
    for (i = 0; i < n; i++) {
        idx[i] = x;
        x = x + 1;
    }
}
void scatter(int n, int *idx, double *a, double *v) {
    int i;
    for (i = 0; i < n; i++) {
        a[idx[i]] = a[idx[i]] + v[i];
    }
}
void scale(int n, double *a) {
    int i;
    for (i = 0; i < n; i++) {
        a[i] = a[i] * 2.0;
    }
}
void extra(int n, double *b) {
    int i;
    for (i = 0; i < n; i++) {
        b[i] = b[i] + 1.0;
    }
}
`

// incrEdits is the ISSUE's edit script: rename a statement variable,
// add a loop (shifts every later function's labels), delete a function,
// reorder functions. Each entry is one whole-source version.
func incrEdits(t *testing.T) []string {
	t.Helper()
	mustReplace := func(src, old, new string) string {
		if !strings.Contains(src, old) {
			t.Fatalf("fixture drift: %q not found", old)
		}
		return strings.Replace(src, old, new, 1)
	}
	renamed := strings.Replace(incrBase,
		"void scale(int n, double *a) {\n    int i;\n    for (i = 0; i < n; i++) {\n        a[i] = a[i] * 2.0;\n    }\n}",
		"void scale(int n, double *a) {\n    int k;\n    for (k = 0; k < n; k++) {\n        a[k] = a[k] * 2.0;\n    }\n}", 1)
	if renamed == incrBase {
		t.Fatal("fixture drift: scale body not found for rename edit")
	}
	addedLoop := mustReplace(incrBase, "void scatter",
		"void zero(int n, double *a) {\n    int i;\n    for (i = 0; i < n; i++) {\n        a[i] = 0.0;\n    }\n}\nvoid scatter")
	deleted := mustReplace(incrBase,
		"void extra(int n, double *b) {\n    int i;\n    for (i = 0; i < n; i++) {\n        b[i] = b[i] + 1.0;\n    }\n}\n", "")
	// Reorder: move build after scatter.
	buildDecl := "void build(int n, int *idx) {\n    int i, x;\n    x = 0;\n    for (i = 0; i < n; i++) {\n        idx[i] = x;\n        x = x + 1;\n    }\n}\n"
	reordered := mustReplace(mustReplace(incrBase, buildDecl, ""), "void scale", buildDecl+"void scale")
	return []string{incrBase, renamed, addedLoop, deleted, reordered}
}

func analyzeBytes(t *testing.T, src string, opt Options) []byte {
	t.Helper()
	res, err := Analyze(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MarshalBatch([]*BatchResult{{Name: "edit", Res: res}}, true)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIncrEditScriptByteIdentity replays the edit script against one
// persistent unit store and checks every version's incremental output
// against a cold run, serially and with 8 workers.
func TestIncrEditScriptByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 8} {
		store := incr.NewStore(0)
		for i, src := range incrEdits(t) {
			cold := analyzeBytes(t, src, Options{Level: New, Workers: workers})
			warm := analyzeBytes(t, src, Options{Level: New, Workers: workers, Incremental: store})
			if !bytes.Equal(cold, warm) {
				t.Errorf("workers=%d edit %d: incremental output differs from cold run\ncold:\n%s\nwarm:\n%s",
					workers, i, cold, warm)
			}
			// Replaying the identical source must also be byte-stable.
			again := analyzeBytes(t, src, Options{Level: New, Workers: workers, Incremental: store})
			if !bytes.Equal(cold, again) {
				t.Errorf("workers=%d edit %d: warm replay differs from cold run", workers, i)
			}
		}
	}
}

// TestIncrSingleEditReuse: after an identical re-analysis and then a
// one-function edit that shifts no labels and no properties, every
// clean function must replay from the store.
func TestIncrSingleEditReuse(t *testing.T) {
	store := incr.NewStore(0)
	opt := Options{Level: New, Incremental: store}

	if _, err := Analyze(incrBase, opt); err != nil {
		t.Fatal(err)
	}
	// Identical source: everything reuses.
	res, err := Analyze(incrBase, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.Incr; got.FuncHits != 4 || got.FuncMisses != 0 || got.PlanHits != 4 || got.PlanMisses != 0 {
		t.Fatalf("identical replay: Incr = %+v, want 4/0 analysis hits and 4/0 plan hits", got)
	}
	// Edit only scale's body (same loop count, no property impact):
	// exactly one function recomputes.
	edited := strings.Replace(incrBase, "a[i] * 2.0", "a[i] * 3.0", 1)
	if edited == incrBase {
		t.Fatal("fixture drift: scale body not found")
	}
	res, err = Analyze(edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.Incr; got.FuncHits != 3 || got.FuncMisses != 1 || got.PlanHits != 3 || got.PlanMisses != 1 {
		t.Fatalf("single edit: Incr = %+v, want 3 hits / 1 miss on both tiers", got)
	}
}

// TestIncrCalleeEditInvalidatesCallers: with inlining on, editing a
// callee must recompute its transitive callers even though their own
// text is unchanged.
func TestIncrCalleeEditInvalidatesCallers(t *testing.T) {
	const src = `
void leaf(int n, int *p) {
    int i;
    for (i = 0; i < n; i++) {
        p[i] = i;
    }
}
void mid(int n, int *p) {
    leaf(n, p);
}
void top(int n, int *p) {
    mid(n, p);
}
void other(int n, double *b) {
    int i;
    for (i = 0; i < n; i++) {
        b[i] = b[i] + 1.0;
    }
}
`
	store := incr.NewStore(0)
	opt := Options{Level: New, Incremental: store}
	if _, err := Analyze(src, opt); err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(src, "p[i] = i;", "p[i] = i + 1;", 1)
	res, err := Analyze(edited, opt)
	if err != nil {
		t.Fatal(err)
	}
	// leaf, mid and top are dirty (callee closure); only other reuses.
	if got := res.Plan.Incr; got.FuncHits != 1 || got.FuncMisses != 3 {
		t.Fatalf("callee edit: Incr = %+v, want 1 analysis hit / 3 misses", got)
	}
	// And the result still matches a cold run.
	cold := analyzeBytes(t, edited, Options{Level: New})
	warm := analyzeBytes(t, edited, opt)
	if !bytes.Equal(cold, warm) {
		t.Error("callee-edit incremental output differs from cold run")
	}
}

// TestIncrSharedBodyReadOnly: the unit store shares each function's
// normalized body across analyses, and that body is the program every
// engine runs, so nothing may write to it. Two analyses of a guarded
// corpus program through one store must return the same function
// objects, and running the second plan on the VM and the tree walker
// at 1 and 2 workers must leave the first result's annotated source and
// a plain print of the shared bodies byte-identical.
func TestIncrSharedBodyReadOnly(t *testing.T) {
	b := corpus.AMGmk
	opt := Options{Level: New, AssumePositive: b.AssumePositive, Incremental: incr.NewStore(0)}
	first, err := Analyze(b.Source, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Analyze(b.Source, opt)
	if err != nil {
		t.Fatal(err)
	}
	shared, again := first.Plan.Program(), second.Plan.Program()
	if got := second.Plan.Incr; got.FuncMisses != 0 || got.FuncHits != len(shared.Funcs) {
		t.Fatalf("second analysis: Incr = %+v, want every function replayed", got)
	}
	for i, fn := range shared.Funcs {
		if again.Funcs[i] != fn {
			t.Errorf("function %s: the second plan holds a copy, not the stored body", fn.Name)
		}
	}
	annotated, plain := first.AnnotatedSource(), cminus.Print(shared)
	for _, engine := range interp.Engines() {
		for _, workers := range []int{1, 2} {
			m, err := second.NewMachine(workers)
			if err != nil {
				t.Fatal(err)
			}
			m.Interp = engine
			if err := corpus.NewWork(b, corpus.ScaleQuick).Run(m); err != nil {
				t.Fatalf("%s@%d: %v", engine, workers, err)
			}
			if workers > 1 && m.Stats.ParallelRegions == 0 {
				t.Errorf("%s@%d: no parallel region ran", engine, workers)
			}
		}
	}
	if got := first.AnnotatedSource(); got != annotated {
		t.Errorf("running the plan changed the annotated source:\nbefore:\n%s\nafter:\n%s", annotated, got)
	}
	if got := cminus.Print(shared); got != plain {
		t.Errorf("running the plan changed the shared bodies:\nbefore:\n%s\nafter:\n%s", plain, got)
	}
}
