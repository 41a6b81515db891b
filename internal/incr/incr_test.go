package incr

// Unit tests for the pieces this package exports: the bounded LRU unit
// store, the per-function tally (and the fixed-width stats table
// subsubcc prints) and the content-addressed unit keys (callee-closure
// and label-shift soundness).

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cminus"
	"repro/internal/phase2"
)

func TestIncrStoreLRUEviction(t *testing.T) {
	s := NewStore(2)
	fa := &phase2.FuncAnalysis{}
	s.PutAnalysis("k1", "a", fa)
	s.PutAnalysis("k2", "b", fa)
	if _, ok := s.GetAnalysis("k1", "a"); !ok {
		t.Fatal("k1 should be cached")
	}
	// k1 was just refreshed, so the third insert must evict k2.
	s.PutAnalysis("k3", "c", fa)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.GetAnalysis("k2", "b"); ok {
		t.Error("k2 should have been evicted (LRU)")
	}
	if _, ok := s.GetAnalysis("k1", "a"); !ok {
		t.Error("k1 should have survived (recently used)")
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Errorf("Evictions = %d, want 1", ev)
	}
}

func TestIncrStoreRePutRefreshes(t *testing.T) {
	s := NewStore(2)
	fa := &phase2.FuncAnalysis{}
	s.PutAnalysis("k1", "a", fa)
	s.PutAnalysis("k2", "b", fa)
	s.PutAnalysis("k1", "a", fa) // re-put: refresh, not duplicate
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.PutAnalysis("k3", "c", fa)
	if _, ok := s.GetAnalysis("k1", "a"); !ok {
		t.Error("re-put should refresh recency; k2 was the LRU victim")
	}
}

func TestIncrStatsTableGolden(t *testing.T) {
	s := NewTally(NewStore(0))
	fa := &phase2.FuncAnalysis{}
	s.GetAnalysis("k1", "alpha") // miss
	s.PutAnalysis("k1", "alpha", fa)
	s.GetAnalysis("k1", "alpha") // hit
	s.GetPlans("p1", "alpha")    // miss
	s.PutPlans("p1", "alpha", nil)
	s.GetPlans("p1", "alpha")   // hit
	s.GetAnalysis("k2", "beta") // miss

	want := "incremental reuse (per-function units):\n" +
		"  function                   analysis h/m       plan h/m\n" +
		"  alpha                               1/1            1/1\n" +
		"  beta                                0/1            0/0\n" +
		"totals: analysis 1/2, plans 1/1, units 2, evictions 0\n"
	if got := s.StatsTable(); got != want {
		t.Errorf("StatsTable mismatch:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestIncrStoreBoundedByUnits: a store retains nothing per function
// name, so 500 distinct names through an 8-unit store leave no map in it
// holding more than 8 entries — a long-lived daemon does not grow with
// the names its clients send.
func TestIncrStoreBoundedByUnits(t *testing.T) {
	s := NewStore(8)
	fa := &phase2.FuncAnalysis{}
	for i := 0; i < 500; i++ {
		fn := fmt.Sprintf("f%d", i)
		if _, ok := s.GetAnalysis("a/"+fn, fn); !ok {
			s.PutAnalysis("a/"+fn, fn, fa)
		}
		if _, ok := s.GetPlans("p/"+fn, fn); !ok {
			s.PutPlans("p/"+fn, fn, nil)
		}
	}
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Map && f.Len() > 8 {
			t.Errorf("Store.%s holds %d entries after 500 distinct functions, want <= 8",
				v.Type().Field(i).Name, f.Len())
		}
	}
}

// keysSrc has the call chain top -> mid -> leaf plus an unrelated
// function, so callee-closure invalidation is observable transitively.
const keysSrc = `
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

func unitKeys(t *testing.T, src string) map[string]string {
	t.Helper()
	prog, err := cminus.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return UnitKeys(prog, OptionsDigest(phase2.LevelNew, nil, false))
}

// TestIncrCalleeHashSoundness: editing a callee's body must change the
// unit key of every transitive caller (inlining and interprocedural
// property propagation make callee bodies part of the caller's analysis
// input), while functions outside the callee's caller set keep theirs.
func TestIncrCalleeHashSoundness(t *testing.T) {
	before := unitKeys(t, keysSrc)
	// Same loop structure (no label shift); only leaf's body changes.
	edited := "p[i] = i + 1;"
	after := unitKeys(t, replaceOnce(t, keysSrc, "p[i] = i;", edited))

	for _, fn := range []string{"leaf", "mid", "top"} {
		if before[fn] == after[fn] {
			t.Errorf("%s: unit key unchanged after callee edit", fn)
		}
	}
	if before["other"] != after["other"] {
		t.Error("other: unit key changed by an edit outside its callee closure")
	}
}

// TestIncrLabelShiftSoundness: loop labels are positional across the
// translation unit, so adding a loop to an earlier function must change
// the key of every later function even though their text is untouched
// (their labels — embedded in decisions and pragmas — shifted).
func TestIncrLabelShiftSoundness(t *testing.T) {
	before := unitKeys(t, keysSrc)
	withLoop := replaceOnce(t, keysSrc, "void mid(int n, int *p) {\n    leaf(n, p);",
		"void mid(int n, int *p) {\n    int j;\n    for (j = 0; j < n; j++) {\n        p[j] = 0;\n    }\n    leaf(n, p);")
	after := unitKeys(t, withLoop)

	if before["leaf"] != after["leaf"] {
		t.Error("leaf precedes the edit and has no edited callee; key should hold")
	}
	if before["other"] == after["other"] {
		t.Error("other: key unchanged although its loop labels shifted")
	}
}

func TestIncrOptionsDigest(t *testing.T) {
	base := OptionsDigest(phase2.LevelNew, []string{"b", "a", "a"}, false)
	if base != OptionsDigest(phase2.LevelNew, []string{"a", "b"}, false) {
		t.Error("assume list order/duplicates should not change the digest")
	}
	if base == OptionsDigest(phase2.LevelBase, []string{"a", "b"}, false) {
		t.Error("level must change the digest")
	}
	if base == OptionsDigest(phase2.LevelNew, []string{"a", "b"}, true) {
		t.Error("inline must change the digest")
	}
}

func replaceOnce(t *testing.T, src, old, new string) string {
	t.Helper()
	i := indexOf(src, old)
	if i < 0 {
		t.Fatalf("fixture drift: %q not found", old)
	}
	return src[:i] + new + src[i+len(old):]
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
