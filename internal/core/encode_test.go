package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faults"
)

const encodeSrc = `
void fill(int npts, double *xdos, double t, double width, int *ind, int *count) {
    int m = 0;
    int j;
    for (j = 0; j < npts; j++) {
        if ((xdos[j] - t) < width)
            ind[m++] = j;
    }
    count[0] = m;
}

void apply(int numPlaced, int *ind, double *y) {
    int j;
    for (j = 0; j < numPlaced; j++) {
        y[ind[j]] = y[ind[j]] + 1.0;
    }
}
`

func TestMarshalBatchDeterministic(t *testing.T) {
	sources := []Source{
		{Name: "a.c", Src: encodeSrc},
		{Name: "broken.c", Src: "void f( {"},
	}
	results := AnalyzeBatch(sources, Options{Level: New})
	first, err := MarshalBatch(results, true)
	if err != nil {
		t.Fatal(err)
	}
	// Marshal the same results again, and re-analyze from scratch: both
	// must be byte-identical — the property the daemon's content-addressed
	// cache depends on.
	second, err := MarshalBatch(results, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("MarshalBatch is not deterministic across calls")
	}
	fresh, err := MarshalBatch(AnalyzeBatch(sources, Options{Level: New, Workers: 8}), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, fresh) {
		t.Fatal("MarshalBatch differs between a 1-worker and an 8-worker analysis")
	}
	if !bytes.HasSuffix(first, []byte("\n")) {
		t.Fatal("MarshalBatch output must end in a newline")
	}
}

func TestMarshalBatchContent(t *testing.T) {
	results := AnalyzeBatch([]Source{
		{Name: "ok.c", Src: encodeSrc},
		{Name: "bad.c", Src: "int (("},
	}, Options{Level: New})
	out, err := MarshalBatch(results, true)
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchJSON
	if err := json.Unmarshal(out, &batch); err != nil {
		t.Fatalf("output does not round-trip: %v", err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(batch.Results))
	}
	ok, bad := batch.Results[0], batch.Results[1]
	if ok.Name != "ok.c" || ok.Error != "" {
		t.Fatalf("first result wrong: %+v", ok)
	}
	if ok.Level != "new" {
		t.Fatalf("level = %q, want new", ok.Level)
	}
	if len(ok.Loops) == 0 {
		t.Fatal("no loop decisions encoded")
	}
	var parallel int
	for _, l := range ok.Loops {
		if l.Parallel {
			parallel++
			if l.Pragma == "" {
				t.Errorf("parallel loop %s/%s has no pragma", l.Func, l.Label)
			}
		} else if l.Reason == "" {
			t.Errorf("serial loop %s/%s has no reason", l.Func, l.Label)
		}
	}
	if parallel == 0 {
		t.Fatal("expected at least one parallel loop in the EVSL example")
	}
	if len(ok.Properties) == 0 {
		t.Fatal("no subscript-array properties encoded")
	}
	if ok.Properties[0].Display == "" {
		t.Fatal("property missing display form")
	}
	if ok.AnnotatedSource == "" || !strings.Contains(ok.AnnotatedSource, "#pragma omp parallel for") {
		t.Fatal("annotated source missing or unannotated")
	}
	if bad.Error == "" {
		t.Fatal("parse failure not reported in JSON")
	}
	if bad.Name != "bad.c" || len(bad.Loops) != 0 {
		t.Fatalf("failed result should carry only name+error: %+v", bad)
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, lvl := range []Level{Classical, Base, New} {
		got, err := ParseLevel(LevelName(lvl))
		if err != nil || got != lvl {
			t.Fatalf("ParseLevel(LevelName(%v)) = %v, %v", lvl, got, err)
		}
	}
	if lvl, err := ParseLevel(""); err != nil || lvl != New {
		t.Fatalf("empty level should default to new, got %v, %v", lvl, err)
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Fatal("ParseLevel accepted a bogus level")
	}
}

// reductionSrc has a loop with five sum reductions, whose map the wire
// format lists in key order.
const reductionSrc = `
void sums(int n, double *x, double *out) {
    int i;
    double a, b, c, d, e;
    a = 0.0; b = 0.0; c = 0.0; d = 0.0; e = 0.0;
    for (i = 0; i < n; i++) {
        e += x[i]; d += 2.0 * x[i]; c += x[i] * x[i]; b = b + 1.0; a += 3.0;
    }
    out[0] = a; out[1] = b; out[2] = c; out[3] = d; out[4] = e;
}
`

// encodeJSON encodes v as the wire format was first defined: by
// encoding/json, indented by two spaces, without HTML escaping.
func encodeJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkWireRoundTrip encodes results with MarshalBatch, decodes the bytes
// into BatchJSON and encodes that with encodeJSON: the two encodings must
// be equal. Decoding turns invalid UTF-8 into U+FFFD, which encodes as
// its own three bytes where the first encoding wrote \ufffd, so the
// source names, the field that carries the caller's bytes, are restored
// from results before the second encoding.
func checkWireRoundTrip(tb testing.TB, results []*BatchResult, annotate bool) {
	tb.Helper()
	out, err := MarshalBatch(results, annotate)
	if err != nil {
		tb.Fatal(err)
	}
	var batch BatchJSON
	if err := json.Unmarshal(out, &batch); err != nil {
		tb.Fatalf("MarshalBatch output does not decode: %v\n%s", err, out)
	}
	if len(batch.Results) != len(results) {
		tb.Fatalf("decoded %d results, want %d", len(batch.Results), len(results))
	}
	for i, br := range results {
		batch.Results[i].Name = br.Name
	}
	want := encodeJSON(tb, batch)
	if !bytes.Equal(out, want) {
		i := 0
		for i < len(out) && i < len(want) && out[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		tb.Fatalf("MarshalBatch differs from encoding/json at byte %d:\ngot  %q\nwant %q",
			i, out[lo:min(i+80, len(out))], want[lo:min(i+80, len(want))])
	}
}

// TestMarshalBatchRoundTrip holds MarshalBatch to encoding/json's bytes
// over the 45 corpus analyses with and without the annotated source, a
// source that fails to parse, a loop with several reductions, contained
// crashes at function and loop level, source names that need escaping,
// and an empty batch.
func TestMarshalBatchRoundTrip(t *testing.T) {
	for _, gl := range goldenLevels {
		results := AnalyzeBatch(corpusBatch(gl.level), Options{})
		for _, annotate := range []bool{true, false} {
			checkWireRoundTrip(t, results, annotate)
		}
	}

	defer faults.Reset()
	faults.Set("phase2.AnalyzeFunc", faults.Panic("synthetic crash").For("bad"))
	faults.Set("depend.Analyze", faults.Panic(`crash in "L1" \ <here>`).For("L1"))
	crashed := AnalyzeBatch([]Source{{Name: "mix.c", Src: twoFuncSrc}}, Options{Level: New})
	faults.Reset()
	if res := crashed[0].Res; res == nil || len(res.Plan.Diagnostics) != 2 {
		t.Fatalf("want two contained crashes, got %+v", crashed[0])
	}

	names := []string{
		`quote".c`, `back\slash.c`,
		"ctl\x00\x01\x08\x0c\n\r\t\x1b\x1f\x7f.c",
		"bad\xff\xfe\xc3utf8.c", "sep\u2028\u2029.c", "<html>&amp;.c", "ok é€😀.c",
	}
	var sources []Source
	for _, n := range names {
		sources = append(sources, Source{Name: n, Src: encodeSrc})
	}
	sources = append(sources,
		Source{Name: "broken.c", Src: "void f( {"},
		Source{Name: "sums.c", Src: reductionSrc})
	results := append(AnalyzeBatch(sources, Options{Level: New}), crashed...)
	if results[len(names)].Err == nil {
		t.Fatal("broken.c parsed")
	}
	if lp := results[len(names)+1].Res.Plan.Funcs["sums"].Loops["L1"]; len(lp.Decision.Reductions) != 5 {
		t.Fatalf("sums.c L1 reductions = %v, want five", lp.Decision.Reductions)
	}
	for _, annotate := range []bool{true, false} {
		checkWireRoundTrip(t, results, annotate)
	}

	out, err := MarshalBatch(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"results\": []\n}\n"; string(out) != want {
		t.Fatalf("empty batch encodes as %q, want %q", out, want)
	}
}

// BenchmarkMarshalBatch encodes the 15 corpus results at New with their
// annotated sources, as subsubcc -json -annotate does.
func BenchmarkMarshalBatch(b *testing.B) {
	results := AnalyzeBatch(corpusBatch(New), Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalBatch(results, true); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzWireString holds the writer's string escaping to encoding/json's
// with HTML escaping off, on arbitrary bytes.
func FuzzWireString(f *testing.F) {
	for b := 0; b < 0x20; b++ {
		f.Add(string([]byte{'a', byte(b), 'z'}))
	}
	for _, s := range []string{
		"", "\x7f", `"`, `\`, `a"b\c`, "<>&", "\u2028", "\u2029", "x\u2028y\u2029z",
		"\xff", "\xc3", "\xc3(", "\xed\xa0\x80", "\xf4\x90\x80\x80", "é€😀\ufffd",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := encodeJSON(t, s)
		if got := append(appendString(nil, s), '\n'); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %q, encoding/json writes %q", s, got, want)
		}
	})
}
