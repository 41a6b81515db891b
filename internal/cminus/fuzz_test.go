package cminus

import "testing"

// parseSeeds are the FuzzParse seed inputs.
var parseSeeds = []string{
	"void f(void) { }",
	"void f(int n, int *a) { int i; for (i = 0; i < n; i++) { a[i] = i; } }",
	"int x = 1;",
	"void f(int n) { if (n > 0) { n = n - 1; } else { n = 0; } }",
	"void f(double *a) { a[0] += 1.5e-3; }",
	"void g(int a[][4]) { a[1][2] = 3 % 2; }",
	"void h(void) { int i = 0; while (i < 3) { i++; if (i == 2) break; } }",
	"#pragma omp parallel for\nvoid q(void) { }",
	"void f(void) { int x; x = 1 ? 2 : 3; }",
	"void f(void) { /* unterminated",
	"void f(",
	"{{{{",
}

// FuzzParse: the parser must never panic and, when it accepts an input,
// printing and reparsing must converge (print∘parse is idempotent).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil || prog == nil {
			return
		}
		out1 := Print(prog)
		prog2, err := Parse(out1)
		if err != nil {
			t.Fatalf("printed program does not reparse: %v\ninput: %q\nprinted:\n%s", err, src, out1)
		}
		out2 := Print(prog2)
		if out1 != out2 {
			t.Fatalf("print not idempotent:\n%q\nvs\n%q", out1, out2)
		}
	})
}
