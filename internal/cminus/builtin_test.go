package cminus

import (
	"reflect"
	"runtime"
	"testing"
)

// TestBuiltinRows checks every row of the builtin table: exactly one Go
// function, and the Go spelling the emitter writes names that function.
func TestBuiltinRows(t *testing.T) {
	if len(builtins) != 14 {
		t.Errorf("%d builtins, want 14", len(builtins))
	}
	for name, b := range builtins {
		var fn any = b.F1
		if (b.F1 == nil) == (b.F2 == nil) {
			t.Errorf("%s: want exactly one of F1, F2", name)
			continue
		}
		if b.F2 != nil {
			fn = b.F2
		}
		if got := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name(); got != b.Go {
			t.Errorf("%s: Go %q, function %s", name, b.Go, got)
		}
		if b.Int != (name == "abs") {
			t.Errorf("%s: Int %v", name, b.Int)
		}
	}
	if LookupBuiltin("tan") == nil || LookupBuiltin("accum") != nil {
		t.Error("LookupBuiltin: tan is a builtin, accum is not")
	}
}

// TestParseBuiltinDefinition checks that a function definition under a
// builtin's name is a positioned parse error, and that a prototype of
// one stays legal.
func TestParseBuiltinDefinition(t *testing.T) {
	src := "void fmax(double *acc, double v) { acc[0] = acc[0] + v; }\n" +
		"void kern(int n, double *acc, double *x) { int i; for (i = 0; i < n; i++) { fmax(acc, x[i]); } }"
	_, err := Parse(src)
	if want := `cminus: 1:6: cannot define builtin "fmax"`; err == nil || err.Error() != want {
		t.Errorf("Parse: %v, want %s", err, want)
	}
	prog, err := Parse("double sqrt(double x);\nvoid f(double *a) { a[0] = sqrt(a[0]); }")
	if err != nil {
		t.Fatalf("prototype of a builtin: %v", err)
	}
	if fn := prog.Func("sqrt"); fn == nil || fn.Body != nil {
		t.Error("sqrt should be a bodiless prototype")
	}
}
