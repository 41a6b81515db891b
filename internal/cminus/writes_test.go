package cminus

import (
	"slices"
	"testing"
)

// TestWrites: the walk finds a write at every position a statement can
// hold one, each name once, and nothing a statement only reads.
func TestWrites(t *testing.T) {
	for _, c := range []struct {
		name, body      string
		scalars, arrays []string
	}{
		{"loop body", "for (i = 0; i < n; i++) { x = 1; y++; a[i] = x; for (j = 0; j < n; j++) { b[j] = y; } }",
			[]string{"i", "j", "x", "y"}, []string{"a", "b"}},
		{"while condition", "while (m-- > 0) { k = k + 1; }", []string{"k", "m"}, nil},
		{"for condition", "for (j = 0; m++ < 3; j++) { }", []string{"j", "m"}, nil},
		{"for post", "for (j = 0; j < 1; m--) { j = j + 1; }", []string{"j", "m"}, nil},
		{"element in a subscript", "a[b[0]++] = 1;", nil, []string{"a", "b"}},
		{"op=", "s += 2; c[1][0] *= 3;", []string{"s"}, []string{"c"}},
		{"declaration", "int k, v[3]; double *p;", []string{"k"}, nil},
		{"if arms", "if (x > 0) { u = 1; } else if (x < 0) { b[0] = 2; } else { z--; }", []string{"u", "z"}, []string{"b"}},
		{"argument", "a[0] = fabs(q++) + g(--b[1]);", []string{"q"}, []string{"a", "b"}},
		{"reads only", "g(n, a); if (a[n] > x) { }", nil, nil},
	} {
		prog, err := Parse("void f(int n, int *a, int *b) { int i, j, k, m, q, s, u, x, y, z; int c[2][2]; " + c.body + " }")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body := &Block{Stmts: prog.Funcs[0].Body.Stmts[2:]}
		scalars, arrays := Writes(body)
		if !slices.Equal(scalars, c.scalars) || !slices.Equal(arrays, c.arrays) {
			t.Errorf("%s: scalars %v arrays %v, want %v %v", c.name, scalars, arrays, c.scalars, c.arrays)
		}
	}
}
