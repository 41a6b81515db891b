package phase2_test

import (
	"fmt"
	"testing"

	"repro/internal/cminus"
	"repro/internal/interp"
	"repro/internal/phase2"
	"repro/internal/symbolic"
)

// This file is the adversarial battery for the injectivity/permutation
// lattice extension. Every fill below has the uniform signature
// fill(int n, int *p, int *q) so the positive claims can additionally be
// verified by brute-force execution: a wrong injectivity claim would let
// the dependence test parallelize a genuinely colliding scatter.

// injectCase is one entry of the battery.
type injectCase struct {
	name string
	fill string
	// wantInj: the analysis must (not) find an injectivity-implying fact
	// for p at LevelNew.
	wantInj bool
	// wantPerm additionally requires the permutation upgrade.
	wantPerm bool
	// why documents which recognizer obligation the near-misses break
	// (or why the positives are provable).
	why string
}

var injectCases = []injectCase{
	// ---- positive corpus: must be classified, and is brute-force checked ----
	{
		name: "identity-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[i] = i; }
}`,
		wantInj: true, wantPerm: true,
		why: "values [0:n-1] tile the section [0:n-1] exactly",
	},
	{
		name: "reversal-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[i] = n - 1 - i; }
}`,
		wantInj: true, wantPerm: true,
		why: "slope -1 emits n-1..0: same tiling, reversed order",
	},
	{
		name: "shifted-strict-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[i] = i + 5; }
}`,
		wantInj: true, wantPerm: false,
		why: "strict SRA implies injectivity; values [5:n+4] do not tile [0:n-1]",
	},
	{
		name: "strided-values-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[i] = 2 * i; }
}`,
		wantInj: true, wantPerm: false,
		why: "strictly monotonic, but even values leave gaps: no tiling",
	},
	{
		name: "interleaved-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) {
        p[2*i] = i;
        p[2*i + 1] = n + i;
    }
}`,
		wantInj: true, wantPerm: true,
		why: "two disjoint slope-1 sequences [0:n-1] and [n:2n-1] tile [0:2n-1]",
	},
	{
		name: "swap-shuffle",
		fill: `void fill(int n, int *p, int *q) {
    int i, t;
    for (i = 0; i < n; i++) { p[i] = i; }
    for (i = 0; i < n; i++) {
        t = p[i];
        p[i] = p[n-1-i];
        p[n-1-i] = t;
    }
}`,
		wantInj: true, wantPerm: true,
		why: "in-section transpositions permute values: PERM survives, SMA does not",
	},

	// ---- adversarial near-misses: must NOT be classified ----
	{
		name: "duplicate-values-div",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[i] = i / 2; }
}`,
		wantInj: false,
		why:     "i/2 is not linear in i (probe differences 0,1 disagree); repeats every value",
	},
	{
		name: "conditional-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) {
        if (q[i] > 0) { p[i] = i; }
    }
}`,
		wantInj: false,
		why:     "tagged value: skipped iterations leave stale cells that may duplicate",
	},
	{
		name: "constant-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[i] = 7; }
}`,
		wantInj: false,
		why:     "zero slope: every cell holds the same value (only non-strict MA)",
	},
	{
		name: "write-after-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[i] = i; }
    p[0] = 3;
}`,
		wantInj: false,
		why:     "straight-line overwrite invalidates the fact (p[0]=3 duplicates p[3])",
	},
	{
		name: "reset-loop-after-fill",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[i] = i; }
    for (i = 0; i < n; i++) { p[i] = 0; }
}`,
		wantInj: false,
		why:     "a later loop re-fills the section with a constant: facts replaced, not kept",
	},
	{
		name: "overlapping-interleave",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) {
        p[2*i] = i;
        p[2*i + 1] = i;
    }
}`,
		wantInj: false,
		why:     "both sequences store [0:n-1]: value intervals not disjoint",
	},
	{
		name: "stride-gap",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { p[2*i] = i; }
}`,
		wantInj: false,
		why:     "a single stride-2 write leaves odd cells stale: no contiguous coverage",
	},
	{
		name: "out-of-section-swap",
		fill: `void fill(int n, int *p, int *q) {
    int i, t;
    for (i = 0; i < n; i++) { p[i] = i; }
    for (i = 0; i < n; i++) {
        t = p[i];
        p[i] = p[i + n];
        p[i + n] = t;
    }
}`,
		wantInj: false,
		why:     "swap partner i+n lies outside [0:n-1]: imports untracked values",
	},
	{
		name: "conditional-swap",
		fill: `void fill(int n, int *p, int *q) {
    int i, t;
    for (i = 0; i < n; i++) { p[i] = i; }
    for (i = 0; i < n; i++) {
        if (q[i] > 0) {
            t = p[i];
            p[i] = p[n-1-i];
            p[n-1-i] = t;
        }
    }
}`,
		wantInj: false,
		why:     "guarded body: the recognizer only accepts the unconditional 3-statement form",
	},
	{
		name: "cross-array-swap",
		fill: `void fill(int n, int *p, int *q) {
    int i, t;
    for (i = 0; i < n; i++) { p[i] = i; }
    for (i = 0; i < n; i++) {
        t = p[i];
        p[i] = q[i];
        q[i] = t;
    }
}`,
		wantInj: false,
		why:     "exchange with a second array imports arbitrary (possibly duplicate) values",
	},
	{
		name: "rewrite-same-cell",
		fill: `void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) {
        p[i] = i;
        p[i] = q[i];
    }
}`,
		wantInj: false,
		why:     "two writes per iteration with stride 1: coverage rule α = #writes fails",
	},
}

// TestInjectivityBattery asserts the classification of every case and
// brute-force-verifies the positive claims by concrete execution.
func TestInjectivityBattery(t *testing.T) {
	for _, tc := range injectCases {
		t.Run(tc.name, func(t *testing.T) {
			prog := cminus.MustParse(tc.fill)
			fa := phase2.AnalyzeFunc(prog.Func("fill"), phase2.LevelNew, nil)
			p := fa.Props.BestInjective("p")
			if !tc.wantInj {
				if p != nil {
					t.Fatalf("near-miss must not be classified (%s), got %s", tc.why, p)
				}
				return
			}
			if p == nil {
				t.Fatalf("expected an injectivity fact (%s); props:\n%s", tc.why, fa.Props.String())
			}
			if p.Permutation() != tc.wantPerm {
				t.Fatalf("permutation=%v, want %v (%s): %s", p.Permutation(), tc.wantPerm, tc.why, p)
			}
			for _, n := range []int64{1, 2, 5, 12} {
				if err := verifyInjectiveClaim(tc.fill, n, p.IndexLo, p.IndexHi, tc.wantPerm); err != nil {
					t.Fatalf("UNSOUND claim %s at n=%d: %v", p, n, err)
				}
			}
		})
	}
}

// TestInjectivityGating: the recognizer and the swap preservation are
// LevelNew capabilities; Base keeps only the Strict-implies-injective
// facts.
func TestInjectivityGating(t *testing.T) {
	interleave := injectCases[4].fill
	prog := cminus.MustParse(interleave)
	if fa := phase2.AnalyzeFunc(prog.Func("fill"), phase2.LevelBase, nil); fa.Props.BestInjective("p") != nil {
		t.Error("Base must not run the injectivity recognizer")
	}
	shuffle := injectCases[5].fill
	prog = cminus.MustParse(shuffle)
	if fa := phase2.AnalyzeFunc(prog.Func("fill"), phase2.LevelBase, nil); fa.Props.BestInjective("p") != nil {
		t.Error("Base must invalidate facts across the swap loop")
	}
}

// verifyInjectiveClaim executes the fill concretely and checks that the
// section [IndexLo:IndexHi] holds pairwise-distinct values (and, for
// permutation claims, exactly the integers lo..hi).
func verifyInjectiveClaim(src string, n int64, loE, hiE symbolic.Expr, perm bool) error {
	env := &symbolic.Env{Vars: map[string]int64{"n": n}}
	lo, err := symbolic.Eval(loE, env)
	if err != nil {
		return fmt.Errorf("eval IndexLo: %v", err)
	}
	hi, err := symbolic.Eval(hiE, env)
	if err != nil {
		return fmt.Errorf("eval IndexHi: %v", err)
	}
	if hi < lo {
		return nil // empty section: vacuously true
	}
	vals, err := runInjectFill(src, n)
	if err != nil {
		return err
	}
	if hi >= int64(len(vals)) || lo < 0 {
		return fmt.Errorf("section [%d:%d] outside the filled array", lo, hi)
	}
	seen := map[int64]int64{}
	for i := lo; i <= hi; i++ {
		if j, dup := seen[vals[i]]; dup {
			return fmt.Errorf("p[%d] == p[%d] == %d", j, i, vals[i])
		}
		seen[vals[i]] = i
		if perm && (vals[i] < lo || vals[i] > hi) {
			return fmt.Errorf("p[%d] = %d outside claimed permutation range [%d:%d]", i, vals[i], lo, hi)
		}
	}
	return nil
}

// runInjectFill executes a battery fill with deterministic q contents.
func runInjectFill(src string, n int64) ([]int64, error) {
	prog := cminus.MustParse(src)
	m, err := interp.New(prog)
	if err != nil {
		return nil, err
	}
	size := 4*n + 64
	pArr := interp.NewIntArray("p", size)
	qArr := interp.NewIntArray("q", size)
	for i := range qArr.Ints {
		qArr.Ints[i] = int64(i%5) - 2
	}
	if err := m.Call("fill", n, pArr, qArr); err != nil {
		return nil, err
	}
	return pArr.Ints, nil
}

// FuzzInjectRecognizer cross-checks the recognizer's verdict against
// brute-force execution of generated fills on small bounds: whenever the
// analysis claims injectivity (or a permutation) for p, the concrete
// section must confirm it. Missed claims are fine — wrong claims are the
// bug class this fuzzer hunts.
func FuzzInjectRecognizer(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0), uint8(0))
	f.Add(int64(2), int64(3), int64(1), uint8(1))
	f.Add(int64(-1), int64(4), int64(2), uint8(2))
	f.Add(int64(1), int64(1), int64(0), uint8(3))
	f.Add(int64(2), int64(-2), int64(3), uint8(4))
	f.Fuzz(func(t *testing.T, g, d, off int64, variant uint8) {
		// Bound the grammar's constants.
		g = g%5 - 2 // value slope in [-4:2]... wrapped below
		d = d % 9   // value offset
		off = off % 5
		if off < 0 {
			off = -off
		}
		var body string
		switch variant % 5 {
		case 0:
			body = fmt.Sprintf("p[i + %d] = %d*i + %d;", off, g, d)
		case 1:
			body = fmt.Sprintf("p[i] = i / %d;", abs64(d)+1)
		case 2:
			body = fmt.Sprintf("p[2*i] = %d*i + %d; p[2*i + 1] = %d*i + %d;", g, d, g, d+off)
		case 3:
			body = fmt.Sprintf("p[2*i] = i; p[2*i + 1] = n + %d*i + %d;", g, d)
		case 4:
			body = fmt.Sprintf("if (q[i] > %d) { p[i] = %d*i + %d; }", d, g, off)
		}
		src := fmt.Sprintf(`void fill(int n, int *p, int *q) {
    int i;
    for (i = 0; i < n; i++) { %s }
}`, body)
		prog, err := cminus.Parse(src)
		if err != nil {
			t.Skip()
		}
		fa := phase2.AnalyzeFunc(prog.Func("fill"), phase2.LevelNew, nil)
		p := fa.Props.BestInjective("p")
		if p == nil {
			return
		}
		for _, n := range []int64{1, 2, 3, 7} {
			if err := verifyInjectiveClaim(src, n, p.IndexLo, p.IndexHi, p.Permutation()); err != nil {
				t.Fatalf("UNSOUND claim %s for n=%d:\n%s\n%v", p, n, src, err)
			}
		}
	})
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
