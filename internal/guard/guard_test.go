package guard

import (
	"bytes"
	"go/format"
	"math"
	"math/rand"
	"testing"
)

func TestGuardScanMonotone(t *testing.T) {
	cases := []struct {
		name           string
		x              []int64
		n              int64
		strict, window bool
		want           bool
	}{
		{"empty section", []int64{5, 1}, 0, true, false, true},
		{"empty section, empty array", nil, 0, true, true, true},
		{"one trip reads no pair", []int64{5}, 1, true, false, true},
		{"strict", []int64{0, 2, 7, 7}, 3, true, false, true},
		{"strict tie", []int64{0, 2, 7, 7}, 4, true, false, false},
		{"weak tie", []int64{0, 2, 7, 7}, 4, false, false, true},
		{"descent", []int64{0, 3, 2, 9}, 4, false, false, false},
		{"descent past the section", []int64{0, 3, 9, 2}, 3, false, false, true},
		{"section past the array", []int64{0, 1, 2}, 4, false, false, false},
		{"window reads x[n]", []int64{0, 1, 2}, 2, false, true, true},
		{"window descent at x[n]", []int64{0, 1, 0}, 2, false, true, false},
		{"window past the array", []int64{0, 1, 2}, 3, false, true, false},
		{"huge window", []int64{0, 1}, math.MaxInt64, false, true, false},
	}
	for _, c := range cases {
		if got := Monotone(c.x, c.n, c.strict, c.window); got != c.want {
			t.Errorf("%s: Monotone(%v, %d, %v, %v) = %v, want %v", c.name, c.x, c.n, c.strict, c.window, got, c.want)
		}
	}
}

func TestGuardScanInjective(t *testing.T) {
	wide := []int64{0, 1 << 40, 3, -(1 << 40)}
	cases := []struct {
		name string
		x    []int64
		n    int64
		want bool
	}{
		{"empty section", []int64{1, 1}, 0, true},
		{"section past the array", []int64{0, 1}, 3, false},
		{"bitset distinct", []int64{3, 0, 2, 1}, 4, true},
		{"bitset duplicate", []int64{3, 0, 3, 1}, 4, false},
		{"bitset duplicate past the section", []int64{3, 0, 2, 0}, 3, true},
		{"bitset negative values", []int64{-5, -1, -3}, 3, true},
		{"hash set distinct", wide, 4, true},
		{"hash set duplicate", append(append([]int64(nil), wide...), 1<<40), 5, false},
		{"span overflows int64", []int64{math.MinInt64, math.MaxInt64, 0}, 3, true},
		{"span overflows int64, duplicate", []int64{math.MinInt64, math.MaxInt64, math.MinInt64}, 3, false},
	}
	for _, c := range cases {
		if got := Injective(c.x, c.n); got != c.want {
			t.Errorf("%s: Injective(%v, %d) = %v, want %v", c.name, c.x, c.n, got, c.want)
		}
	}
}

// TestGuardScanInjectiveBranches checks the bitset and hash-set branches
// against a reference on random sections whose value spans fall on
// either side of the 64·n threshold.
func TestGuardScanInjectiveBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		span := int64(1 + rng.Intn(128*n))
		x := make([]int64, n)
		for i := range x {
			x[i] = rng.Int63n(span) - span/2
		}
		seen := map[int64]bool{}
		want := true
		for _, v := range x {
			if seen[v] {
				want = false
			}
			seen[v] = true
		}
		if got := Injective(x, int64(n)); got != want {
			t.Fatalf("Injective(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGuardScanRangeMonotone(t *testing.T) {
	blocks := []int64{0, 2, 1, 5, 4, 3, 6, 9, 7} // 3 blocks of 3
	cases := []struct {
		name string
		dims []int64
		x    []int64
		n    int64
		want bool
	}{
		{"empty section", []int64{3, 3}, blocks, 0, true},
		{"increasing blocks", []int64{3, 3}, blocks, 3, true},
		{"rank below 2", []int64{9}, blocks, 3, false},
		{"rank below 2, empty section", []int64{9}, blocks, 0, false},
		{"section past the array", []int64{3, 3}, blocks, 4, false},
		{"overlapping blocks", []int64{3, 3}, []int64{0, 2, 4, 3, 5, 6, 7, 8, 9}, 3, false},
		{"overlap past the section", []int64{3, 3}, []int64{0, 1, 2, 3, 4, 5, 0, 0, 0}, 2, true},
		{"touching blocks", []int64{3, 3}, []int64{0, 1, 2, 2, 3, 4, 5, 6, 7}, 2, false},
		{"empty blocks", []int64{3, 0}, nil, 2, false},
		{"rank 4", []int64{2, 2, 1, 2}, []int64{0, 1, 2, 3, 4, 5, 6, 7}, 2, true},
	}
	for _, c := range cases {
		if got := RangeMonotone(c.dims, c.x, c.n); got != c.want {
			t.Errorf("%s: RangeMonotone(%v, %v, %d) = %v, want %v", c.name, c.dims, c.x, c.n, got, c.want)
		}
	}
}

// TestGuardScanSourceEmbedded: the embedded source is this package's
// guard.go, gofmt-clean, so an emitted module carries it unchanged apart
// from its package clause.
func TestGuardScanSourceEmbedded(t *testing.T) {
	formatted, err := format.Source([]byte(Source))
	if err != nil {
		t.Fatalf("embedded source does not parse: %v", err)
	}
	if !bytes.Equal(formatted, []byte(Source)) {
		t.Error("embedded source is not gofmt-clean")
	}
	if !bytes.HasPrefix([]byte(Source), []byte("package guard\n")) {
		t.Error("embedded source does not open with its package clause")
	}
}

// BenchmarkInjective scans a 400-entry permutation, the quick-scale
// section of the scatter kernels, on the bitset branch.
func BenchmarkInjective(b *testing.B) {
	x := make([]int64, 400)
	for i, v := range rand.New(rand.NewSource(1)).Perm(len(x)) {
		x[i] = int64(v)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Injective(x, int64(len(x))) {
			b.Fatal("permutation reported not injective")
		}
	}
}
