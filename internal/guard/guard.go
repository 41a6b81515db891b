package guard

// These scans check the subscript-array fact a parallel region's plan
// rests on. A loop of n trips reads the guarded array over x[0:n], or
// x[0:n+1] for a window loop. An empty section (n <= 0) always holds; a
// section past the array never does, so the region runs serially
// instead of faulting. The file has no imports: internal/codegen copies
// it, package clause rewritten, into every emitted Go module.

// Monotone reports whether x[v] <= x[v+1], or x[v] < x[v+1] when strict,
// for every adjacent pair of the section a loop of n trips reads.
func Monotone(x []int64, n int64, strict, window bool) bool {
	if n <= 0 {
		return true
	}
	pairs := n - 1
	if window {
		pairs = n
	}
	if pairs >= int64(len(x)) {
		return false
	}
	for v := int64(0); v < pairs; v++ {
		if x[v] > x[v+1] || strict && x[v] == x[v+1] {
			return false
		}
	}
	return true
}

// Injective reports whether x[0:n] holds n distinct values. When the
// values span at most 64·n integers a bitset over that span marks them;
// a wider span falls back to a hash set.
func Injective(x []int64, n int64) bool {
	if n <= 0 {
		return true
	}
	if n > int64(len(x)) {
		return false
	}
	sec := x[:n]
	lo, hi := sec[0], sec[0]
	for _, v := range sec {
		lo, hi = min(lo, v), max(hi, v)
	}
	// hi-lo computed in uint64 is exact even when it overflows int64.
	if span := uint64(hi) - uint64(lo); span < 64*uint64(n) {
		seen := make([]uint64, span/64+1)
		for _, v := range sec {
			off := uint64(v) - uint64(lo)
			bit := uint64(1) << (off % 64)
			if seen[off/64]&bit != 0 {
				return false
			}
			seen[off/64] |= bit
		}
		return true
	}
	seen := make(map[int64]struct{}, n)
	for _, v := range sec {
		if _, dup := seen[v]; dup {
			return false
		}
		seen[v] = struct{}{}
	}
	return true
}

// RangeMonotone reports whether the outermost-dimension blocks of a
// row-major array with the given dims hold strictly increasing value
// ranges over the first n blocks: max(block v) < min(block v+1). This is
// the multi-dimensional disjointness pattern, in which each block
// indexes its own region, so the array must have rank 2 or more.
func RangeMonotone(dims, x []int64, n int64) bool {
	if len(dims) < 2 || n > dims[0] {
		return false
	}
	if n <= 0 {
		return true
	}
	block := int64(len(x)) / dims[0]
	if block <= 0 {
		return false
	}
	var prevMax int64
	for v := int64(0); v < n; v++ {
		blk := x[v*block : (v+1)*block]
		mn, mx := blk[0], blk[0]
		for _, e := range blk[1:] {
			mn, mx = min(mn, e), max(mx, e)
		}
		if v > 0 && prevMax >= mn {
			return false
		}
		prevMax = mx
	}
	return true
}
