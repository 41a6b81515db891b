//go:build !race

package interp

// raceEnabled gates allocation-count assertions, which are not
// meaningful under the race detector's instrumentation.
const raceEnabled = false
