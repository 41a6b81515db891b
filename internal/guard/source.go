// Package guard holds the region-entry scans that verify a parallel
// plan's array guards (depend.Guard) at run time: monotone, injective
// and range-monotone subscript arrays. The bytecode VM and the tree
// walker call them before they count a parallel region; a failed scan
// sends the region to its serial loop.
package guard

import _ "embed"

// Source is guard.go, which internal/codegen copies into every emitted
// Go module so the native code runs the same scans.
//
//go:embed guard.go
var Source string
