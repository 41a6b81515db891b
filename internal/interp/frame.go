package interp

// Frames and their slot descriptors. A frame is the flat per-call
// activation record of a bytecode function: scalar locals and temps live
// in typed columns, privatizable globals in cell slots, and arrays in
// reference slots. Frames are pooled per function, and the parallel
// driver hands each worker one reused frame per region, so the steady
// state of a loop allocates nothing per iteration.

// frame is the flat activation record of one call.
type frame struct {
	ints  []int64
	flts  []float64
	cells []*Value // privatizable globals (workers swap in private cells)
	arrs  []*Array
	ret   Value
}

// Parameter slot kinds.
const (
	psInt uint8 = iota
	psFlt
	psArr
)

type paramSlot struct {
	kind uint8
	idx  int
}

// entryArr binds a frame array slot from m.Arrays at call entry (the
// slot analogue of the tree walker's lazy global-array lookup).
type entryArr struct {
	slot int
	name string
}

// entryCell aliases a frame cell slot to a global's cell at call entry.
type entryCell struct {
	slot int
	g    *Value
}

// argValue converts a host scalar argument of Call.
func argValue(a Arg) (Value, bool) {
	switch v := a.(type) {
	case Value:
		return v, true
	case int:
		return IntVal(int64(v)), true
	case int64:
		return IntVal(v), true
	case float64:
		return FloatVal(v), true
	}
	return Value{}, false
}

// ---- parallel loops ----

// Parallel slot kinds: where a private/reduction variable lives.
const (
	pkLocalInt uint8 = iota
	pkLocalFlt
	pkCell
)

type privSlot struct {
	kind  uint8
	slot  int
	float bool
}

// redSlot is one reduction variable; cmb is its combine kind
// (combineKind of the clause operator), resolved at compile time.
type redSlot struct {
	kind  uint8
	slot  int
	float bool
	cmb   int64
}
