// Package interp executes mini-C programs on a bytecode VM (the default)
// or a tree walker (the oracle), serially or by a parallelization plan:
// loops the plan marks parallel run on sched.ParallelLoop with privatized
// scalars, reduction combining, and a serial fallback when a runtime check
// or guard scan fails at region entry — the OpenMP annotations' semantics.
// The interpreter exists to validate plans: for every loop the analysis
// parallelizes, parallel execution must produce the same result as serial
// execution.
package interp

import (
	"fmt"
	"math"
)

// Value is a scalar value: either an integer or a double.
type Value struct {
	I     int64
	F     float64
	Float bool
}

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{I: i} }

// FloatVal returns a floating-point value.
func FloatVal(f float64) Value { return Value{F: f, Float: true} }

// AsFloat converts to float64.
func (v Value) AsFloat() float64 {
	if v.Float {
		return v.F
	}
	return float64(v.I)
}

// AsInt converts to int64 (truncating like a C cast).
func (v Value) AsInt() int64 {
	if v.Float {
		return int64(v.F)
	}
	return v.I
}

// Truthy implements C truthiness.
func (v Value) Truthy() bool {
	if v.Float {
		return v.F != 0
	}
	return v.I != 0
}

func (v Value) String() string {
	if v.Float {
		return fmt.Sprintf("%g", v.F)
	}
	return fmt.Sprintf("%d", v.I)
}

// Array is a flattened (possibly multi-dimensional) array of ints or
// doubles.
type Array struct {
	Name  string
	Dims  []int64
	Float bool
	Ints  []int64
	Flts  []float64
}

// NewIntArray allocates an integer array.
func NewIntArray(name string, dims ...int64) *Array {
	return &Array{Name: name, Dims: dims, Ints: make([]int64, total(dims))}
}

// NewFloatArray allocates a double array.
func NewFloatArray(name string, dims ...int64) *Array {
	return &Array{Name: name, Dims: dims, Float: true, Flts: make([]float64, total(dims))}
}

func total(dims []int64) int64 {
	n := int64(1)
	for _, d := range dims {
		n *= d
	}
	return n
}

// Len returns the flattened element count.
func (a *Array) Len() int64 { return total(a.Dims) }

// offset computes the flat offset for an index vector. Trailing dimensions
// may be omitted (partial indexing is an error here — the mini-C corpus
// always fully indexes).
func (a *Array) offset(idx []int64) (int64, error) {
	if len(idx) != len(a.Dims) {
		return 0, fmt.Errorf("interp: array %s indexed with %d subscripts, has %d dims", a.Name, len(idx), len(a.Dims))
	}
	var off int64
	for d, ix := range idx {
		if ix < 0 || ix >= a.Dims[d] {
			return 0, fmt.Errorf("interp: array %s index %d out of range [0,%d) in dim %d", a.Name, ix, a.Dims[d], d)
		}
		off = off*a.Dims[d] + ix
	}
	return off, nil
}

// Get reads an element.
func (a *Array) Get(idx []int64) (Value, error) {
	off, err := a.offset(idx)
	if err != nil {
		return Value{}, err
	}
	if a.Float {
		return FloatVal(a.Flts[off]), nil
	}
	return IntVal(a.Ints[off]), nil
}

// Set writes an element, converting the value to the array's type.
func (a *Array) Set(idx []int64, v Value) error {
	off, err := a.offset(idx)
	if err != nil {
		return err
	}
	if a.Float {
		a.Flts[off] = v.AsFloat()
	} else {
		a.Ints[off] = v.AsInt()
	}
	return nil
}

// Clone deep-copies the array (used by validation tests).
func (a *Array) Clone() *Array {
	cp := &Array{Name: a.Name, Dims: append([]int64(nil), a.Dims...), Float: a.Float}
	cp.Ints = append([]int64(nil), a.Ints...)
	cp.Flts = append([]float64(nil), a.Flts...)
	return cp
}

// MaxAbsDiff returns the largest elementwise absolute difference between
// two arrays of the same shape.
func MaxAbsDiff(a, b *Array) float64 {
	if a.Float != b.Float || a.Len() != b.Len() {
		return math.Inf(1)
	}
	var worst float64
	if a.Float {
		for i := range a.Flts {
			d := math.Abs(a.Flts[i] - b.Flts[i])
			if d > worst {
				worst = d
			}
		}
		return worst
	}
	for i := range a.Ints {
		d := math.Abs(float64(a.Ints[i] - b.Ints[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}
