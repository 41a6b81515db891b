package interp

import (
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/sched"
)

// The bytecode VM, the default engine. The compiler in bytecode.go
// lowers the slot-resolved IR to a flat []Instr; this file is the
// runtime — a single for/switch dispatch loop over typed value columns
// (fr.ints / fr.flts / fr.cells / fr.arrs), with zero interface boxing
// and zero steady-state allocations. Cycle metering is billed through
// internal/budget once per vmQuantum instructions, so a step budget
// bounds VM work with a deterministic abort point, and context
// cancellation keeps the same throttled back-edge polls as the tree
// walker (opEdge).

// vmQuantum is the metering quantum: the dispatch loop bills one
// Budget.Step(vmQuantum) every vmQuantum instructions, so an exhausted
// budget aborts within one quantum of the limit.
const vmQuantum = 256

// ensureBytecode compiles the program to bytecode on first use and
// recompiles when the plan pointer changed (plans are immutable).
func (m *Machine) ensureBytecode() *bytecodeProgram {
	if m.bc == nil || m.bc.plan != m.Plan {
		sp := m.Trace.Start(0, "compile-bc")
		m.bc = compileBytecode(m)
		m.Trace.End(sp)
	}
	return m.bc
}

// callVM runs a function on the bytecode VM. Engine errors and budget
// aborts surface as errors; foreign panics propagate.
func (m *Machine) callVM(name string, args []Arg) (err error) {
	bp := m.ensureBytecode()
	bf := bp.funcs[name]
	if bf == nil {
		return fmt.Errorf("interp: no function %q", name)
	}
	if len(args) != len(bf.params) {
		return fmt.Errorf("interp: %s expects %d args, got %d", name, len(bf.params), len(args))
	}
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case engineErr:
				err = e.err
			case budget.Abort:
				err = e.Err
			default:
				panic(r)
			}
		}
	}()
	fr := bf.newFrame()
	defer bf.release(fr)
	bf.bindEntry(fr, m)
	for i, ps := range bf.params {
		switch ps.kind {
		case psArr:
			a, ok := args[i].(*Array)
			if !ok {
				return fmt.Errorf("interp: unsupported argument %T", args[i])
			}
			fr.arrs[ps.idx] = a
		case psFlt:
			v, ok := argValue(args[i])
			if !ok {
				return fmt.Errorf("interp: unsupported argument %T", args[i])
			}
			fr.flts[ps.idx] = v.AsFloat()
		default:
			v, ok := argValue(args[i])
			if !ok {
				return fmt.Errorf("interp: unsupported argument %T", args[i])
			}
			fr.ints[ps.idx] = v.AsInt()
		}
	}
	fr.ret = Value{}
	if m.Trace.Enabled() {
		sp := m.Trace.StartFunc(0, "exec-vm", name)
		defer m.Trace.End(sp)
	}
	m.runSeg(bf, fr, 0)
	return nil
}

// vmArr1Fail is the cold side of the fused 1-D access checks: the hot
// loop folds nil + rank + bounds into one predictable branch (the bounds
// test is a single unsigned compare — Dims[0] of a 1-D array equals its
// slice length, so it is never negative) and calls here only to throw,
// re-deriving which check failed so the error text and ordering match
// the tree walker exactly.
//
//go:noinline
func vmArr1Fail(bf *bfunc, a *Array, i int64, aux int32) {
	if a == nil {
		throwf("%s", bf.strs[aux])
	}
	if len(a.Dims) != 1 {
		throwf("interp: array %s indexed with 1 subscripts, has %d dims", a.Name, len(a.Dims))
	}
	throwf("interp: array %s index %d out of range [0,%d) in dim 0", a.Name, i, a.Dims[0])
}

func vmIntCombine(k int64, a, b int64) int64 {
	switch k {
	case cmbAdd:
		return a + b
	case cmbSub:
		return a - b
	case cmbMul:
		return a * b
	case cmbDiv:
		if b == 0 {
			throwf("interp: integer division by zero")
		}
		return a / b
	default:
		if b == 0 {
			throwf("interp: modulo by zero")
		}
		return a % b
	}
}

func vmFloatCombine(k int64, a, b float64) float64 {
	switch k {
	case cmbAdd:
		return a + b
	case cmbSub:
		return a - b
	case cmbMul:
		return a * b
	case cmbDiv:
		return a / b
	default:
		bi := int64(b)
		if bi == 0 {
			throwf("interp: modulo by zero")
		}
		return float64(int64(a) % bi)
	}
}

// runSeg executes the instruction stream from pc until a control-flow
// terminator (return, segment end, or a worker break/continue) and
// returns the control code. The hot loop reads instructions from one
// contiguous slice and values from typed columns — no interface values,
// no per-node calls, no allocations.
func (m *Machine) runSeg(bf *bfunc, fr *frame, pc int32) control {
	b := m.Budget
	code := bf.code
	ints, flts := fr.ints, fr.flts
	meter := int32(vmQuantum)
	for {
		meter--
		if meter <= 0 {
			b.Step(vmQuantum)
			meter = vmQuantum
		}
		in := &code[pc]
		pc++
		switch in.Op {
		case opNop:
		case opIConst:
			ints[in.A] = in.K
		case opFConst:
			flts[in.A] = in.KF
		case opIMove:
			ints[in.A] = ints[in.B]
		case opFMove:
			flts[in.A] = flts[in.B]
		case opI2F:
			flts[in.A] = float64(ints[in.B])
		case opF2I:
			ints[in.A] = int64(flts[in.B])

		case opIAdd:
			ints[in.A] = ints[in.B] + ints[in.C]
		case opIAddK:
			ints[in.A] = ints[in.B] + in.K
		case opISub:
			ints[in.A] = ints[in.B] - ints[in.C]
		case opIMul:
			ints[in.A] = ints[in.B] * ints[in.C]
		case opIMulK:
			ints[in.A] = ints[in.B] * in.K
		case opIMulAdd:
			ints[in.A] = ints[in.B]*ints[in.C] + ints[in.Aux]
		case opIMulKAdd:
			ints[in.A] = ints[in.B]*in.K + ints[in.C]
		case opIDiv:
			d := ints[in.C]
			if d == 0 {
				throwf("interp: integer division by zero")
			}
			ints[in.A] = ints[in.B] / d
		case opIMod:
			d := ints[in.C]
			if d == 0 {
				throwf("interp: modulo by zero")
			}
			ints[in.A] = ints[in.B] % d
		case opIAnd:
			ints[in.A] = ints[in.B] & ints[in.C]
		case opIOr:
			ints[in.A] = ints[in.B] | ints[in.C]
		case opIXor:
			ints[in.A] = ints[in.B] ^ ints[in.C]
		case opIShl:
			ints[in.A] = ints[in.B] << uint(ints[in.C])
		case opIShr:
			ints[in.A] = ints[in.B] >> uint(ints[in.C])
		case opINeg:
			ints[in.A] = -ints[in.B]
		case opIBNot:
			ints[in.A] = ^ints[in.B]

		case opFAdd:
			flts[in.A] = flts[in.B] + flts[in.C]
		case opFSub:
			flts[in.A] = flts[in.B] - flts[in.C]
		case opFMul:
			flts[in.A] = flts[in.B] * flts[in.C]
		case opFMulAcc:
			// The explicit float64 conversion forces the product to round
			// before the add (the Go spec permits fusing otherwise), so
			// results stay bit-identical with the unfused opFMul+opFAdd
			// pair the other engines execute.
			flts[in.A] = flts[in.A] + float64(flts[in.B]*flts[in.C])
		case opFMulAccL:
			// flts[A] += flts[B] * arrs[K][ints[C]]: the checked 1-D load
			// feeds the multiply-accumulate directly. Same rounding rules
			// as opFMulAcc.
			a := fr.arrs[in.K]
			i := ints[in.C]
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, in.Aux)
			}
			var v float64
			if a.Float {
				v = a.Flts[i]
			} else {
				v = float64(a.Ints[i])
			}
			flts[in.A] = flts[in.A] + float64(flts[in.B]*v)
		case opIMulAddL:
			// ints[A] = arrs[hi(K)][ints[C]] * ints[B] + ints[Aux]: the
			// subscripted-subscript index shape a1[i]*k+t in one step.
			a := fr.arrs[int32(in.K>>32)]
			i := ints[in.C]
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, int32(uint32(in.K)))
			}
			var v int64
			if a.Float {
				v = int64(a.Flts[i])
			} else {
				v = a.Ints[i]
			}
			ints[in.A] = v*ints[in.B] + ints[in.Aux]
		case opFDiv:
			flts[in.A] = flts[in.B] / flts[in.C]
		case opFNeg:
			flts[in.A] = -flts[in.B]

		case opILt:
			ints[in.A] = b2i(ints[in.B] < ints[in.C])
		case opILe:
			ints[in.A] = b2i(ints[in.B] <= ints[in.C])
		case opIGt:
			ints[in.A] = b2i(ints[in.B] > ints[in.C])
		case opIGe:
			ints[in.A] = b2i(ints[in.B] >= ints[in.C])
		case opIEq:
			ints[in.A] = b2i(ints[in.B] == ints[in.C])
		case opINe:
			ints[in.A] = b2i(ints[in.B] != ints[in.C])
		case opFLt:
			ints[in.A] = b2i(flts[in.B] < flts[in.C])
		case opFLe:
			ints[in.A] = b2i(flts[in.B] <= flts[in.C])
		case opFGt:
			ints[in.A] = b2i(flts[in.B] > flts[in.C])
		case opFGe:
			ints[in.A] = b2i(flts[in.B] >= flts[in.C])
		case opFEq:
			ints[in.A] = b2i(flts[in.B] == flts[in.C])
		case opFNe:
			ints[in.A] = b2i(flts[in.B] != flts[in.C])

		case opJump:
			pc = in.A
		case opJNZ:
			if (ints[in.B] != 0) != (in.K != 0) {
				pc = in.A
			}
		case opJFNZ:
			if (flts[in.B] != 0) != (in.K != 0) {
				pc = in.A
			}
		case opJILt:
			if (ints[in.B] < ints[in.C]) != (in.K != 0) {
				pc = in.A
			}
		case opJILe:
			if (ints[in.B] <= ints[in.C]) != (in.K != 0) {
				pc = in.A
			}
		case opJIGt:
			if (ints[in.B] > ints[in.C]) != (in.K != 0) {
				pc = in.A
			}
		case opJIGe:
			if (ints[in.B] >= ints[in.C]) != (in.K != 0) {
				pc = in.A
			}
		case opJIEq:
			if (ints[in.B] == ints[in.C]) != (in.K != 0) {
				pc = in.A
			}
		case opJINe:
			if (ints[in.B] != ints[in.C]) != (in.K != 0) {
				pc = in.A
			}
		case opJIEqK:
			if ints[in.B] == in.K {
				pc = in.A
			}
		case opJIKLt:
			if (ints[in.B] < in.K) != (in.C != 0) {
				pc = in.A
			}
		case opJIKLe:
			if (ints[in.B] <= in.K) != (in.C != 0) {
				pc = in.A
			}
		case opJIKGt:
			if (ints[in.B] > in.K) != (in.C != 0) {
				pc = in.A
			}
		case opJIKGe:
			if (ints[in.B] >= in.K) != (in.C != 0) {
				pc = in.A
			}
		case opJIKEq:
			if (ints[in.B] == in.K) != (in.C != 0) {
				pc = in.A
			}
		case opJIKNe:
			if (ints[in.B] != in.K) != (in.C != 0) {
				pc = in.A
			}

		case opJIncLt, opJIncLe, opJIncGt, opJIncGe, opJIncEq, opJIncNe:
			// Fused for-loop back edge: bump the counter, then compare
			// against the register bound.
			v := ints[in.B] + int64(in.Aux)
			ints[in.B] = v
			r := ints[in.C]
			var cmp bool
			switch in.Op {
			case opJIncLt:
				cmp = v < r
			case opJIncLe:
				cmp = v <= r
			case opJIncGt:
				cmp = v > r
			case opJIncGe:
				cmp = v >= r
			case opJIncEq:
				cmp = v == r
			default:
				cmp = v != r
			}
			if cmp != (in.K != 0) {
				pc = in.A
			}
		case opJIKIncLt, opJIKIncLe, opJIKIncGt, opJIKIncGe, opJIKIncEq, opJIKIncNe:
			// Same back edge with an immediate bound (sense in C).
			v := ints[in.B] + int64(in.Aux)
			ints[in.B] = v
			var cmp bool
			switch in.Op {
			case opJIKIncLt:
				cmp = v < in.K
			case opJIKIncLe:
				cmp = v <= in.K
			case opJIKIncGt:
				cmp = v > in.K
			case opJIKIncGe:
				cmp = v >= in.K
			case opJIKIncEq:
				cmp = v == in.K
			default:
				cmp = v != in.K
			}
			if cmp != (in.C != 0) {
				pc = in.A
			}
		case opJILtA, opJILeA, opJIGtA, opJIGeA, opJIEqA, opJINeA:
			// Compare+branch against arrs[lo(K)][ints[C]+disp]; the branch
			// sense is bit 32 of K, the displacement bits 40-63.
			a := fr.arrs[int32(uint32(in.K))]
			i := ints[in.C] + in.K>>40
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, in.Aux)
			}
			var r int64
			if a.Float {
				r = int64(a.Flts[i])
			} else {
				r = a.Ints[i]
			}
			l := ints[in.B]
			var cmp bool
			switch in.Op {
			case opJILtA:
				cmp = l < r
			case opJILeA:
				cmp = l <= r
			case opJIGtA:
				cmp = l > r
			case opJIGeA:
				cmp = l >= r
			case opJIEqA:
				cmp = l == r
			default:
				cmp = l != r
			}
			if cmp != (in.K>>32&1 != 0) {
				pc = in.A
			}

		case opGetGI:
			ints[in.A] = bf.globals[in.Aux].I
		case opGetGF:
			flts[in.A] = bf.globals[in.Aux].F
		case opSetGI:
			bf.globals[in.Aux].I = ints[in.A]
		case opSetGF:
			bf.globals[in.Aux].F = flts[in.A]
		case opGetCI:
			ints[in.A] = fr.cells[in.B].I
		case opGetCF:
			flts[in.A] = fr.cells[in.B].F
		case opSetCI:
			fr.cells[in.B].I = ints[in.A]
		case opSetCF:
			fr.cells[in.B].F = flts[in.A]

		case opALoad1I:
			a := fr.arrs[in.B]
			i := ints[in.C]
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, in.Aux)
			}
			if a.Float {
				ints[in.A] = int64(a.Flts[i])
			} else {
				ints[in.A] = a.Ints[i]
			}
		case opALoad1F:
			a := fr.arrs[in.B]
			i := ints[in.C]
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, in.Aux)
			}
			if a.Float {
				flts[in.A] = a.Flts[i]
			} else {
				flts[in.A] = float64(a.Ints[i])
			}
		case opAStore1I:
			a := fr.arrs[in.B]
			i := ints[in.C]
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, in.Aux)
			}
			if a.Float {
				a.Flts[i] = float64(ints[in.A])
			} else {
				a.Ints[i] = ints[in.A]
			}
		case opAStore1F:
			a := fr.arrs[in.B]
			i := ints[in.C]
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, in.Aux)
			}
			if a.Float {
				a.Flts[i] = flts[in.A]
			} else {
				a.Ints[i] = int64(flts[in.A])
			}
		case opAUpd1I:
			a := fr.arrs[in.B]
			i := ints[in.C]
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, in.Aux)
			}
			if a.Float {
				a.Flts[i] = vmFloatCombine(in.K, a.Flts[i], float64(ints[in.A]))
			} else {
				a.Ints[i] = vmIntCombine(in.K, a.Ints[i], ints[in.A])
			}
		case opAUpd1F:
			a := fr.arrs[in.B]
			i := ints[in.C]
			if a == nil || len(a.Dims) != 1 || uint64(i) >= uint64(a.Dims[0]) {
				vmArr1Fail(bf, a, i, in.Aux)
			}
			if a.Float {
				a.Flts[i] = vmFloatCombine(in.K, a.Flts[i], flts[in.A])
			} else {
				a.Ints[i] = int64(vmFloatCombine(in.K, float64(a.Ints[i]), flts[in.A]))
			}

		case opGathLoadI, opGathLoadF, opGathStoreI, opGathStoreF:
			// Fused a2[a1[i]] (the subscripted-subscript access itself),
			// produced by the peephole in bytecode.go. Check order matches
			// the unfused [probe][load1][access] sequence: outer nil (the
			// absorbed probe), inner nil+rank+bounds+load, outer
			// rank+bounds, access.
			a2 := fr.arrs[in.B]
			if a2 == nil {
				throwf("%s", bf.strs[in.Aux])
			}
			a1 := fr.arrs[int32(in.K>>32)]
			i1 := ints[in.C]
			if a1 == nil || len(a1.Dims) != 1 || uint64(i1) >= uint64(a1.Dims[0]) {
				vmArr1Fail(bf, a1, i1, int32(uint32(in.K)))
			}
			var ix int64
			if a1.Float {
				ix = int64(a1.Flts[i1])
			} else {
				ix = a1.Ints[i1]
			}
			if len(a2.Dims) != 1 || uint64(ix) >= uint64(a2.Dims[0]) {
				vmArr1Fail(bf, a2, ix, in.Aux)
			}
			switch in.Op {
			case opGathLoadI:
				if a2.Float {
					ints[in.A] = int64(a2.Flts[ix])
				} else {
					ints[in.A] = a2.Ints[ix]
				}
			case opGathLoadF:
				if a2.Float {
					flts[in.A] = a2.Flts[ix]
				} else {
					flts[in.A] = float64(a2.Ints[ix])
				}
			case opGathStoreI:
				if a2.Float {
					a2.Flts[ix] = float64(ints[in.A])
				} else {
					a2.Ints[ix] = ints[in.A]
				}
			default:
				if a2.Float {
					a2.Flts[ix] = flts[in.A]
				} else {
					a2.Ints[ix] = int64(flts[in.A])
				}
			}

		case opGathMulAccF:
			// flts[A>>16] += flts[A&0xffff] * a2[a1[i]]: the gather-load
			// cascade folded into a multiply-accumulate. Checks mirror
			// opGathLoadF exactly; rounding mirrors opFMulAcc.
			a2 := fr.arrs[in.B]
			if a2 == nil {
				throwf("%s", bf.strs[in.Aux])
			}
			a1 := fr.arrs[int32(in.K>>32)]
			i1 := ints[in.C]
			if a1 == nil || len(a1.Dims) != 1 || uint64(i1) >= uint64(a1.Dims[0]) {
				vmArr1Fail(bf, a1, i1, int32(uint32(in.K)))
			}
			var ix int64
			if a1.Float {
				ix = int64(a1.Flts[i1])
			} else {
				ix = a1.Ints[i1]
			}
			if len(a2.Dims) != 1 || uint64(ix) >= uint64(a2.Dims[0]) {
				vmArr1Fail(bf, a2, ix, in.Aux)
			}
			var v float64
			if a2.Float {
				v = a2.Flts[ix]
			} else {
				v = float64(a2.Ints[ix])
			}
			flts[in.A>>16] = flts[in.A>>16] + float64(flts[in.A&0xffff]*v)

		case opOffLoadI, opOffLoadF, opOffStoreI, opOffStoreF:
			// Fused multi-dim-indexed subscript feeding a 1-D access:
			// a2[a1[i][j]...]. The inner offset in ints[C] was already
			// checked by the opAIdx chain, so the inner load is raw; the
			// outer access keeps its full 1-D checks.
			a2 := fr.arrs[in.B]
			if a2 == nil {
				throwf("%s", bf.strs[in.Aux])
			}
			a1 := fr.arrs[in.K]
			var ix int64
			if a1.Float {
				ix = int64(a1.Flts[ints[in.C]])
			} else {
				ix = a1.Ints[ints[in.C]]
			}
			if len(a2.Dims) != 1 || uint64(ix) >= uint64(a2.Dims[0]) {
				vmArr1Fail(bf, a2, ix, in.Aux)
			}
			switch in.Op {
			case opOffLoadI:
				if a2.Float {
					ints[in.A] = int64(a2.Flts[ix])
				} else {
					ints[in.A] = a2.Ints[ix]
				}
			case opOffLoadF:
				if a2.Float {
					flts[in.A] = a2.Flts[ix]
				} else {
					flts[in.A] = float64(a2.Ints[ix])
				}
			case opOffStoreI:
				if a2.Float {
					a2.Flts[ix] = float64(ints[in.A])
				} else {
					a2.Ints[ix] = ints[in.A]
				}
			default:
				if a2.Float {
					a2.Flts[ix] = flts[in.A]
				} else {
					a2.Ints[ix] = int64(flts[in.A])
				}
			}

		case opAIdx0:
			a := fr.arrs[in.B]
			if a == nil {
				throwf("%s", bf.strs[in.Aux])
			}
			if in.C < 0 {
				// Nil-only probe: the tree walker checks the array exists
				// before evaluating subscripts, but ranks and bounds only
				// after all of them evaluated.
				continue
			}
			if int64(len(a.Dims)) != in.K {
				throwf("interp: array %s indexed with %d subscripts, has %d dims", a.Name, in.K, len(a.Dims))
			}
			ix := ints[in.C]
			if ix < 0 || ix >= a.Dims[0] {
				throwf("interp: array %s index %d out of range [0,%d) in dim 0", a.Name, ix, a.Dims[0])
			}
			ints[in.A] = ix
		case opAIdxN:
			a := fr.arrs[in.B]
			d := in.K
			ix := ints[in.C]
			if ix < 0 || ix >= a.Dims[d] {
				throwf("interp: array %s index %d out of range [0,%d) in dim %d", a.Name, ix, a.Dims[d], d)
			}
			ints[in.A] = ints[in.A]*a.Dims[d] + ix
		case opAIdx01:
			a := fr.arrs[in.B]
			if a == nil {
				throwf("%s", bf.strs[in.Aux])
			}
			rank := in.K >> 32
			if int64(len(a.Dims)) != rank {
				throwf("interp: array %s indexed with %d subscripts, has %d dims", a.Name, rank, len(a.Dims))
			}
			i0 := ints[in.C]
			if i0 < 0 || i0 >= a.Dims[0] {
				throwf("interp: array %s index %d out of range [0,%d) in dim 0", a.Name, i0, a.Dims[0])
			}
			i1 := ints[int32(uint32(in.K))]
			if i1 < 0 || i1 >= a.Dims[1] {
				throwf("interp: array %s index %d out of range [0,%d) in dim 1", a.Name, i1, a.Dims[1])
			}
			ints[in.A] = i0*a.Dims[1] + i1
		case opAIdxNN:
			a := fr.arrs[in.B]
			d := in.K
			i0 := ints[in.C]
			if i0 < 0 || i0 >= a.Dims[d] {
				throwf("interp: array %s index %d out of range [0,%d) in dim %d", a.Name, i0, a.Dims[d], d)
			}
			off := ints[in.A]*a.Dims[d] + i0
			i1 := ints[in.Aux]
			if i1 < 0 || i1 >= a.Dims[d+1] {
				throwf("interp: array %s index %d out of range [0,%d) in dim %d", a.Name, i1, a.Dims[d+1], d+1)
			}
			ints[in.A] = off*a.Dims[d+1] + i1
		case opALoadI:
			a := fr.arrs[in.B]
			if a.Float {
				ints[in.A] = int64(a.Flts[ints[in.C]])
			} else {
				ints[in.A] = a.Ints[ints[in.C]]
			}
		case opALoadF:
			a := fr.arrs[in.B]
			if a.Float {
				flts[in.A] = a.Flts[ints[in.C]]
			} else {
				flts[in.A] = float64(a.Ints[ints[in.C]])
			}
		case opAStoreI:
			a := fr.arrs[in.B]
			if a.Float {
				a.Flts[ints[in.C]] = float64(ints[in.A])
			} else {
				a.Ints[ints[in.C]] = ints[in.A]
			}
		case opAStoreF:
			a := fr.arrs[in.B]
			if a.Float {
				a.Flts[ints[in.C]] = flts[in.A]
			} else {
				a.Ints[ints[in.C]] = int64(flts[in.A])
			}
		case opAUpdI:
			a, off := fr.arrs[in.B], ints[in.C]
			if a.Float {
				a.Flts[off] = vmFloatCombine(in.K, a.Flts[off], float64(ints[in.A]))
			} else {
				a.Ints[off] = vmIntCombine(in.K, a.Ints[off], ints[in.A])
			}
		case opAUpdF:
			a, off := fr.arrs[in.B], ints[in.C]
			if a.Float {
				a.Flts[off] = vmFloatCombine(in.K, a.Flts[off], flts[in.A])
			} else {
				a.Ints[off] = int64(vmFloatCombine(in.K, float64(a.Ints[off]), flts[in.A]))
			}

		case opANew:
			dims := make([]int64, in.K)
			for i := range dims {
				dims[i] = ints[in.B+int32(i)]
			}
			name := bf.strs[in.Aux]
			if in.C != 0 {
				fr.arrs[in.A] = NewFloatArray(name, dims...)
			} else {
				fr.arrs[in.A] = NewIntArray(name, dims...)
			}
		case opACheck:
			if fr.arrs[in.B] == nil {
				throwf("%s", bf.strs[in.Aux])
			}

		case opAbs:
			ints[in.A] = int64(math.Abs(flts[in.B]))
		case opB1:
			flts[in.A] = bf.b1[in.Aux](flts[in.B])
		case opB2:
			flts[in.A] = bf.b2[in.Aux](flts[in.B], flts[in.C])

		case opCallU:
			// Flush the partial quantum before recursing: the callee
			// meters its own segment from scratch, so without this an
			// unbounded call chain whose frames each execute fewer than
			// vmQuantum instructions would never bill the budget (and
			// recurse until the goroutine stack blows).
			if n := vmQuantum - meter; n > 0 {
				b.Step(int64(n))
			}
			meter = vmQuantum
			c := &bf.calls[in.Aux]
			cal := c.callee.newFrame()
			c.callee.bindEntry(cal, m)
			for _, bd := range c.binds {
				switch bd.kind {
				case psArr:
					cal.arrs[bd.dst] = fr.arrs[bd.src]
				case psFlt:
					cal.flts[bd.dst] = flts[bd.src]
				default:
					cal.ints[bd.dst] = ints[bd.src]
				}
			}
			cal.ret = Value{}
			m.runSeg(c.callee, cal, 0)
			ret := cal.ret
			c.callee.release(cal)
			if c.retFloat {
				f := ret.AsFloat()
				if in.K != 0 {
					flts[in.A] = f
				} else {
					ints[in.A] = int64(f)
				}
			} else {
				i := ret.AsInt()
				if in.K != 0 {
					flts[in.A] = float64(i)
				} else {
					ints[in.A] = i
				}
			}

		case opRetV:
			fr.ret = Value{}
			return ctlReturn
		case opRetI:
			fr.ret = IntVal(ints[in.A])
			return ctlReturn
		case opRetF:
			fr.ret = FloatVal(flts[in.A])
			return ctlReturn
		case opIterEnd:
			return ctlNext
		case opIterBrk:
			return ctlBreak
		case opIterCnt:
			return ctlContinue
		case opIterRet:
			return ctlReturn

		case opEdge:
			m.throwIfInterrupted()

		case opJNoPar:
			if m.Workers <= 1 {
				pc = in.A
			}
		case opFall:
			m.Stats.RuntimeFallback++
		case opParEnter:
			m.Stats.ParallelRegions++
		case opPar:
			ints[in.A] = int64(m.runPar(bf, fr, in))

		case opErr:
			throwf("%s", bf.strs[in.Aux])

		default:
			throwf("interp: bad opcode %d at pc %d", in.Op, pc-1)
		}
	}
}

// vmWorkerFrame clones the parent frame into a pooled worker frame:
// shared scalars and arrays copy through; privatized cells and reduction
// slots get worker-private storage seeded with the reduction identity,
// like the tree walker's per-worker reduction cells.
func vmWorkerFrame(bf *bfunc, parent *frame, pl *vparloop) *frame {
	wfr := bf.newFrame()
	copy(wfr.ints, parent.ints)
	copy(wfr.flts, parent.flts)
	copy(wfr.cells, parent.cells)
	copy(wfr.arrs, parent.arrs)
	if pl.ivarCell {
		wfr.cells[pl.ivarSlot] = &Value{}
	}
	for _, p := range pl.privs {
		if p.kind == pkCell {
			wfr.cells[p.slot] = &Value{Float: p.float}
		}
	}
	for _, r := range pl.reds {
		ident := int64(0)
		if r.cmb == cmbMul {
			ident = 1
		}
		switch r.kind {
		case pkLocalInt:
			wfr.ints[r.slot] = ident
		case pkLocalFlt:
			wfr.flts[r.slot] = float64(ident)
		case pkCell:
			c := &Value{Float: r.float}
			if r.float {
				c.F = float64(ident)
			} else {
				c.I = ident
			}
			wfr.cells[r.slot] = c
		}
	}
	wfr.ret = Value{}
	return wfr
}

// runPar executes one chosen parallel loop on the VM, fanning the
// iteration space out over sched.ParallelLoop. Chunking, per-chunk
// private resets, reduction identities, and the worker-order error scan
// and reduction combines mirror the tree walker's execParallelFor, so
// the VM and the oracle produce bit-identical results at equal worker
// counts.
func (m *Machine) runPar(bf *bfunc, parent *frame, in *Instr) control {
	pl := &bf.pars[in.Aux]
	n := parent.ints[in.B]
	if n <= 0 {
		return ctlNext
	}
	workers := m.Workers
	if int64(workers) > n {
		workers = int(n)
	}
	frames := make([]*frame, workers)
	errs := make([]error, workers)
	ctls := make([]control, workers)

	runChunk := func(wfr *frame, start, end int64) control {
		for _, p := range pl.privs {
			switch p.kind {
			case pkLocalInt:
				wfr.ints[p.slot] = 0
			case pkLocalFlt:
				wfr.flts[p.slot] = 0
			case pkCell:
				c := wfr.cells[p.slot]
				c.I, c.F = 0, 0
			}
		}
		if pl.ivarCell {
			c := wfr.cells[pl.ivarSlot]
			for it := start; it < end; it++ {
				m.throwIfInterrupted()
				c.I = it
				if ctl := m.runSeg(bf, wfr, pl.bodyPC); ctl != ctlNext {
					return ctl
				}
			}
			return ctlNext
		}
		ivar := pl.ivarSlot
		for it := start; it < end; it++ {
			m.throwIfInterrupted()
			wfr.ints[ivar] = it
			if ctl := m.runSeg(bf, wfr, pl.bodyPC); ctl != ctlNext {
				return ctl
			}
		}
		return ctlNext
	}

	sched.ParallelLoop(n, workers, m.DynamicChunk,
		func(w int) { frames[w] = vmWorkerFrame(bf, parent, pl) },
		func(w int, start, end int64) (cont bool) {
			defer func() {
				if r := recover(); r != nil {
					switch e := r.(type) {
					case engineErr:
						errs[w] = e.err
					case budget.Abort:
						errs[w] = e.Err
					default:
						panic(r)
					}
					cont = false
				}
			}()
			if ctl := runChunk(frames[w], start, end); ctl != ctlNext {
				ctls[w] = ctl
				return false
			}
			return true
		})

	release := func() {
		for _, wfr := range frames {
			if wfr != nil {
				bf.release(wfr)
			}
		}
	}
	// Anomalies propagate in worker order before reductions combine,
	// matching the tree walker's error scan.
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			err := errs[w]
			release()
			panic(engineErr{err})
		}
		if ctls[w] != ctlNext {
			ctl := ctls[w]
			if ctl == ctlReturn {
				parent.ret = frames[w].ret
			}
			release()
			return ctl
		}
	}
	// Combine reductions deterministically in worker order.
	for _, r := range pl.reds {
		for w := 0; w < workers; w++ {
			wfr := frames[w]
			if wfr == nil {
				continue
			}
			switch r.kind {
			case pkLocalInt:
				parent.ints[r.slot] = vmIntCombine(r.cmb, parent.ints[r.slot], wfr.ints[r.slot])
			case pkLocalFlt:
				parent.flts[r.slot] = vmFloatCombine(r.cmb, parent.flts[r.slot], wfr.flts[r.slot])
			case pkCell:
				target, cell := parent.cells[r.slot], wfr.cells[r.slot]
				if r.float {
					target.F = vmFloatCombine(r.cmb, target.F, cell.F)
				} else {
					target.I = vmIntCombine(r.cmb, target.I, cell.I)
				}
			}
		}
	}
	// The loop variable's final value (locals only — the tree walker's
	// env lookup misses globals here, so the cell form skips it too).
	if !pl.ivarCell {
		parent.ints[pl.ivarSlot] = n
	}
	release()
	return ctlNext
}
