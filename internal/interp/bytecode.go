package interp

// The bytecode engine's compiler. It lowers each function to a flat
// []Instr over the slot resolution of resolve.go (the resolver symbol
// tables), so scalar operands become indices into the frame's typed
// columns (ints / flts), array references become array-bank slots, and
// control flow becomes pc jumps. Expression temporaries live in
// registers appended after the named slots of the same columns, so a
// frame is one contiguous struct-of-arrays store and the dispatch loop
// (vm.go) touches no interface values and allocates nothing at steady
// state.
//
// Semantics mirror the tree walker — same evaluation order, same error
// strings — up to the flat-slot relaxation documented in resolve.go, so
// the corpus differential layer can pin the VM to the oracle
// bit-for-bit.

import (
	"fmt"
	"sync"

	"repro/internal/cminus"
	"repro/internal/parallelize"
)

// Opcode is one VM instruction kind.
type Opcode uint8

// Instruction set. Naming: I* operates on the int column, F* on the
// float column. A is the destination register unless noted; B and C are
// sources; Aux indexes a per-function table (strings, globals, builtins,
// calls, parallel descriptors); K is an inline int64 immediate and KF an
// inline float64 immediate.
const (
	opNop Opcode = iota

	// Constants, moves, conversions.
	opIConst // ints[A] = K
	opFConst // flts[A] = KF
	opIMove  // ints[A] = ints[B]
	opFMove  // flts[A] = flts[B]
	opI2F    // flts[A] = float64(ints[B])
	opF2I    // ints[A] = int64(flts[B])

	// Integer arithmetic.
	opIAdd     // ints[A] = ints[B] + ints[C]
	opIAddK    // ints[A] = ints[B] + K
	opIMulK    // ints[A] = ints[B] * K
	opIMulAdd  // ints[A] = ints[B]*ints[C] + ints[Aux]  (Aux is a register here)
	opIMulKAdd // ints[A] = ints[B]*K + ints[C]
	opISub     // ints[A] = ints[B] - ints[C]
	opIMul     // ints[A] = ints[B] * ints[C]
	opIDiv     // ints[A] = ints[B] / ints[C], zero-checked
	opIMod     // ints[A] = ints[B] % ints[C], zero-checked
	opIAnd     // ints[A] = ints[B] & ints[C]
	opIOr      // ints[A] = ints[B] | ints[C]
	opIXor     // ints[A] = ints[B] ^ ints[C]
	opIShl     // ints[A] = ints[B] << uint(ints[C])
	opIShr     // ints[A] = ints[B] >> uint(ints[C])
	opINeg     // ints[A] = -ints[B]
	opIBNot    // ints[A] = ^ints[B]

	// Float arithmetic.
	opFAdd    // flts[A] = flts[B] + flts[C]
	opFSub    // flts[A] = flts[B] - flts[C]
	opFMul    // flts[A] = flts[B] * flts[C]
	opFMulAcc // flts[A] += flts[B] * flts[C], product explicitly rounded (peephole)
	opFDiv    // flts[A] = flts[B] / flts[C]
	opFNeg    // flts[A] = -flts[B]

	// Comparisons materialized to 0/1 in the int column.
	opILt // ints[A] = b2i(ints[B] < ints[C])
	opILe
	opIGt
	opIGe
	opIEq
	opINe
	opFLt // ints[A] = b2i(flts[B] < flts[C])
	opFLe
	opFGt
	opFGe
	opFEq
	opFNe

	// Control flow. Jump targets are absolute pcs in A.
	opJump // pc = A
	opJNZ  // if (ints[B] != 0) != (K != 0) { pc = A }
	opJFNZ // if (flts[B] != 0) != (K != 0) { pc = A }
	opJILt // if (ints[B] < ints[C]) != (K != 0) { pc = A }  (fused compare+branch)
	opJILe
	opJIGt
	opJIGe
	opJIEq
	opJINe
	// Immediate compare+branch: the literal rides in K, so the branch
	// sense moves to C.
	opJIKLt // if (ints[B] < K) != (C != 0) { pc = A }
	opJIKLe
	opJIKGt
	opJIKGe
	opJIKEq
	opJIKNe
	// Post-increment compare+branch: the canonical for-loop back edge
	// i += d; if (i < bound) collapses into one dispatch. The delta rides
	// in Aux; the bound is a register (sense in K, like opJILt) or an
	// immediate (sense in C, like opJIKLt).
	opJIncLt // ints[B] += Aux; if (ints[B] < ints[C]) != (K != 0) { pc = A }
	opJIncLe
	opJIncGt
	opJIncGe
	opJIncEq
	opJIncNe
	opJIKIncLt // ints[B] += Aux; if (ints[B] < K) != (C != 0) { pc = A }
	opJIKIncLe
	opJIKIncGt
	opJIKIncGe
	opJIKIncEq
	opJIKIncNe
	// Compare+branch against a freshly loaded 1-D element (the right
	// operand of the compare): the array slot rides in bits 0-31 of K,
	// the branch sense in bit 32, and a small non-negative displacement
	// added to the index register in bits 40-63 (folds the a[i+1] shape).
	opJILtA // if (ints[B] < arrs[lo(K)][ints[C]+(K>>40)]) != (K>>32&1 != 0) { pc = A }
	opJILeA
	opJIGtA
	opJIGeA
	opJIEqA
	opJINeA

	// Globals (captured *Value cells) and frame cells.
	opGetGI // ints[A] = globals[Aux].I
	opGetGF // flts[A] = globals[Aux].F
	opSetGI // globals[Aux].I = ints[A]
	opSetGF // globals[Aux].F = flts[A]
	opGetCI // ints[A] = cells[B].I
	opGetCF // flts[A] = cells[B].F
	opSetCI // cells[B].I = ints[A]
	opSetCF // cells[B].F = flts[A]

	// Arrays. The fused 1-D forms check nil + rank + bounds and branch on
	// the array's dynamic element type, exactly like the tree walker.
	opALoad1I  // ints[A] = arrs[B][ints[C]]  (Aux: unknown-array msg)
	opALoad1F  // flts[A] = arrs[B][ints[C]]
	opAStore1I // arrs[B][ints[C]] = ints[A]
	opAStore1F // arrs[B][ints[C]] = flts[A]
	opAUpd1I   // arrs[B][ints[C]] = combine(K)(old, ints[A])
	opAUpd1F   // arrs[B][ints[C]] = combine(K)(old, flts[A])

	// Multi-dimensional addressing: opAIdx0 starts an offset in ints[A]
	// from the dim-0 subscript ints[C] (K = subscript count, rank check);
	// opAIdxN folds dim K's subscript in. The paired forms are peephole
	// fusions of two adjacent chain steps.
	opAIdx0   // ints[A] = bounds-checked ints[C]; rank must equal K
	opAIdxN   // ints[A] = ints[A]*Dims[K] + bounds-checked ints[C]
	opAIdx01  // dims 0 and 1 in one step: C = dim-0 reg, low K = dim-1 reg, high K = rank
	opAIdxNN  // dims K and K+1 in one step: C = dim-K reg, Aux = dim-K+1 reg
	opALoadI  // ints[A] = arrs[B].at(ints[C]) with dynamic type branch
	opALoadF  // flts[A] = arrs[B].at(ints[C])
	opAStoreI // arrs[B].at(ints[C]) = ints[A]
	opAStoreF // arrs[B].at(ints[C]) = flts[A]
	opAUpdI   // arrs[B].at(ints[C]) = combine(K)(old, ints[A])
	opAUpdF   // arrs[B].at(ints[C]) = combine(K)(old, flts[A])

	// Peephole-fused subscripted-subscript accesses. The Gath forms run
	// a full checked 1-D load of the inner subscript array (slot in the
	// high half of K, its unknown-array message index in the low half)
	// and feed the result straight into a checked 1-D access of arrs[B];
	// the outer nil check runs first, absorbing the nil-only probe. The
	// Off forms take an already-checked multi-dim offset in ints[C] into
	// the inner array arrs[K] instead.
	opGathLoadI  // ints[A] = arrs[B][arrs[K>>32][ints[C]]]
	opGathLoadF  // flts[A] = arrs[B][arrs[K>>32][ints[C]]]
	opGathStoreI // arrs[B][arrs[K>>32][ints[C]]] = ints[A]
	opGathStoreF // arrs[B][arrs[K>>32][ints[C]]] = flts[A]
	opOffLoadI   // ints[A] = arrs[B][arrs[K].at(ints[C])]
	opOffLoadF   // flts[A] = arrs[B][arrs[K].at(ints[C])]
	opOffStoreI  // arrs[B][arrs[K].at(ints[C])] = ints[A]
	opOffStoreF  // arrs[B][arrs[K].at(ints[C])] = flts[A]

	// Three-way cascades: a multiply-accumulate whose second factor is a
	// freshly loaded element. The load+mul+add chain collapses to one
	// dispatch; operand order is preserved so the float bits match the
	// unfused form exactly.
	opFMulAccL    // flts[A] += flts[B] * arrs[K][ints[C]]  (Aux: msg)
	opGathMulAccF // flts[A>>16] += flts[A&0xffff] * arrs[B][arrs[K>>32][ints[C]]]
	opIMulAddL    // ints[A] = arrs[K>>32][ints[C]] * ints[B] + ints[Aux]  (lo(K): msg)

	opANew   // arrs[A] = new array, dims from ints[B..B+K), Aux: name, C: 1 for float
	opACheck // nil-check arrs[B] (user-call array argument), Aux: msg

	// Builtins. Arguments and results use the float column.
	opAbs // ints[A] = int64(math.Abs(flts[B]))
	opB1  // flts[A] = builtins1 table[Aux](flts[B])
	opB2  // flts[A] = builtins2 table[Aux](flts[B], flts[C])

	opCallU // call calls[Aux]; result: ints[A] or flts[A] per descriptor

	// Returns and iteration-segment terminators.
	opRetV    // fr.ret = Value{}; ctlReturn
	opRetI    // fr.ret = IntVal(ints[A]); ctlReturn
	opRetF    // fr.ret = FloatVal(flts[A]); ctlReturn
	opIterEnd // end of a parallel-body segment: ctlNext
	opIterBrk // break with no enclosing loop in this segment: ctlBreak
	opIterCnt // continue with no enclosing loop in this segment: ctlContinue

	opEdge // loop back edge: cancellation poll (throttled shared counter)

	// Parallel regions.
	opJNoPar   // if m.Workers <= 1 { pc = A }
	opFall     // Stats.RuntimeFallback++
	opParEnter // Stats.ParallelRegions++
	opPar      // run parallel loop pars[Aux]; trip count in ints[B], control out in ints[A]
	opJIEqK    // if ints[B] == K { pc = A }  (opPar control dispatch)
	opIterRet  // propagate a worker/return control: ctlReturn

	opErr // panic engineErr with message strs[Aux]
)

// Instr is one flat instruction: an opcode plus dense operand fields.
// The slice of these is what the dispatch loop walks — no pointers, no
// closures, one cache line per couple of instructions.
type Instr struct {
	Op   Opcode
	A    int32
	B    int32
	C    int32
	Aux  int32
	K    int64
	KF   float64
	prev int32 // compile-time only: jump patch chain
}

// Combine kinds for opAUpd* (the K field).
const (
	cmbAdd int64 = iota
	cmbSub
	cmbMul
	cmbDiv
	cmbMod
)

func combineKind(op string) int64 {
	switch op {
	case "+":
		return cmbAdd
	case "-":
		return cmbSub
	case "*":
		return cmbMul
	case "/":
		return cmbDiv
	}
	return cmbMod
}

// vbind is one argument binding of a user call, applied caller→callee in
// parameter order at the opCallU site.
type vbind struct {
	kind uint8 // psInt / psFlt / psArr
	src  int32 // caller register (scalars) or array slot (psArr)
	dst  int32 // callee slot
}

// vcall is a user-call descriptor. callee is a shell registered before
// body emission, so recursion links up.
type vcall struct {
	callee   *bfunc
	binds    []vbind
	retFloat bool
}

// vparloop is a compiled parallel region: the body is a separately
// emitted segment of the same function's code, entered per iteration
// with the loop variable preset.
type vparloop struct {
	label    string
	ivarCell bool
	ivarSlot int32
	bodyPC   int32
	privs    []privSlot
	reds     []redSlot
}

// bfunc is one bytecode-compiled function.
type bfunc struct {
	name       string
	started    bool // compilation begun (breaks recursion cycles)
	code       []Instr
	nInts      int // named int slots + temp registers
	nFlts      int
	nCells     int
	nArrs      int
	params     []paramSlot
	entryArrs  []entryArr
	entryCells []entryCell

	strs    []string // error messages and array names
	globals []*Value
	b1      []func(float64) float64
	b2      []func(float64, float64) float64
	calls   []vcall
	pars    []vparloop

	pool sync.Pool
}

func (bf *bfunc) newFrame() *frame { return bf.pool.Get().(*frame) }

func (bf *bfunc) release(fr *frame) { bf.pool.Put(fr) }

// bindEntry prepares a fresh (possibly pooled) frame: array slots are
// cleared and globals re-resolved, so staleness never leaks across calls.
// Scalar columns are zeroed too — declared locals re-zero at their
// DeclStmt anyway, but implicit locals read before their first
// assignment (ill-formed, yet executable) must observe a deterministic
// zero rather than pooled garbage.
func (bf *bfunc) bindEntry(fr *frame, m *Machine) {
	for i := range fr.ints {
		fr.ints[i] = 0
	}
	for i := range fr.flts {
		fr.flts[i] = 0
	}
	for i := range fr.arrs {
		fr.arrs[i] = nil
	}
	for _, ea := range bf.entryArrs {
		fr.arrs[ea.slot] = m.Arrays[ea.name]
	}
	for _, ec := range bf.entryCells {
		fr.cells[ec.slot] = ec.g
	}
}

// bytecodeProgram caches the bytecode form of a machine's program for a
// specific plan (plans are immutable once built; the pointer is the
// cache key).
type bytecodeProgram struct {
	m     *Machine
	plan  *parallelize.Plan
	funcs map[string]*bfunc
}

func compileBytecode(m *Machine) *bytecodeProgram {
	bp := &bytecodeProgram{m: m, plan: m.Plan, funcs: map[string]*bfunc{}}
	// Register shells first so recursive and mutual calls resolve.
	for _, fn := range m.Prog.Funcs {
		if fn.Body != nil {
			bp.funcs[fn.Name] = &bfunc{name: fn.Name}
		}
	}
	for _, fn := range m.Prog.Funcs {
		if fn.Body != nil {
			bp.ensure(fn)
		}
	}
	return bp
}

// ensure compiles fn on first demand (call sites need the callee's
// parameter layout, so forward calls trigger compilation out of program
// order). A function currently being compiled — recursion — already has
// its parameter layout published, which is all a call site reads.
func (bp *bytecodeProgram) ensure(fn *cminus.FuncDecl) *bfunc {
	bf := bp.funcs[fn.Name]
	if bf == nil || bf.started {
		return bf
	}
	bf.started = true
	// Resolution publishes the parameter layout in bf immediately:
	// recursive call sites in this very body bind against it.
	r := newResolver(bp.m, fn, bf)
	bc := &bcCompiler{r: r, bf: bf, bp: bp}
	// Temp registers live above the named slots. Resolution fixed the
	// scalar counts; array slots can still grow during emission (lazy
	// entry arrays).
	bc.nI, bc.nF = int32(bf.nInts), int32(bf.nFlts)
	bc.tI, bc.maxI = bc.nI, bc.nI
	bc.tF, bc.maxF = bc.nF, bc.nF
	bc.block(fn.Body)
	bc.emit(Instr{Op: opRetV})
	bc.flushSegs()
	bc.patch()

	bf.code = bc.code
	bf.nInts = int(bc.maxI)
	bf.nFlts = int(bc.maxF)
	bf.pool.New = func() any {
		return &frame{
			ints:  make([]int64, bf.nInts),
			flts:  make([]float64, bf.nFlts),
			cells: make([]*Value, bf.nCells),
			arrs:  make([]*Array, bf.nArrs),
		}
	}
	return bf
}

// bcCompiler emits one function's instruction stream.
type bcCompiler struct {
	r    *resolver
	bf   *bfunc
	bp   *bytecodeProgram
	code []Instr

	// nI/nF count the named int/float slots; registers at or above them
	// are temps. Temp-register watermarks: tI/tF are the next free
	// registers, maxI/maxF the high-water marks that size the frame
	// columns.
	nI, nF   int32
	tI, maxI int32
	tF, maxF int32

	// labels[i] is the resolved pc (or -1) and heads[i] the patch chain
	// through Instr.prev of jumps targeting label i.
	labels []int32
	heads  []int32

	// barrier is the lowest instruction index the peephole pass may still
	// rewrite: every position a jump can land on (a bound label, a
	// parallel-segment entry) raises it, so fusion never merges across a
	// control-flow join.
	barrier int32

	// Loop context: jump labels for break/continue, or -1 at a segment
	// boundary (function top level or parallel-body segment), where
	// break/continue lower to opIterBrk/opIterCnt.
	breaks []int32
	conts  []int32

	// Parallel-body segments queued for emission after the main stream.
	segs []pendingSeg
}

type pendingSeg struct {
	body *cminus.Block
	pidx int
}

func (bc *bcCompiler) emit(in Instr) int32 {
	if i, ok := bc.fuse(in); ok {
		return i
	}
	bc.code = append(bc.code, in)
	return int32(len(bc.code) - 1)
}

// fuse is the emission-time peephole: when the incoming instruction
// consumes the value a just-emitted producer wrote to a dead temp
// register, the pair collapses into one superinstruction in place. Only
// temps qualify (named slots are observable), and nothing fuses across
// bc.barrier (a jump could land between the two). Patterns target the
// corpus hot loops: the subscripted-subscript access a2[a1[i]] itself
// (Gath/Off), float multiply-accumulate, and index arithmetic b*k+c.
func (bc *bcCompiler) fuse(in Instr) (int32, bool) {
	p := int32(len(bc.code)) - 1
	if p < bc.barrier {
		return 0, false
	}
	prev := &bc.code[p]
	switch in.Op {
	case opALoad1I, opALoad1F, opAStore1I, opAStore1F:
		if prev.Op == opALoad1I && prev.A == in.C && prev.A >= bc.nI {
			var op Opcode
			switch in.Op {
			case opALoad1I:
				op = opGathLoadI
			case opALoad1F:
				op = opGathLoadF
			case opAStore1I:
				op = opGathStoreI
			default:
				op = opGathStoreF
			}
			g := Instr{Op: op, A: in.A, B: in.B, C: prev.C, Aux: in.Aux,
				K: int64(prev.B)<<32 | int64(uint32(prev.Aux))}
			// The fused op re-checks outer-nil first, which is exactly
			// what the nil-only probe guarding the inner subscript did —
			// absorb an adjacent probe by writing the fused op into its
			// slot and popping the inner load (labels never point past
			// bc.barrier <= p-1, and neither slot is a jump).
			if p-1 >= bc.barrier {
				if pr := &bc.code[p-1]; pr.Op == opAIdx0 && pr.C == -1 && pr.B == in.B && pr.Aux == in.Aux {
					*pr = g
					bc.code = bc.code[:p]
					return p - 1, true
				}
			}
			*prev = g
			return p, true
		}
		if prev.Op == opALoadI && prev.A == in.C && prev.A >= bc.nI {
			var op Opcode
			switch in.Op {
			case opALoad1I:
				op = opOffLoadI
			case opALoad1F:
				op = opOffLoadF
			case opAStore1I:
				op = opOffStoreI
			default:
				op = opOffStoreF
			}
			*prev = Instr{Op: op, A: in.A, B: in.B, C: prev.C, Aux: in.Aux, K: int64(prev.B)}
			return p, true
		}
	case opFAdd:
		// Accumulate-into-self only: a+b and b+a differ in NaN payload
		// propagation, so the swapped form is not bit-safe to rewrite.
		if in.A == in.B && prev.Op == opFMul && prev.A == in.C && prev.A >= bc.nF {
			// Cascade: when the product's second factor was itself just
			// loaded into a dead temp, fold load+mul+add into one op. The
			// loaded value must be the C operand (order preserved) and must
			// not double as the B operand. Popping code[p] is safe: labels
			// never point past bc.barrier <= p-1, and code[p] is not a jump
			// so no patch chain references it.
			if p-1 >= bc.barrier && prev.B != prev.C && prev.C >= bc.nF {
				switch pr2 := &bc.code[p-1]; {
				case pr2.Op == opALoad1F && pr2.A == prev.C:
					*pr2 = Instr{Op: opFMulAccL, A: in.A, B: prev.B, C: pr2.C,
						Aux: pr2.Aux, K: int64(pr2.B)}
					bc.code = bc.code[:p]
					return p - 1, true
				case pr2.Op == opGathLoadF && pr2.A == prev.C &&
					in.A < 1<<15 && prev.B < 1<<15:
					*pr2 = Instr{Op: opGathMulAccF, A: in.A<<16 | prev.B, B: pr2.B,
						C: pr2.C, Aux: pr2.Aux, K: pr2.K}
					bc.code = bc.code[:p]
					return p - 1, true
				}
			}
			*prev = Instr{Op: opFMulAcc, A: in.A, B: prev.B, C: prev.C}
			return p, true
		}
	case opAIdxN:
		if prev.Op == opAIdx0 && prev.C >= 0 && prev.A == in.A && prev.B == in.B && in.K == 1 {
			*prev = Instr{Op: opAIdx01, A: prev.A, B: prev.B, C: prev.C, Aux: prev.Aux,
				K: prev.K<<32 | int64(uint32(in.C))}
			return p, true
		}
		if prev.Op == opAIdxN && prev.A == in.A && prev.B == in.B && in.K == prev.K+1 {
			*prev = Instr{Op: opAIdxNN, A: prev.A, B: prev.B, C: prev.C, Aux: in.C, K: prev.K}
			return p, true
		}
	case opJILt, opJILe, opJIGt, opJIGe, opJIEq, opJINe:
		// In-place add feeding the left operand: the for-loop back edge
		// i += d; if (i ? n). The add's write is preserved by the fused
		// op, so no dead-temp requirement — only that the incremented
		// slot is the compare's left operand.
		if prev.Op == opIAddK && prev.A == prev.B && prev.A == in.B &&
			prev.K >= -(1<<30) && prev.K < 1<<30 {
			*prev = Instr{Op: in.Op + (opJIncLt - opJILt), A: in.A, B: in.B, C: in.C,
				Aux: int32(prev.K), K: in.K, prev: in.prev}
			return p, true
		}
		// Compare-branch whose right operand was just loaded from a 1-D
		// array into a dead temp: re-load inside the branch op. The
		// rewritten slot becomes a jump, so it must carry the incoming
		// instruction's label (A) and patch chain (prev) verbatim.
		if prev.Op == opALoad1I && prev.A == in.C && prev.A >= bc.nI && prev.A != in.B {
			j := Instr{Op: in.Op + (opJILtA - opJILt), A: in.A, B: in.B, C: prev.C,
				Aux: prev.Aux, K: in.K<<32 | int64(uint32(prev.B)), prev: in.prev}
			// Cascade: the load's index was a dead temp base+literal (the
			// a[i+1] loop-bound shape) — fold the displacement into bits
			// 40-63 of K and pop the add.
			if p-1 >= bc.barrier && prev.C >= bc.nI && prev.C != in.B {
				if pr2 := &bc.code[p-1]; pr2.Op == opIAddK && pr2.A == prev.C &&
					pr2.B != pr2.A && pr2.K >= 0 && pr2.K < 1<<20 {
					j.C = pr2.B
					j.K |= pr2.K << 40
					*pr2 = j
					bc.code = bc.code[:p]
					return p - 1, true
				}
			}
			*prev = j
			return p, true
		}
	case opJIKLt, opJIKLe, opJIKGt, opJIKGe, opJIKEq, opJIKNe:
		// Same back-edge shape with an immediate bound.
		if prev.Op == opIAddK && prev.A == prev.B && prev.A == in.B &&
			prev.K >= -(1<<30) && prev.K < 1<<30 {
			*prev = Instr{Op: in.Op + (opJIKIncLt - opJIKLt), A: in.A, B: in.B, C: in.C,
				Aux: int32(prev.K), K: in.K, prev: in.prev}
			return p, true
		}
	case opIAdd:
		if (prev.Op == opIMul || prev.Op == opIMulK) && prev.A >= bc.nI &&
			(prev.A == in.B) != (prev.A == in.C) {
			other := in.C
			if prev.A == in.C {
				other = in.B
			}
			if prev.Op == opIMul {
				// Cascade: one multiply operand was just loaded from a 1-D
				// array into a dead temp (the a1[i]*k+t index shape) —
				// int multiply is exact and commutative, so the loaded
				// value may take either factor position.
				if p-1 >= bc.barrier {
					mo := prev.C
					if pr2 := &bc.code[p-1]; pr2.Op == opALoad1I && pr2.A >= bc.nI &&
						(pr2.A == prev.B) != (pr2.A == mo) && pr2.A != other {
						if pr2.A == prev.B {
							mo = prev.C
						} else {
							mo = prev.B
						}
						*pr2 = Instr{Op: opIMulAddL, A: in.A, B: mo, C: pr2.C, Aux: other,
							K: int64(pr2.B)<<32 | int64(uint32(pr2.Aux))}
						bc.code = bc.code[:p]
						return p - 1, true
					}
				}
				*prev = Instr{Op: opIMulAdd, A: in.A, B: prev.B, C: prev.C, Aux: other}
			} else {
				*prev = Instr{Op: opIMulKAdd, A: in.A, B: prev.B, C: other, K: prev.K}
			}
			return p, true
		}
	}
	return 0, false
}

func (bc *bcCompiler) here() int32 { return int32(len(bc.code)) }

func (bc *bcCompiler) newLabel() int32 {
	bc.labels = append(bc.labels, -1)
	bc.heads = append(bc.heads, -1)
	return int32(len(bc.labels) - 1)
}

func (bc *bcCompiler) bind(l int32) {
	bc.labels[l] = bc.here()
	bc.barrier = bc.here()
}

// jump emits a branching instruction whose target label is l; the pc is
// filled in by patch(). The label id rides in A until then.
func (bc *bcCompiler) jump(in Instr, l int32) {
	in.A = l
	in.prev = bc.heads[l]
	bc.heads[l] = bc.emit(in)
}

func (bc *bcCompiler) patch() {
	for l, head := range bc.heads {
		pc := bc.labels[l]
		for i := head; i >= 0; {
			next := bc.code[i].prev
			bc.code[i].A = pc
			bc.code[i].prev = 0
			i = next
		}
	}
}

// allocI grabs a fresh int temp register.
func (bc *bcCompiler) allocI() int32 {
	r := bc.tI
	bc.tI++
	if bc.tI > bc.maxI {
		bc.maxI = bc.tI
	}
	return r
}

func (bc *bcCompiler) allocF() int32 {
	r := bc.tF
	bc.tF++
	if bc.tF > bc.maxF {
		bc.maxF = bc.tF
	}
	return r
}

// save/restore bracket a statement or subexpression so its temps recycle.
func (bc *bcCompiler) save() (int32, int32) { return bc.tI, bc.tF }

func (bc *bcCompiler) restore(ti, tf int32) { bc.tI, bc.tF = ti, tf }

// str interns a string into the function's table.
func (bc *bcCompiler) str(s string) int32 {
	for i, have := range bc.bf.strs {
		if have == s {
			return int32(i)
		}
	}
	bc.bf.strs = append(bc.bf.strs, s)
	return int32(len(bc.bf.strs) - 1)
}

// global interns a *Value cell.
func (bc *bcCompiler) global(g *Value) int32 {
	for i, have := range bc.bf.globals {
		if have == g {
			return int32(i)
		}
	}
	bc.bf.globals = append(bc.bf.globals, g)
	return int32(len(bc.bf.globals) - 1)
}

// errOp emits an unconditional runtime error: compile-known failures
// throw lazily, when execution reaches them, as in the tree walker.
func (bc *bcCompiler) errOp(format string, args ...any) {
	bc.emit(Instr{Op: opErr, Aux: bc.str(fmt.Sprintf(format, args...))})
}

// ---- expression emission ----
//
// emitITo/emitFTo compile an expression so that dst is written exactly
// once, by the last instruction of every control path, with all operand
// reads preceding it. That invariant makes "emit straight into the
// target slot" safe for assignments even when the RHS reads the target.

// containsIncDec reports whether evaluating e can write a scalar slot
// (++/-- anywhere in the subtree). Used to decide when a named slot read
// must be copied to a temp before emitting the other operand.
func containsIncDec(e cminus.Expr) bool {
	found := false
	cminus.WalkExprs(e, func(x cminus.Expr) bool {
		if u, ok := x.(*cminus.UnaryExpr); ok && (u.Op == "++" || u.Op == "--") {
			found = true
		}
		return !found
	})
	return found
}

// freezeI copies r to a temp when r is a named int slot and the
// yet-to-be-emitted expression after can mutate scalar slots.
func (bc *bcCompiler) freezeI(r int32, after cminus.Expr) int32 {
	if r < bc.nI && containsIncDec(after) {
		t := bc.allocI()
		bc.emit(Instr{Op: opIMove, A: t, B: r})
		return t
	}
	return r
}

func (bc *bcCompiler) freezeF(r int32, after cminus.Expr) int32 {
	if r < bc.nF && containsIncDec(after) {
		t := bc.allocF()
		bc.emit(Instr{Op: opFMove, A: t, B: r})
		return t
	}
	return r
}

// emitI compiles a statically-int expression and returns the register
// holding its value — the named slot itself for simple local reads.
func (bc *bcCompiler) emitI(e cminus.Expr) int32 {
	if id, ok := e.(*cminus.Ident); ok {
		if s := bc.r.resolveScalar(id.Name); s.kind == syLocalInt {
			return int32(s.idx)
		}
	}
	dst := bc.allocI()
	bc.emitITo(e, dst)
	return dst
}

func (bc *bcCompiler) emitF(e cminus.Expr) int32 {
	if id, ok := e.(*cminus.Ident); ok {
		if s := bc.r.resolveScalar(id.Name); s.kind == syLocalFlt {
			return int32(s.idx)
		}
	}
	dst := bc.allocF()
	bc.emitFTo(e, dst)
	return dst
}

// asIReg compiles e as an int (truncating floats).
func (bc *bcCompiler) asIReg(e cminus.Expr) int32 {
	if bc.r.typeOf(e) == tInt {
		return bc.emitI(e)
	}
	f := bc.emitF(e)
	t := bc.allocI()
	bc.emit(Instr{Op: opF2I, A: t, B: f})
	return t
}

func (bc *bcCompiler) asFReg(e cminus.Expr) int32 {
	if bc.r.typeOf(e) == tFloat {
		return bc.emitF(e)
	}
	i := bc.emitI(e)
	t := bc.allocF()
	bc.emit(Instr{Op: opI2F, A: t, B: i})
	return t
}

func (bc *bcCompiler) asITo(e cminus.Expr, dst int32) {
	if bc.r.typeOf(e) == tInt {
		bc.emitITo(e, dst)
		return
	}
	f := bc.emitF(e)
	bc.emit(Instr{Op: opF2I, A: dst, B: f})
}

func (bc *bcCompiler) asFTo(e cminus.Expr, dst int32) {
	if bc.r.typeOf(e) == tFloat {
		bc.emitFTo(e, dst)
		return
	}
	i := bc.emitI(e)
	bc.emit(Instr{Op: opI2F, A: dst, B: i})
}

func (bc *bcCompiler) emitITo(e cminus.Expr, dst int32) {
	switch x := e.(type) {
	case *cminus.IntLit:
		bc.emit(Instr{Op: opIConst, A: dst, K: x.Val})
	case *cminus.StringLit:
		bc.emit(Instr{Op: opIConst, A: dst})
	case *cminus.Ident:
		bc.scalarReadITo(x, dst)
	case *cminus.BinaryExpr:
		bc.emitBinITo(x, dst)
	case *cminus.UnaryExpr:
		switch x.Op {
		case "-":
			v := bc.emitI(x.X)
			bc.emit(Instr{Op: opINeg, A: dst, B: v})
		case "!":
			bc.emitBoolTo(x, dst)
		case "~":
			v := bc.asIReg(x.X)
			bc.emit(Instr{Op: opIBNot, A: dst, B: v})
		case "++", "--":
			bc.emitIncDecITo(x, dst)
		default:
			bc.errOp("interp: unary %q at %s", x.Op, x.P)
		}
	case *cminus.CondExpr:
		lf, lend := bc.newLabel(), bc.newLabel()
		ti, tf := bc.save()
		bc.emitBranch(x.C, lf, false)
		bc.restore(ti, tf)
		bc.emitITo(x.T, dst)
		bc.jump(Instr{Op: opJump}, lend)
		bc.bind(lf)
		bc.restore(ti, tf)
		bc.emitITo(x.F, dst)
		bc.bind(lend)
	case *cminus.IndexExpr:
		bc.arrayReadTo(x, dst, false)
	case *cminus.CallExpr:
		bc.emitCallTo(x, tInt, dst)
	case *cminus.CastExpr:
		bc.asITo(x.X, dst)
	default:
		bc.errOp("interp: unsupported expression %T at %s", e, e.Pos())
	}
}

func (bc *bcCompiler) emitFTo(e cminus.Expr, dst int32) {
	switch x := e.(type) {
	case *cminus.FloatLit:
		var v float64
		if _, err := fmt.Sscanf(x.Text, "%g", &v); err != nil {
			bc.errOp("interp: bad float %q", x.Text)
			return
		}
		bc.emit(Instr{Op: opFConst, A: dst, KF: v})
		return
	case *cminus.Ident:
		bc.scalarReadFTo(x, dst)
		return
	case *cminus.BinaryExpr:
		var op Opcode
		switch x.Op {
		case "+":
			op = opFAdd
		case "-":
			op = opFSub
		case "*":
			op = opFMul
		case "/":
			op = opFDiv
		}
		if op != opNop {
			l := bc.freezeF(bc.asFReg(x.X), x.Y)
			r := bc.asFReg(x.Y)
			bc.emit(Instr{Op: op, A: dst, B: l, C: r})
			return
		}
	case *cminus.UnaryExpr:
		switch x.Op {
		case "-":
			v := bc.emitF(x.X)
			bc.emit(Instr{Op: opFNeg, A: dst, B: v})
			return
		case "++", "--":
			bc.emitIncDecFTo(x, dst)
			return
		}
	case *cminus.CondExpr:
		lf, lend := bc.newLabel(), bc.newLabel()
		ti, tf := bc.save()
		bc.emitBranch(x.C, lf, false)
		bc.restore(ti, tf)
		bc.asFTo(x.T, dst)
		bc.jump(Instr{Op: opJump}, lend)
		bc.bind(lf)
		bc.restore(ti, tf)
		bc.asFTo(x.F, dst)
		bc.bind(lend)
		return
	case *cminus.IndexExpr:
		bc.arrayReadTo(x, dst, true)
		return
	case *cminus.CallExpr:
		bc.emitCallTo(x, tFloat, dst)
		return
	case *cminus.CastExpr:
		bc.asFTo(x.X, dst)
		return
	}
	// A statically-int expression requested in float context.
	i := bc.emitI(e)
	bc.emit(Instr{Op: opI2F, A: dst, B: i})
}

// emitBinITo compiles an int-context binary expression.
func (bc *bcCompiler) emitBinITo(x *cminus.BinaryExpr, dst int32) {
	switch x.Op {
	case "+", "-", "*", "/":
		// Statically int on both sides (int context + promotion).
		if x.Op == "+" || x.Op == "-" {
			if lit, ok := x.Y.(*cminus.IntLit); ok {
				k := lit.Val
				if x.Op == "-" {
					k = -k
				}
				l := bc.emitI(x.X)
				bc.emit(Instr{Op: opIAddK, A: dst, B: l, K: k})
				return
			}
		}
		// A literal operand folds into an immediate form; evaluating the
		// literal out of source order is unobservable.
		if x.Op == "+" {
			if lit, ok := x.X.(*cminus.IntLit); ok {
				r := bc.emitI(x.Y)
				bc.emit(Instr{Op: opIAddK, A: dst, B: r, K: lit.Val})
				return
			}
		}
		if x.Op == "*" {
			if lit, ok := x.Y.(*cminus.IntLit); ok {
				l := bc.emitI(x.X)
				bc.emit(Instr{Op: opIMulK, A: dst, B: l, K: lit.Val})
				return
			}
			if lit, ok := x.X.(*cminus.IntLit); ok {
				r := bc.emitI(x.Y)
				bc.emit(Instr{Op: opIMulK, A: dst, B: r, K: lit.Val})
				return
			}
		}
		var op Opcode
		switch x.Op {
		case "+":
			op = opIAdd
		case "-":
			op = opISub
		case "*":
			op = opIMul
		default:
			op = opIDiv
		}
		l := bc.freezeI(bc.emitI(x.X), x.Y)
		r := bc.emitI(x.Y)
		bc.emit(Instr{Op: op, A: dst, B: l, C: r})
	case "%":
		l := bc.freezeI(bc.asIReg(x.X), x.Y)
		r := bc.asIReg(x.Y)
		bc.emit(Instr{Op: opIMod, A: dst, B: l, C: r})
	case "<", "<=", ">", ">=", "==", "!=":
		bc.emitCmpTo(x, dst)
	case "&&", "||":
		bc.emitBoolTo(x, dst)
	case "&", "|", "^", "<<", ">>":
		var op Opcode
		switch x.Op {
		case "&":
			op = opIAnd
		case "|":
			op = opIOr
		case "^":
			op = opIXor
		case "<<":
			op = opIShl
		default:
			op = opIShr
		}
		l := bc.freezeI(bc.asIReg(x.X), x.Y)
		r := bc.asIReg(x.Y)
		bc.emit(Instr{Op: op, A: dst, B: l, C: r})
	default:
		bc.errOp("interp: unsupported operator %q at %s", x.Op, x.P)
	}
}

// emitCmpTo materializes a comparison as 0/1 via the dedicated compare
// opcodes (no branches in value context).
func (bc *bcCompiler) emitCmpTo(x *cminus.BinaryExpr, dst int32) {
	if promoteTyp(bc.r.typeOf(x.X), bc.r.typeOf(x.Y)) == tFloat {
		l := bc.freezeF(bc.asFReg(x.X), x.Y)
		r := bc.asFReg(x.Y)
		var op Opcode
		switch x.Op {
		case "<":
			op = opFLt
		case "<=":
			op = opFLe
		case ">":
			op = opFGt
		case ">=":
			op = opFGe
		case "==":
			op = opFEq
		default:
			op = opFNe
		}
		bc.emit(Instr{Op: op, A: dst, B: l, C: r})
		return
	}
	l := bc.freezeI(bc.asIReg(x.X), x.Y)
	r := bc.asIReg(x.Y)
	var op Opcode
	switch x.Op {
	case "<":
		op = opILt
	case "<=":
		op = opILe
	case ">":
		op = opIGt
	case ">=":
		op = opIGe
	case "==":
		op = opIEq
	default:
		op = opINe
	}
	bc.emit(Instr{Op: op, A: dst, B: l, C: r})
}

// emitBoolTo materializes a boolean-context expression (&&, ||, !) as
// 0/1 using branch emission, preserving short-circuit evaluation.
func (bc *bcCompiler) emitBoolTo(e cminus.Expr, dst int32) {
	lf, lend := bc.newLabel(), bc.newLabel()
	bc.emitBranch(e, lf, false)
	bc.emit(Instr{Op: opIConst, A: dst, K: 1})
	bc.jump(Instr{Op: opJump}, lend)
	bc.bind(lf)
	bc.emit(Instr{Op: opIConst, A: dst})
	bc.bind(lend)
}

// emitBranch emits a conditional jump to target when e's truthiness
// equals jumpIfTrue, short-circuiting && and || and fusing integer
// comparisons into compare-branch instructions.
func (bc *bcCompiler) emitBranch(e cminus.Expr, target int32, jumpIfTrue bool) {
	switch x := e.(type) {
	case *cminus.BinaryExpr:
		switch x.Op {
		case "&&":
			if jumpIfTrue {
				l := bc.newLabel()
				bc.emitBranch(x.X, l, false)
				bc.emitBranch(x.Y, target, true)
				bc.bind(l)
			} else {
				bc.emitBranch(x.X, target, false)
				bc.emitBranch(x.Y, target, false)
			}
			return
		case "||":
			if jumpIfTrue {
				bc.emitBranch(x.X, target, true)
				bc.emitBranch(x.Y, target, true)
			} else {
				l := bc.newLabel()
				bc.emitBranch(x.X, l, true)
				bc.emitBranch(x.Y, target, false)
				bc.bind(l)
			}
			return
		case "<", "<=", ">", ">=", "==", "!=":
			if promoteTyp(bc.r.typeOf(x.X), bc.r.typeOf(x.Y)) == tFloat {
				// Float comparisons materialize (NaN makes negated
				// compare-branches unsound), then branch on the bit.
				t := bc.allocI()
				bc.emitCmpTo(x, t)
				bc.jump(Instr{Op: opJNZ, B: t, K: b2i(!jumpIfTrue)}, target)
				return
			}
			l := bc.freezeI(bc.asIReg(x.X), x.Y)
			if lit, ok := x.Y.(*cminus.IntLit); ok {
				var op Opcode
				switch x.Op {
				case "<":
					op = opJIKLt
				case "<=":
					op = opJIKLe
				case ">":
					op = opJIKGt
				case ">=":
					op = opJIKGe
				case "==":
					op = opJIKEq
				default:
					op = opJIKNe
				}
				bc.jump(Instr{Op: op, B: l, C: int32(b2i(!jumpIfTrue)), K: lit.Val}, target)
				return
			}
			r := bc.asIReg(x.Y)
			var op Opcode
			switch x.Op {
			case "<":
				op = opJILt
			case "<=":
				op = opJILe
			case ">":
				op = opJIGt
			case ">=":
				op = opJIGe
			case "==":
				op = opJIEq
			default:
				op = opJINe
			}
			bc.jump(Instr{Op: op, B: l, C: r, K: b2i(!jumpIfTrue)}, target)
			return
		}
	case *cminus.UnaryExpr:
		if x.Op == "!" {
			bc.emitBranch(x.X, target, !jumpIfTrue)
			return
		}
	}
	if bc.r.typeOf(e) == tFloat {
		r := bc.emitF(e)
		bc.jump(Instr{Op: opJFNZ, B: r, K: b2i(!jumpIfTrue)}, target)
		return
	}
	r := bc.emitI(e)
	bc.jump(Instr{Op: opJNZ, B: r, K: b2i(!jumpIfTrue)}, target)
}

// ---- scalar access ----

func (bc *bcCompiler) scalarReadITo(id *cminus.Ident, dst int32) {
	s := bc.r.resolveScalar(id.Name)
	switch s.kind {
	case syLocalInt:
		bc.emit(Instr{Op: opIMove, A: dst, B: int32(s.idx)})
	case syLocalFlt:
		bc.emit(Instr{Op: opF2I, A: dst, B: int32(s.idx)})
	case syGlobal:
		if s.float {
			t := bc.allocF()
			bc.emit(Instr{Op: opGetGF, A: t, Aux: bc.global(s.g)})
			bc.emit(Instr{Op: opF2I, A: dst, B: t})
		} else {
			bc.emit(Instr{Op: opGetGI, A: dst, Aux: bc.global(s.g)})
		}
	case syCell:
		if s.float {
			t := bc.allocF()
			bc.emit(Instr{Op: opGetCF, A: t, B: int32(s.idx)})
			bc.emit(Instr{Op: opF2I, A: dst, B: t})
		} else {
			bc.emit(Instr{Op: opGetCI, A: dst, B: int32(s.idx)})
		}
	default:
		bc.errOp("interp: unbound variable %q at %s", id.Name, id.P)
	}
}

func (bc *bcCompiler) scalarReadFTo(id *cminus.Ident, dst int32) {
	s := bc.r.resolveScalar(id.Name)
	switch s.kind {
	case syLocalFlt:
		bc.emit(Instr{Op: opFMove, A: dst, B: int32(s.idx)})
	case syLocalInt:
		bc.emit(Instr{Op: opI2F, A: dst, B: int32(s.idx)})
	case syGlobal:
		if s.float {
			bc.emit(Instr{Op: opGetGF, A: dst, Aux: bc.global(s.g)})
		} else {
			t := bc.allocI()
			bc.emit(Instr{Op: opGetGI, A: t, Aux: bc.global(s.g)})
			bc.emit(Instr{Op: opI2F, A: dst, B: t})
		}
	case syCell:
		if s.float {
			bc.emit(Instr{Op: opGetCF, A: dst, B: int32(s.idx)})
		} else {
			t := bc.allocI()
			bc.emit(Instr{Op: opGetCI, A: t, B: int32(s.idx)})
			bc.emit(Instr{Op: opI2F, A: dst, B: t})
		}
	default:
		bc.errOp("interp: unbound variable %q at %s", id.Name, id.P)
	}
}

// scalarStore compiles "s = rhs" with the RHS at the target's type,
// which matches the tree walker's convert-to-cell-type assignment rule
// (an unbound target, which resolution never produces for an assignment,
// throws without evaluating the RHS).
func (bc *bcCompiler) scalarStore(s *scalarSym, rhs cminus.Expr) {
	switch s.kind {
	case syLocalInt:
		bc.asITo(rhs, int32(s.idx))
	case syLocalFlt:
		bc.asFTo(rhs, int32(s.idx))
	case syGlobal:
		if s.g.Float {
			t := bc.allocF()
			bc.asFTo(rhs, t)
			bc.emit(Instr{Op: opSetGF, A: t, Aux: bc.global(s.g)})
		} else {
			t := bc.allocI()
			bc.asITo(rhs, t)
			bc.emit(Instr{Op: opSetGI, A: t, Aux: bc.global(s.g)})
		}
	case syCell:
		if s.float {
			t := bc.allocF()
			bc.asFTo(rhs, t)
			bc.emit(Instr{Op: opSetCF, A: t, B: int32(s.idx)})
		} else {
			t := bc.allocI()
			bc.asITo(rhs, t)
			bc.emit(Instr{Op: opSetCI, A: t, B: int32(s.idx)})
		}
	default:
		bc.errOp("interp: unbound variable %q", s.name)
	}
}

// refLoadI/refStoreI are the raw int load/store emitters for compound
// assignment and ++/--. refLoadI returns false for the kinds it rejects
// (float locals, unbound), which throw at runtime.
func (bc *bcCompiler) refLoadI(s *scalarSym, dst int32) bool {
	switch s.kind {
	case syLocalInt:
		bc.emit(Instr{Op: opIMove, A: dst, B: int32(s.idx)})
	case syGlobal:
		bc.emit(Instr{Op: opGetGI, A: dst, Aux: bc.global(s.g)})
	case syCell:
		bc.emit(Instr{Op: opGetCI, A: dst, B: int32(s.idx)})
	default:
		return false
	}
	return true
}

func (bc *bcCompiler) refStoreI(s *scalarSym, src int32) {
	switch s.kind {
	case syLocalInt:
		bc.emit(Instr{Op: opIMove, A: int32(s.idx), B: src})
	case syGlobal:
		bc.emit(Instr{Op: opSetGI, A: src, Aux: bc.global(s.g)})
	case syCell:
		bc.emit(Instr{Op: opSetCI, A: src, B: int32(s.idx)})
	}
}

func (bc *bcCompiler) refLoadF(s *scalarSym, dst int32) bool {
	switch s.kind {
	case syLocalFlt:
		bc.emit(Instr{Op: opFMove, A: dst, B: int32(s.idx)})
	case syGlobal:
		bc.emit(Instr{Op: opGetGF, A: dst, Aux: bc.global(s.g)})
	case syCell:
		bc.emit(Instr{Op: opGetCF, A: dst, B: int32(s.idx)})
	default:
		return false
	}
	return true
}

func (bc *bcCompiler) refStoreF(s *scalarSym, src int32) {
	switch s.kind {
	case syLocalFlt:
		bc.emit(Instr{Op: opFMove, A: int32(s.idx), B: src})
	case syGlobal:
		bc.emit(Instr{Op: opSetGF, A: src, Aux: bc.global(s.g)})
	case syCell:
		bc.emit(Instr{Op: opSetCF, A: src, B: int32(s.idx)})
	}
}

func (bc *bcCompiler) emitIncDecITo(x *cminus.UnaryExpr, dst int32) {
	id, ok := x.X.(*cminus.Ident)
	if !ok {
		bc.errOp("interp: %s on non-identifier at %s", x.Op, x.P)
		return
	}
	s := bc.r.resolveScalar(id.Name)
	delta := int64(1)
	if x.Op == "--" {
		delta = -1
	}
	// Fast path: local int slot, updated in place.
	if s.kind == syLocalInt {
		slot := int32(s.idx)
		if x.Postfix {
			t := bc.allocI()
			bc.emit(Instr{Op: opIMove, A: t, B: slot})
			bc.emit(Instr{Op: opIAddK, A: slot, B: slot, K: delta})
			bc.emit(Instr{Op: opIMove, A: dst, B: t})
		} else {
			bc.emit(Instr{Op: opIAddK, A: slot, B: slot, K: delta})
			bc.emit(Instr{Op: opIMove, A: dst, B: slot})
		}
		return
	}
	old := bc.allocI()
	if !bc.refLoadI(s, old) {
		bc.errOp("interp: unbound %q at %s", id.Name, x.P)
		return
	}
	nv := bc.allocI()
	bc.emit(Instr{Op: opIAddK, A: nv, B: old, K: delta})
	bc.refStoreI(s, nv)
	if x.Postfix {
		bc.emit(Instr{Op: opIMove, A: dst, B: old})
	} else {
		bc.emit(Instr{Op: opIMove, A: dst, B: nv})
	}
}

func (bc *bcCompiler) emitIncDecFTo(x *cminus.UnaryExpr, dst int32) {
	id, ok := x.X.(*cminus.Ident)
	if !ok {
		bc.errOp("interp: %s on non-identifier at %s", x.Op, x.P)
		return
	}
	s := bc.r.resolveScalar(id.Name)
	delta := float64(1)
	if x.Op == "--" {
		delta = -1
	}
	old := bc.allocF()
	if !bc.refLoadF(s, old) {
		bc.errOp("interp: unbound %q at %s", id.Name, x.P)
		return
	}
	d := bc.allocF()
	bc.emit(Instr{Op: opFConst, A: d, KF: delta})
	nv := bc.allocF()
	bc.emit(Instr{Op: opFAdd, A: nv, B: old, C: d})
	bc.refStoreF(s, nv)
	if x.Postfix {
		bc.emit(Instr{Op: opFMove, A: dst, B: old})
	} else {
		bc.emit(Instr{Op: opFMove, A: dst, B: nv})
	}
}

// ---- array access ----

// pureExpr reports whether evaluating e can neither throw nor write any
// state, making its evaluation order unobservable. Used to elide the
// standalone nil/rank pre-check (opARank ordering) before subscripts.
func (bc *bcCompiler) pureExpr(e cminus.Expr) bool {
	switch x := e.(type) {
	case *cminus.IntLit, *cminus.StringLit:
		return true
	case *cminus.FloatLit:
		var v float64
		_, err := fmt.Sscanf(x.Text, "%g", &v)
		return err == nil // a malformed literal throws "bad float"
	case *cminus.Ident:
		return bc.r.resolveScalar(x.Name).kind != syUnbound
	case *cminus.BinaryExpr:
		switch x.Op {
		case "/", "%":
			return false // division by zero throws
		}
		return bc.pureExpr(x.X) && bc.pureExpr(x.Y)
	case *cminus.UnaryExpr:
		switch x.Op {
		case "-", "!", "~":
			return bc.pureExpr(x.X)
		}
		return false // ++/-- mutate; unknown operators throw
	case *cminus.CondExpr:
		return bc.pureExpr(x.C) && bc.pureExpr(x.T) && bc.pureExpr(x.F)
	case *cminus.CastExpr:
		return bc.pureExpr(x.X)
	}
	return false // index (bounds), call (anything)
}

// arrayAddr emits the addressing code of an IndexExpr and returns the
// array slot, whether the fused 1-D forms apply, and the register
// holding the index (1-D) or flattened offset (multi-dim). ok=false
// means an unsupported index shape whose error was already emitted.
//
// Evaluation-order contract (mirroring the tree walker): the unknown-
// array check precedes subscript evaluation, and rank and bounds checks
// follow all of it. When a subscript can itself throw, that ordering is
// preserved by a nil-only opAIdx0 probe ahead of the subscripts; for
// pure subscripts the order is unobservable and the fused forms check
// everything themselves.
func (bc *bcCompiler) arrayAddr(e *cminus.IndexExpr, pos cminus.Position) (slot int32, one bool, idx int32, aux int32, ok bool) {
	name, idxExprs, shapeOK := cminus.ArrayBase(e)
	if !shapeOK {
		bc.errOp("interp: unsupported index expression at %s", e.P)
		return 0, false, 0, 0, false
	}
	sym := bc.r.entryArray(name)
	slot = int32(sym.slot)
	aux = bc.str(fmt.Sprintf("interp: unknown array %q at %s", name, pos))
	if len(idxExprs) == 1 {
		if !bc.pureExpr(idxExprs[0]) {
			// Preserve the "unknown array" error before subscript
			// evaluation effects via a nil-only probe; rank and bounds
			// check at the consuming fused op, after the subscript.
			bc.emit(Instr{Op: opAIdx0, A: bc.allocI(), B: slot, C: -1, K: 1, Aux: aux})
		}
		ix := bc.asIReg(idxExprs[0])
		return slot, true, ix, aux, true
	}
	rank := int64(len(idxExprs))
	off := bc.allocI()
	impure := false
	for _, ie := range idxExprs {
		if !bc.pureExpr(ie) {
			impure = true
			break
		}
	}
	if impure {
		// Tree-walker order: the unknown-array check precedes subscript
		// evaluation; rank and bounds checks follow all of it (the
		// opAIdx0/opAIdxN chain emitted after the subscripts below).
		bc.emit(Instr{Op: opAIdx0, A: off, B: slot, C: -1, K: rank, Aux: aux})
	}
	regs := make([]int32, len(idxExprs))
	for d, ie := range idxExprs {
		r := bc.asIReg(ie)
		// The register is consumed only after every subscript evaluated:
		// copy named slots a later subscript may mutate.
		for _, later := range idxExprs[d+1:] {
			r = bc.freezeI(r, later)
		}
		regs[d] = r
	}
	bc.emit(Instr{Op: opAIdx0, A: off, B: slot, C: regs[0], K: rank, Aux: aux})
	for d := 1; d < len(idxExprs); d++ {
		bc.emit(Instr{Op: opAIdxN, A: off, B: slot, C: regs[d], K: int64(d)})
	}
	return slot, false, off, aux, true
}

func (bc *bcCompiler) arrayReadTo(e *cminus.IndexExpr, dst int32, wantFloat bool) {
	slot, one, idx, aux, ok := bc.arrayAddr(e, e.P)
	if !ok {
		return
	}
	op := opALoadI
	switch {
	case one && wantFloat:
		op = opALoad1F
	case one:
		op = opALoad1I
	case wantFloat:
		op = opALoadF
	}
	bc.emit(Instr{Op: op, A: dst, B: slot, C: idx, Aux: aux})
}

// ---- calls ----

func (bc *bcCompiler) emitCallTo(x *cminus.CallExpr, want ctyp, dst int32) {
	if fn := bc.r.m.Prog.Func(x.Fun); fn != nil && fn.Body != nil {
		bc.emitUserCallTo(x, fn, want, dst)
		return
	}
	// Builtins: every argument evaluates as float, in order; arity
	// errors fire after argument evaluation, keeping dead calls inert.
	args := make([]int32, len(x.Args))
	for i, a := range x.Args {
		t := bc.allocF()
		bc.asFTo(a, t)
		args[i] = t
	}
	switch {
	case x.Fun == "abs":
		if len(args) != 1 {
			bc.errOp("interp: %s expects %d args", x.Fun, 1)
			return
		}
		if want == tInt {
			bc.emit(Instr{Op: opAbs, A: dst, B: args[0]})
			return
		}
		t := bc.allocI()
		bc.emit(Instr{Op: opAbs, A: t, B: args[0]})
		bc.emit(Instr{Op: opI2F, A: dst, B: t})
	case builtins1[x.Fun] != nil:
		if len(args) != 1 {
			bc.errOp("interp: %s expects %d args", x.Fun, 1)
			return
		}
		bc.bf.b1 = append(bc.bf.b1, builtins1[x.Fun])
		bi := int32(len(bc.bf.b1) - 1)
		if want == tInt {
			t := bc.allocF()
			bc.emit(Instr{Op: opB1, A: t, B: args[0], Aux: bi})
			bc.emit(Instr{Op: opF2I, A: dst, B: t})
			return
		}
		bc.emit(Instr{Op: opB1, A: dst, B: args[0], Aux: bi})
	case builtins2[x.Fun] != nil:
		if len(args) != 2 {
			bc.errOp("interp: %s expects %d args", x.Fun, 2)
			return
		}
		bc.bf.b2 = append(bc.bf.b2, builtins2[x.Fun])
		bi := int32(len(bc.bf.b2) - 1)
		if want == tInt {
			t := bc.allocF()
			bc.emit(Instr{Op: opB2, A: t, B: args[0], C: args[1], Aux: bi})
			bc.emit(Instr{Op: opF2I, A: dst, B: t})
			return
		}
		bc.emit(Instr{Op: opB2, A: dst, B: args[0], C: args[1], Aux: bi})
	default:
		bc.errOp("interp: unknown function %q", x.Fun)
	}
}

func (bc *bcCompiler) emitUserCallTo(x *cminus.CallExpr, fn *cminus.FuncDecl, want ctyp, dst int32) {
	if len(x.Args) != len(fn.Params) {
		bc.errOp("interp: %s expects %d args, got %d at %s",
			fn.Name, len(fn.Params), len(x.Args), x.P)
		return
	}
	callee := bc.bp.ensure(fn)
	binds := make([]vbind, 0, len(fn.Params))
	for i := range fn.Params {
		ps := callee.params[i]
		switch ps.kind {
		case psArr:
			id, ok := x.Args[i].(*cminus.Ident)
			if !ok {
				// Matches the tree walker's bind-time error: earlier
				// bindings (argument effects) have already run.
				bc.errOp("interp: array argument %d of %s must be an identifier at %s",
					i, fn.Name, x.P)
				return
			}
			src := bc.r.entryArray(id.Name)
			bc.emit(Instr{Op: opACheck, B: int32(src.slot),
				Aux: bc.str(fmt.Sprintf("interp: unknown array %q passed to %s at %s", id.Name, fn.Name, x.P))})
			binds = append(binds, vbind{kind: psArr, src: int32(src.slot), dst: int32(ps.idx)})
		case psFlt:
			t := bc.allocF()
			bc.asFTo(x.Args[i], t)
			binds = append(binds, vbind{kind: psFlt, src: t, dst: int32(ps.idx)})
		default:
			t := bc.allocI()
			bc.asITo(x.Args[i], t)
			binds = append(binds, vbind{kind: psInt, src: t, dst: int32(ps.idx)})
		}
	}
	bc.bf.calls = append(bc.bf.calls, vcall{
		callee:   callee,
		binds:    binds,
		retFloat: cminus.IsFloatType(fn.RetType),
	})
	bc.emit(Instr{Op: opCallU, A: dst, Aux: int32(len(bc.bf.calls) - 1), K: b2i(want == tFloat)})
}

// ---- statements ----

func (bc *bcCompiler) block(b *cminus.Block) {
	for _, s := range b.Stmts {
		ti, tf := bc.save()
		bc.stmt(s)
		bc.restore(ti, tf)
	}
}

func (bc *bcCompiler) stmt(s cminus.Stmt) {
	switch x := s.(type) {
	case *cminus.DeclStmt:
		bc.decl(x)
	case *cminus.AssignStmt:
		bc.assign(x)
	case *cminus.ExprStmt:
		// Statement-position ++/-- on a local int slot discards its value:
		// one in-place add replaces the copy/move sequence.
		if u, ok := x.X.(*cminus.UnaryExpr); ok && (u.Op == "++" || u.Op == "--") {
			if id, ok := u.X.(*cminus.Ident); ok {
				if s := bc.r.resolveScalar(id.Name); s.kind == syLocalInt {
					delta := int64(1)
					if u.Op == "--" {
						delta = -1
					}
					slot := int32(s.idx)
					bc.emit(Instr{Op: opIAddK, A: slot, B: slot, K: delta})
					return
				}
			}
		}
		if bc.r.typeOf(x.X) == tFloat {
			bc.emitF(x.X)
		} else {
			bc.emitI(x.X)
		}
	case *cminus.IfStmt:
		if x.Else == nil {
			lend := bc.newLabel()
			bc.emitBranch(x.Cond, lend, false)
			bc.block(x.Then)
			bc.bind(lend)
			return
		}
		lelse, lend := bc.newLabel(), bc.newLabel()
		bc.emitBranch(x.Cond, lelse, false)
		bc.block(x.Then)
		bc.jump(Instr{Op: opJump}, lend)
		bc.bind(lelse)
		bc.stmt(x.Else)
		bc.bind(lend)
	case *cminus.ForStmt:
		bc.emitFor(x)
	case *cminus.WhileStmt:
		// Rotated (condition first, then the interrupt poll, then the
		// body): the entry guard tests the condition once, the bottom
		// branch re-tests it and jumps back if still true. continue lands
		// on the bottom test, so each pass is still cond → poll → body —
		// only the opJump per iteration is gone. The dynamic test count
		// is identical to the unrotated form.
		ltop, lcond, lend := bc.newLabel(), bc.newLabel(), bc.newLabel()
		ti, tf := bc.save()
		bc.emitBranch(x.Cond, lend, false)
		bc.restore(ti, tf)
		bc.bind(ltop)
		bc.emit(Instr{Op: opEdge})
		bc.breaks = append(bc.breaks, lend)
		bc.conts = append(bc.conts, lcond)
		bc.block(x.Body)
		bc.breaks = bc.breaks[:len(bc.breaks)-1]
		bc.conts = bc.conts[:len(bc.conts)-1]
		bc.bind(lcond)
		ti, tf = bc.save()
		bc.emitBranch(x.Cond, ltop, true)
		bc.restore(ti, tf)
		bc.bind(lend)
	case *cminus.Block:
		bc.block(x)
	case *cminus.ReturnStmt:
		if x.X == nil {
			bc.emit(Instr{Op: opRetV})
			return
		}
		if bc.r.typeOf(x.X) == tFloat {
			r := bc.emitF(x.X)
			bc.emit(Instr{Op: opRetF, A: r})
			return
		}
		r := bc.emitI(x.X)
		bc.emit(Instr{Op: opRetI, A: r})
	case *cminus.BreakStmt:
		bc.emitBreak()
	case *cminus.ContinueStmt:
		bc.emitCont()
	}
}

// emitBreak/emitCont jump within the current loop, or lower to the
// segment-control opcodes at a segment boundary (function top level, or
// a parallel-body segment where the control propagates to the worker).
func (bc *bcCompiler) emitBreak() {
	if n := len(bc.breaks); n > 0 && bc.breaks[n-1] >= 0 {
		bc.jump(Instr{Op: opJump}, bc.breaks[n-1])
		return
	}
	bc.emit(Instr{Op: opIterBrk})
}

func (bc *bcCompiler) emitCont() {
	if n := len(bc.conts); n > 0 && bc.conts[n-1] >= 0 {
		bc.jump(Instr{Op: opJump}, bc.conts[n-1])
		return
	}
	bc.emit(Instr{Op: opIterCnt})
}

func (bc *bcCompiler) decl(x *cminus.DeclStmt) {
	isFloat := cminus.IsFloatType(x.Type)
	for _, it := range x.Items {
		ti, tf := bc.save()
		if len(it.Dims) > 0 || it.PtrDeep > 0 {
			sym := bc.r.arrays[it.Name]
			base := bc.tI
			for range it.Dims {
				bc.allocI()
			}
			for i, d := range it.Dims {
				bc.asITo(d, base+int32(i))
			}
			fl := int32(0)
			if isFloat {
				fl = 1
			}
			bc.emit(Instr{Op: opANew, A: int32(sym.slot), B: base, C: fl,
				K: int64(len(it.Dims)), Aux: bc.str(it.Name)})
			bc.restore(ti, tf)
			continue
		}
		s := bc.r.scalars[it.Name]
		init := it.Init
		if init == nil {
			init = &cminus.IntLit{Val: 0}
		}
		bc.scalarStore(s, init)
		bc.restore(ti, tf)
	}
}

// emitIntCombine emits dst = op(a, b) at int type (zero-checked / and %).
func (bc *bcCompiler) emitIntCombine(dst, a, b int32, op string) {
	var code Opcode
	switch op {
	case "+":
		code = opIAdd
	case "-":
		code = opISub
	case "*":
		code = opIMul
	case "/":
		code = opIDiv
	case "%":
		code = opIMod
	default:
		bc.errOp("interp: unsupported operator %q", op)
		return
	}
	bc.emit(Instr{Op: code, A: dst, B: a, C: b})
}

func (bc *bcCompiler) emitFloatCombine(dst, a, b int32, op string) {
	var code Opcode
	switch op {
	case "+":
		code = opFAdd
	case "-":
		code = opFSub
	case "*":
		code = opFMul
	case "/":
		code = opFDiv
	default:
		bc.errOp("interp: unsupported operator %q", op)
		return
	}
	bc.emit(Instr{Op: code, A: dst, B: a, C: b})
}

func (bc *bcCompiler) assign(x *cminus.AssignStmt) {
	if id, ok := x.LHS.(*cminus.Ident); ok {
		s := bc.r.resolveScalar(id.Name)
		if x.Op == "" {
			bc.scalarStore(s, x.RHS)
			return
		}
		// Compound op: RHS evaluates first (tree-walker order), the
		// combine runs at the promoted type (always int for %), and the
		// store converts back to the target's type.
		if x.Op == "%" || (s.typ() == tInt && bc.r.typeOf(x.RHS) == tInt) {
			r := bc.allocI()
			bc.asITo(x.RHS, r)
			if s.typ() == tFloat {
				oldF := bc.allocF()
				if !bc.refLoadF(s, oldF) {
					bc.errOp("interp: unbound %q at %s", id.Name, x.P)
					return
				}
				oldI := bc.allocI()
				bc.emit(Instr{Op: opF2I, A: oldI, B: oldF})
				res := bc.allocI()
				bc.emitIntCombine(res, oldI, r, x.Op)
				resF := bc.allocF()
				bc.emit(Instr{Op: opI2F, A: resF, B: res})
				bc.refStoreF(s, resF)
				return
			}
			if s.kind == syLocalInt {
				// The slot is source and destination: combine in place,
				// skipping the load and store moves.
				bc.emitIntCombine(int32(s.idx), int32(s.idx), r, x.Op)
				return
			}
			old := bc.allocI()
			if !bc.refLoadI(s, old) {
				bc.errOp("interp: unbound %q at %s", id.Name, x.P)
				return
			}
			res := bc.allocI()
			bc.emitIntCombine(res, old, r, x.Op)
			bc.refStoreI(s, res)
			return
		}
		r := bc.allocF()
		bc.asFTo(x.RHS, r)
		if s.typ() == tInt {
			old := bc.allocI()
			if !bc.refLoadI(s, old) {
				bc.errOp("interp: unbound %q at %s", id.Name, x.P)
				return
			}
			oldF := bc.allocF()
			bc.emit(Instr{Op: opI2F, A: oldF, B: old})
			res := bc.allocF()
			bc.emitFloatCombine(res, oldF, r, x.Op)
			resI := bc.allocI()
			bc.emit(Instr{Op: opF2I, A: resI, B: res})
			bc.refStoreI(s, resI)
			return
		}
		if s.kind == syLocalFlt {
			bc.emitFloatCombine(int32(s.idx), int32(s.idx), r, x.Op)
			return
		}
		old := bc.allocF()
		if !bc.refLoadF(s, old) {
			bc.errOp("interp: unbound %q at %s", id.Name, x.P)
			return
		}
		res := bc.allocF()
		bc.emitFloatCombine(res, old, r, x.Op)
		bc.refStoreF(s, res)
		return
	}
	ix, ok := x.LHS.(*cminus.IndexExpr)
	if ok {
		if _, _, shaped := cminus.ArrayBase(ix); !shaped {
			ok = false
		}
	}
	if !ok {
		// Tree-walker order: the RHS evaluates (and may itself error)
		// before the target is rejected.
		if bc.r.typeOf(x.RHS) == tFloat {
			bc.emitF(x.RHS)
		} else {
			bc.emitI(x.RHS)
		}
		bc.errOp("interp: unsupported assignment target at %s", x.P)
		return
	}
	if x.Op != "" {
		switch x.Op {
		case "+", "-", "*", "/", "%":
		default:
			// Unknown combine: evaluate the RHS and the address, then
			// reject the operator.
			if bc.r.typeOf(x.RHS) == tFloat {
				bc.emitF(x.RHS)
			} else {
				bc.emitI(x.RHS)
			}
			slot, one, idx, aux, okA := bc.arrayAddr(ix, x.P)
			if okA && one {
				// 1-D addressing defers rank/bounds to the consuming
				// fused op; none follows here, so check explicitly —
				// those errors precede the operator rejection.
				bc.emit(Instr{Op: opAIdx0, A: bc.allocI(), B: slot, C: idx, K: 1, Aux: aux})
			}
			bc.errOp("interp: unsupported operator %q", x.Op)
			return
		}
	}
	// RHS first (static type), then addressing, then the store/update
	// with the dynamic element-type branch.
	if bc.r.typeOf(x.RHS) == tFloat {
		r := bc.allocF()
		bc.emitFTo(x.RHS, r)
		slot, one, idx, aux, ok := bc.arrayAddr(ix, x.P)
		if !ok {
			return
		}
		op, k := opAStore1F, int64(0)
		if x.Op != "" {
			op, k = opAUpd1F, combineKind(x.Op)
		}
		if !one {
			if x.Op != "" {
				op = opAUpdF
			} else {
				op = opAStoreF
			}
		}
		bc.emit(Instr{Op: op, A: r, B: slot, C: idx, Aux: aux, K: k})
		return
	}
	r := bc.allocI()
	bc.emitITo(x.RHS, r)
	slot, one, idx, aux, ok := bc.arrayAddr(ix, x.P)
	if !ok {
		return
	}
	op, k := opAStore1I, int64(0)
	if x.Op != "" {
		op, k = opAUpd1I, combineKind(x.Op)
	}
	if !one {
		if x.Op != "" {
			op = opAUpdI
		} else {
			op = opAStoreI
		}
	}
	bc.emit(Instr{Op: op, A: r, B: slot, C: idx, Aux: aux, K: k})
}

// ---- loops ----

func (bc *bcCompiler) serialFor(loop *cminus.ForStmt) {
	if loop.Init != nil {
		ti, tf := bc.save()
		bc.stmt(loop.Init)
		bc.restore(ti, tf)
	}
	// Rotated loop: the exit test runs once as an entry guard, then again
	// at the bottom as the back-branch, saving the unconditional opJump
	// every iteration. The interrupt poll moves inside the guarded region,
	// so it fires once per body execution instead of once per test.
	ltop, lpost, lend := bc.newLabel(), bc.newLabel(), bc.newLabel()
	if loop.Cond != nil {
		ti, tf := bc.save()
		bc.emitBranch(loop.Cond, lend, false)
		bc.restore(ti, tf)
	}
	bc.bind(ltop)
	bc.emit(Instr{Op: opEdge})
	bc.breaks = append(bc.breaks, lend)
	bc.conts = append(bc.conts, lpost)
	bc.block(loop.Body)
	bc.breaks = bc.breaks[:len(bc.breaks)-1]
	bc.conts = bc.conts[:len(bc.conts)-1]
	bc.bind(lpost)
	if loop.Post != nil {
		ti, tf := bc.save()
		bc.stmt(loop.Post)
		bc.restore(ti, tf)
	}
	if loop.Cond != nil {
		ti, tf := bc.save()
		bc.emitBranch(loop.Cond, ltop, true)
		bc.restore(ti, tf)
	} else {
		bc.jump(Instr{Op: opJump}, ltop)
	}
	bc.bind(lend)
}

// emitCheck compiles one rendered runtime-check condition by reusing the
// mini-C expression parser, branching to the fallback label when false.
func (bc *bcCompiler) emitCheck(cond string, lfall int32) {
	src := fmt.Sprintf("void __c(void) { int __r; __r = (%s); }", cond)
	prog, err := cminus.Parse(src)
	if err != nil {
		bc.errOp("interp: bad runtime check %q: %v", cond, err)
		return
	}
	as := prog.Funcs[0].Body.Stmts[1].(*cminus.AssignStmt)
	ti, tf := bc.save()
	bc.emitBranch(as.RHS, lfall, false)
	bc.restore(ti, tf)
}

func (bc *bcCompiler) emitFor(loop *cminus.ForStmt) {
	lp := bc.r.planFor(loop)
	if lp == nil || !lp.Chosen {
		bc.serialFor(loop)
		return
	}
	lserial, lfall, lend := bc.newLabel(), bc.newLabel(), bc.newLabel()
	bc.jump(Instr{Op: opJNoPar}, lserial)
	for _, chk := range lp.Decision.RuntimeChecks {
		bc.emitCheck(chk.String(), lfall)
	}
	bc.emit(Instr{Op: opParEnter})
	pl := vparloop{label: loop.Label}
	okInit := false
	if ivar, _, ok := initVarName(loop.Init); ok {
		switch s := bc.r.resolveScalar(ivar); s.kind {
		case syLocalInt:
			okInit, pl.ivarSlot = true, int32(s.idx)
		case syCell:
			okInit, pl.ivarCell, pl.ivarSlot = true, true, int32(s.idx)
		}
	}
	cond, okCond := loop.Cond.(*cminus.BinaryExpr)
	okCond = okCond && cond.Op == "<"
	switch {
	case !okInit:
		bc.errOp("interp: parallel loop %s has non-canonical init", loop.Label)
	case !okCond:
		bc.errOp("interp: parallel loop %s has non-canonical condition", loop.Label)
	default:
		d := lp.Decision
		for _, p := range d.Privates {
			switch s := bc.r.resolveScalar(p); s.kind {
			case syLocalInt:
				pl.privs = append(pl.privs, privSlot{kind: pkLocalInt, slot: s.idx})
			case syLocalFlt:
				pl.privs = append(pl.privs, privSlot{kind: pkLocalFlt, slot: s.idx})
			case syCell:
				pl.privs = append(pl.privs, privSlot{kind: pkCell, slot: s.idx, float: s.float})
			}
		}
		for _, rv := range sortedReductions(d.Reductions) {
			switch s := bc.r.resolveScalar(rv[0]); s.kind {
			case syLocalInt:
				pl.reds = append(pl.reds, redSlot{kind: pkLocalInt, slot: s.idx, cmb: combineKind(rv[1])})
			case syLocalFlt:
				pl.reds = append(pl.reds, redSlot{kind: pkLocalFlt, slot: s.idx, float: true, cmb: combineKind(rv[1])})
			case syCell:
				pl.reds = append(pl.reds, redSlot{kind: pkCell, slot: s.idx, float: s.float, cmb: combineKind(rv[1])})
			}
		}
		nreg := bc.allocI()
		bc.asITo(cond.Y, nreg)
		bc.bf.pars = append(bc.bf.pars, pl)
		pidx := len(bc.bf.pars) - 1
		bc.segs = append(bc.segs, pendingSeg{body: loop.Body, pidx: pidx})
		ctl := bc.allocI()
		bc.emit(Instr{Op: opPar, A: ctl, B: nreg, Aux: int32(pidx)})
		bc.jump(Instr{Op: opJIEqK, B: ctl, K: int64(ctlNext)}, lend)
		lret, lbrk := bc.newLabel(), bc.newLabel()
		bc.jump(Instr{Op: opJIEqK, B: ctl, K: int64(ctlReturn)}, lret)
		bc.jump(Instr{Op: opJIEqK, B: ctl, K: int64(ctlBreak)}, lbrk)
		bc.emitCont() // remaining control: ctlContinue
		bc.bind(lret)
		bc.emit(Instr{Op: opIterRet})
		bc.bind(lbrk)
		bc.emitBreak()
	}
	bc.bind(lfall)
	bc.emit(Instr{Op: opFall})
	bc.bind(lserial)
	bc.serialFor(loop)
	bc.bind(lend)
}

// flushSegs emits the deferred parallel-body segments after the main
// stream. Each segment is one loop iteration's body, entered by the
// parallel driver with the loop variable preset, ending in opIterEnd;
// top-level break/continue lower to the worker-control opcodes. A
// segment can itself contain chosen loops, queuing further segments.
func (bc *bcCompiler) flushSegs() {
	for len(bc.segs) > 0 {
		seg := bc.segs[0]
		bc.segs = bc.segs[1:]
		bc.bf.pars[seg.pidx].bodyPC = bc.here()
		bc.barrier = bc.here() // the parallel driver jumps here
		// Worker frames share the named slots; temps restart above them.
		bc.tI = bc.nI
		bc.tF = bc.nF
		bc.breaks = append(bc.breaks, -1)
		bc.conts = append(bc.conts, -1)
		bc.block(seg.body)
		bc.emit(Instr{Op: opIterEnd})
		bc.breaks = bc.breaks[:len(bc.breaks)-1]
		bc.conts = bc.conts[:len(bc.conts)-1]
	}
}
