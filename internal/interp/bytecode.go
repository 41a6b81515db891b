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
// Semantics mirror the tree walker — same bindings, evaluation order and
// error strings — so the differential tests can pin the VM to the
// oracle bit-for-bit.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/cminus"
	"repro/internal/depend"
	"repro/internal/parallelize"
)

// Opcode is one VM instruction kind.
type Opcode uint8

// Instruction set. Naming: I* operates on the int column, F* on the
// float column. A is the destination register unless noted; B and C are
// sources; Aux indexes a per-function table (strings, globals, builtins,
// calls, parallel descriptors); K is an inline int64 immediate and KF an
// inline float64 immediate. An op that indexes an array adds D to the
// index in C, and E to its second index (see Instr).
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

	// Comparisons materialized to 0/1 in the int column. a > b is
	// compiled as b < a and a >= b as b <= a (exact for floats, NaN
	// included). The float forms keep the int forms' order.
	opILt // ints[A] = b2i(ints[B] < ints[C])
	opILe
	opIEq
	opINe
	opFLt // ints[A] = b2i(flts[B] < flts[C])
	opFLe
	opFEq
	opFNe

	// Control flow. Jump targets are absolute pcs in A.
	opJump // pc = A
	opJNZ  // if (ints[B] != 0) != (K != 0) { pc = A }
	opJFNZ // if (flts[B] != 0) != (K != 0) { pc = A }
	// Fused compare+branch on ints. A branch on >, >= or != is the
	// branch on <=, < or == with its sense flipped.
	opJILt // if (ints[B] < ints[C]) != (K != 0) { pc = A }
	opJILe
	opJIEq
	// Immediate compare+branch: the literal rides in K, so the branch
	// sense moves to C. Same order as opJILt..opJIEq.
	opJIKLt // if (ints[B] < K) != (C != 0) { pc = A }
	opJIKLe
	opJIKEq
	// Post-increment compare+branch: the normalized for-loop back edge
	// i += d; if (i < bound) collapses into one dispatch. The delta rides
	// in Aux; the bound is a register (sense in K, like opJILt) or an
	// immediate (sense in C, like opJIKLt).
	opJIncLt   // ints[B] += Aux; if (ints[B] < ints[C]) != (K != 0) { pc = A }
	opJIKIncLt // ints[B] += Aux; if (ints[B] < K) != (C != 0) { pc = A }

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
	// opAIdxN folds dim K's subscript in. opAIdx01 is the peephole fusion
	// of the first two chain steps.
	opAIdx0   // ints[A] = bounds-checked ints[C]; rank must equal K
	opAIdxN   // ints[A] = ints[A]*Dims[K] + bounds-checked ints[C]
	opAIdx01  // dims 0 and 1 in one step: C = dim-0 reg, low K = dim-1 reg, high K = rank
	opALoadI  // ints[A] = arrs[B].at(ints[C]) with dynamic type branch
	opALoadF  // flts[A] = arrs[B].at(ints[C])
	opAStoreI // arrs[B].at(ints[C]) = ints[A]
	opAStoreF // arrs[B].at(ints[C]) = flts[A]
	opAUpdI   // arrs[B].at(ints[C]) = combine(K)(old, ints[A])
	opAUpdF   // arrs[B].at(ints[C]) = combine(K)(old, flts[A])

	// Hoisted rows (see hoistRows). K packs rank<<32 | the varying
	// dimension, which is the rank when no subscript varies. opRow runs
	// ahead of a loop's entry test and fills the row block ints[A..] for
	// arrs[B]: at A the flattened offset of the invariant dimensions, at
	// A+1 the varying dimension's stride, at A+2 its extent (0 and 1 when
	// none varies), then the invariant index values in dimension order
	// from A+3 on. It writes the first two itself, ints[C]+D and
	// ints[Aux]+E; opIAddKs ahead of it write any further ones. opRow
	// never throws: an unknown array, a rank mismatch or an index out of
	// range leaves the offset negative. A row access forms
	// ints[E] + (ints[C]+D)*ints[E+1] and checks only the varying index;
	// a negative offset or a varying index out of range takes the slow
	// path, which raises the opAIdx chain's error (vmRowFail).
	opRow       // row block ints[A..] for arrs[B]
	opRowLoadI  // ints[A] = arrs[B] in row ints[E..] at varying index ints[C]+D
	opRowLoadF  // flts[A] = same
	opRowStoreI // arrs[B] in row ints[E..] at varying index ints[C]+D = ints[A]
	opRowStoreF // same = flts[A]

	// Peephole-fused subscripted-subscript accesses. The Gath forms run
	// a full checked 1-D load of the inner subscript array (slot in the
	// high half of K, its unknown-array message index in the low half)
	// and feed the result straight into a checked 1-D access of arrs[B];
	// the outer nil check runs first, absorbing the nil-only probe.
	opGathLoadI  // ints[A] = arrs[B][arrs[K>>32][ints[C]]]
	opGathLoadF  // flts[A] = arrs[B][arrs[K>>32][ints[C]]]
	opGathStoreI // arrs[B][arrs[K>>32][ints[C]]] = ints[A]
	opGathStoreF // arrs[B][arrs[K>>32][ints[C]]] = flts[A]

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
	opB1 // flts[A] = b1[Aux](flts[B])
	opB2 // flts[A] = b2[Aux](flts[B], flts[C])

	opCallU // call calls[Aux]; result: ints[A] or flts[A] per descriptor

	// Returns and iteration-segment terminators.
	opRetV    // fr.ret = Value{}; ctlReturn
	opRetI    // fr.ret = IntVal(ints[A]); ctlReturn
	opRetF    // fr.ret = FloatVal(flts[A]); ctlReturn
	opIterEnd // end of a parallel-body segment: ctlNext
	opIterBrk // break with no enclosing loop in this segment: ctlBreak
	opIterCnt // continue with no enclosing loop in this segment: ctlContinue

	// Parallel regions.
	opJNoPar   // if m.Workers <= 1 { pc = A }
	opFall     // Stats.RuntimeFallback++
	opDecl     // Stats.Declined++
	opParEnter // guards of pars[Aux] over ints[B] trips hold ? Stats.ParallelRegions++ : pc = A
	opPar      // run parallel loop pars[Aux]; trip count in ints[B], control out in ints[A]
	opIterRet  // propagate a worker/return control: ctlReturn

	opErr // panic engineErr with message strs[Aux]
)

// Instr is one flat instruction: an opcode plus dense operand fields.
// The slice of these is what the dispatch loop walks — no pointers, no
// closures, 48 bytes, four instructions to three cache lines.
//
// D and E are subscript constants: a subscript x ± c compiles to x's
// register and c, which the indexing op adds itself. D is added to the
// index in C; E to the second index of opAIdx01 and opRow and to the
// outer index of a fused gather (the value loaded from the inner
// array). A row access's E is instead its row block. No jump indexes,
// so while compiling, a jump's D links the patch chain of its label.
type Instr struct {
	Op  Opcode
	A   int32
	B   int32
	C   int32
	Aux int32
	D   int32
	E   int32
	K   int64
	KF  float64
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
	ivarCell bool
	ivarSlot int32
	bodyPC   int32
	privs    []privSlot
	reds     []redSlot
	// guards are the decision's guards; guardSlots[i] is the array slot
	// of guards[i].
	guards     []depend.Guard
	guardSlots []int32
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
// Scalar columns are zeroed too, so a pooled frame starts each call as a
// fresh one does; the binder resolves a name only after its definition,
// so no slot is read before the call writes it.
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
	// The int register above the named slots is never written, so it
	// reads 0 in every frame (frames start zeroed, and a worker's copies
	// its parent's): a literal subscript c indexes with it plus c.
	bc.zero = bc.nI
	bc.nI++
	bc.floatLits(fn.Body)
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
	// through Instr.D of jumps targeting label i.
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

	// flits maps a float literal's bits to the register that holds it
	// for the whole call (see floatLits); zero is an int register that
	// always reads 0.
	flits map[uint64]int32
	zero  int32

	// rows maps each access of a hoisted row to its row, while the body
	// of the loop that hoisted it compiles (see hoistRows).
	rows map[*cminus.IndexExpr]rowRef
}

// rowRef is one access's hoisted row: the first register of its row
// block and the dimension whose subscript the loop varies, the rank
// when none does.
type rowRef struct {
	reg, vdim int32
}

// maxFloatLits caps the float literals a function keeps in registers;
// the rest load with opFConst at each use.
const maxFloatLits = 64

// floatLits gives each distinct float literal of the body, up to
// maxFloatLits in source order, a float register above the named slots
// and sets them all at function entry, in slot order. Temps start above
// them, and a parallel worker's frame copies them with the named slots,
// so an operand use reads the register and no loop body reloads a
// constant.
func (bc *bcCompiler) floatLits(body *cminus.Block) {
	bc.flits = map[uint64]int32{}
	cminus.WalkStmts(body, func(s cminus.Stmt) bool {
		cminus.StmtExprs(s, func(e cminus.Expr) bool {
			if lit, ok := e.(*cminus.FloatLit); ok && len(bc.flits) < maxFloatLits {
				bits := math.Float64bits(lit.Val)
				if _, have := bc.flits[bits]; !have {
					bc.flits[bits] = bc.nF
					bc.emit(Instr{Op: opFConst, A: bc.nF, KF: lit.Val})
					bc.nF++
				}
			}
			return true
		})
		return true
	})
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
// (Gath/Off), float multiply-accumulate, index arithmetic b*k+c, and
// the normalized loop's back edge. A pattern stays only while some
// corpus plan emits it (TestVMSuperinstructionsEmitted).
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
			g := Instr{Op: op, A: in.A, B: in.B, C: prev.C, D: prev.D, E: in.D, Aux: in.Aux,
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
					*pr2 = Instr{Op: opFMulAccL, A: in.A, B: prev.B, C: pr2.C, D: pr2.D,
						Aux: pr2.Aux, K: int64(pr2.B)}
					bc.code = bc.code[:p]
					return p - 1, true
				case pr2.Op == opGathLoadF && pr2.A == prev.C &&
					in.A < 1<<15 && prev.B < 1<<15:
					*pr2 = Instr{Op: opGathMulAccF, A: in.A<<16 | prev.B, B: pr2.B,
						C: pr2.C, D: pr2.D, E: pr2.E, Aux: pr2.Aux, K: pr2.K}
					bc.code = bc.code[:p]
					return p - 1, true
				}
			}
			*prev = Instr{Op: opFMulAcc, A: in.A, B: prev.B, C: prev.C}
			return p, true
		}
	case opAIdxN:
		if prev.Op == opAIdx0 && prev.C >= 0 && prev.A == in.A && prev.B == in.B && in.K == 1 {
			*prev = Instr{Op: opAIdx01, A: prev.A, B: prev.B, C: prev.C, D: prev.D, E: in.D, Aux: prev.Aux,
				K: prev.K<<32 | int64(uint32(in.C))}
			return p, true
		}
	case opJILt, opJIKLt:
		// In-place add feeding the left operand: the normalized for-loop
		// back edge i += d; if (i < n), with a register or an immediate
		// bound. The add's write is preserved by the fused op, so no
		// dead-temp requirement — only that the incremented slot is the
		// compare's left operand. The rewritten slot becomes a jump, so it
		// carries the incoming instruction's label (A) and patch chain
		// (D) verbatim.
		if prev.Op == opIAddK && prev.A == prev.B && prev.A == in.B &&
			prev.K >= -(1<<30) && prev.K < 1<<30 {
			op := opJIncLt
			if in.Op == opJIKLt {
				op = opJIKIncLt
			}
			*prev = Instr{Op: op, A: in.A, B: in.B, C: in.C,
				Aux: int32(prev.K), D: in.D, K: in.K}
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
						*pr2 = Instr{Op: opIMulAddL, A: in.A, B: mo, C: pr2.C, D: pr2.D, Aux: other,
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
	in.D = bc.heads[l]
	bc.heads[l] = bc.emit(in)
}

func (bc *bcCompiler) patch() {
	for l, head := range bc.heads {
		pc := bc.labels[l]
		for i := head; i >= 0; {
			next := bc.code[i].D
			bc.code[i].A = pc
			bc.code[i].D = 0
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
		if s := bc.r.sym(id); s.kind == syLocalInt {
			return int32(s.idx)
		}
	}
	dst := bc.allocI()
	bc.emitITo(e, dst)
	return dst
}

func (bc *bcCompiler) emitF(e cminus.Expr) int32 {
	switch x := e.(type) {
	case *cminus.Ident:
		if s := bc.r.sym(x); s.kind == syLocalFlt {
			return int32(s.idx)
		}
	case *cminus.FloatLit:
		if r, ok := bc.flits[math.Float64bits(x.Val)]; ok {
			return r
		}
	}
	dst := bc.allocF()
	bc.emitFTo(e, dst)
	return dst
}

// asIReg compiles e as an int (truncating floats).
func (bc *bcCompiler) asIReg(e cminus.Expr) int32 {
	if !bc.r.b.Float(e) {
		return bc.emitI(e)
	}
	f := bc.emitF(e)
	t := bc.allocI()
	bc.emit(Instr{Op: opF2I, A: t, B: f})
	return t
}

func (bc *bcCompiler) asFReg(e cminus.Expr) int32 {
	if bc.r.b.Float(e) {
		return bc.emitF(e)
	}
	i := bc.emitI(e)
	t := bc.allocF()
	bc.emit(Instr{Op: opI2F, A: t, B: i})
	return t
}

func (bc *bcCompiler) asITo(e cminus.Expr, dst int32) {
	if !bc.r.b.Float(e) {
		bc.emitITo(e, dst)
		return
	}
	f := bc.emitF(e)
	bc.emit(Instr{Op: opF2I, A: dst, B: f})
}

func (bc *bcCompiler) asFTo(e cminus.Expr, dst int32) {
	if bc.r.b.Float(e) {
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
		bc.emitCallTo(x, false, dst)
	case *cminus.CastExpr:
		bc.asITo(x.X, dst)
	default:
		bc.errOp("interp: unsupported expression %T at %s", e, e.Pos())
	}
}

func (bc *bcCompiler) emitFTo(e cminus.Expr, dst int32) {
	switch x := e.(type) {
	case *cminus.FloatLit:
		if r, ok := bc.flits[math.Float64bits(x.Val)]; ok {
			bc.emit(Instr{Op: opFMove, A: dst, B: r})
		} else {
			bc.emit(Instr{Op: opFConst, A: dst, KF: x.Val})
		}
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
		bc.emitCallTo(x, true, dst)
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
// opcodes (no branches in value context). The operands evaluate in
// source order; > and >= then swap them into < and <=.
func (bc *bcCompiler) emitCmpTo(x *cminus.BinaryExpr, dst int32) {
	float := bc.r.b.Float(x.X) || bc.r.b.Float(x.Y)
	var l, r int32
	if float {
		l = bc.freezeF(bc.asFReg(x.X), x.Y)
		r = bc.asFReg(x.Y)
	} else {
		l = bc.freezeI(bc.asIReg(x.X), x.Y)
		r = bc.asIReg(x.Y)
	}
	var op Opcode
	switch x.Op {
	case "<":
		op = opILt
	case "<=":
		op = opILe
	case ">":
		op, l, r = opILt, r, l
	case ">=":
		op, l, r = opILe, r, l
	case "==":
		op = opIEq
	default:
		op = opINe
	}
	if float {
		op += opFLt - opILt
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
			if bc.r.b.Float(x.X) || bc.r.b.Float(x.Y) {
				// Float comparisons materialize (NaN makes negated
				// compare-branches unsound), then branch on the bit.
				t := bc.allocI()
				bc.emitCmpTo(x, t)
				bc.jump(Instr{Op: opJNZ, B: t, K: b2i(!jumpIfTrue)}, target)
				return
			}
			// Jumping when a > b holds is jumping when a <= b fails;
			// likewise >= is < and != is == with the sense flipped.
			var op Opcode
			jump := jumpIfTrue
			switch x.Op {
			case "<":
				op = opJILt
			case "<=":
				op = opJILe
			case ">":
				op, jump = opJILe, !jump
			case ">=":
				op, jump = opJILt, !jump
			case "==":
				op = opJIEq
			default:
				op, jump = opJIEq, !jump
			}
			l := bc.freezeI(bc.asIReg(x.X), x.Y)
			if lit, ok := x.Y.(*cminus.IntLit); ok {
				bc.jump(Instr{Op: op + (opJIKLt - opJILt), B: l, C: int32(b2i(!jump)), K: lit.Val}, target)
				return
			}
			r := bc.asIReg(x.Y)
			bc.jump(Instr{Op: op, B: l, C: r, K: b2i(!jump)}, target)
			return
		}
	case *cminus.UnaryExpr:
		if x.Op == "!" {
			bc.emitBranch(x.X, target, !jumpIfTrue)
			return
		}
	}
	if bc.r.b.Float(e) {
		r := bc.emitF(e)
		bc.jump(Instr{Op: opJFNZ, B: r, K: b2i(!jumpIfTrue)}, target)
		return
	}
	r := bc.emitI(e)
	bc.jump(Instr{Op: opJNZ, B: r, K: b2i(!jumpIfTrue)}, target)
}

// ---- scalar access ----

func (bc *bcCompiler) scalarReadITo(id *cminus.Ident, dst int32) {
	s := bc.r.sym(id)
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
	s := bc.r.sym(id)
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
// which matches the tree walker's convert-to-cell-type assignment rule.
// The binder defines every plain assignment's target, so s is bound.
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
	s := bc.r.sym(id)
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
	s := bc.r.sym(id)
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
	case *cminus.IntLit, *cminus.FloatLit, *cminus.StringLit:
		return true
	case *cminus.Ident:
		return bc.r.sym(x).kind != syUnbound
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

// splitOffset splits e into x + k, peeling the int literals added to or
// subtracted from it through + and -, nested ones included: i + 1 + 1
// is i + 2, and j + (k + 1) is (j + k) + 1, a new node over the same
// operands, which keep their order. x is nil when e is all literals.
func splitOffset(e cminus.Expr) (cminus.Expr, int64) {
	switch b := e.(type) {
	case *cminus.IntLit:
		return nil, b.Val
	case *cminus.BinaryExpr:
		if b.Op != "+" && b.Op != "-" {
			break
		}
		x, kx := splitOffset(b.X)
		y, ky := splitOffset(b.Y)
		if b.Op == "-" {
			ky = -ky
		}
		switch {
		case y == nil:
			return x, kx + ky
		case x == nil && b.Op == "+":
			return y, kx + ky
		case x != nil && (x != b.X || y != b.Y):
			return &cminus.BinaryExpr{Op: b.Op, X: x, Y: y, P: b.P}, kx + ky
		}
	}
	return e, 0
}

// subscript compiles one subscript and returns its register and the
// constant the indexing op adds to it. A statically int x ± c whose c
// fits in 32 bits compiles only x, and a literal only the zero
// register: int64 addition wraps, so the index the op forms is the
// value the tree walker computes, and the one an out-of-range error
// prints.
func (bc *bcCompiler) subscript(e cminus.Expr) (reg, off int32) {
	if !bc.r.b.Float(e) {
		if x, k := splitOffset(e); x != e && k == int64(int32(k)) {
			if x == nil {
				return bc.zero, int32(k)
			}
			return bc.emitI(x), int32(k)
		}
	}
	return bc.asIReg(e), 0
}

// Addressing modes of an array access (arrayAddr).
const (
	addrChain = iota // C holds the flattened offset the opAIdx chain checked
	addrOne          // C + D is the 1-D index, which the access checks
	addrRow          // C + D is the varying index of the hoisted row in E
)

// accessOps[mode][store][float] is the load or plain store of a mode.
var accessOps = [3][2][2]Opcode{
	addrChain: {{opALoadI, opALoadF}, {opAStoreI, opAStoreF}},
	addrOne:   {{opALoad1I, opALoad1F}, {opAStore1I, opAStore1F}},
	addrRow:   {{opRowLoadI, opRowLoadF}, {opRowStoreI, opRowStoreF}},
}

// arrayAddr emits the addressing code of an IndexExpr and returns the
// access's operands as an instruction for the caller to complete: B the
// array slot, C the register holding the index (1-D or a hoisted row's
// varying one) or the flattened offset (multi-dim), D the index's
// constant, E a hoisted row's block, K its rank and varying dimension,
// Aux the unknown-array message, and the addressing mode; ok=false
// means an unsupported index shape whose error was already emitted.
//
// Evaluation-order contract (mirroring the tree walker): the unknown-
// array check precedes subscript evaluation, and rank and bounds checks
// follow all of it. When a subscript can itself throw, that ordering is
// preserved by a nil-only opAIdx0 probe ahead of the subscripts; for
// pure subscripts the order is unobservable and the fused forms check
// everything themselves.
func (bc *bcCompiler) arrayAddr(e *cminus.IndexExpr, pos cminus.Position) (at Instr, mode int, ok bool) {
	name, idxExprs, shapeOK := cminus.ArrayBase(e)
	if !shapeOK {
		bc.errOp("interp: unsupported index expression at %s", e.P)
		return Instr{}, 0, false
	}
	slot := int32(bc.r.array(bc.r.b.Array(e)).slot)
	aux := bc.str(fmt.Sprintf("interp: unknown array %q at %s", name, pos))
	if len(idxExprs) == 1 {
		if !bc.pureExpr(idxExprs[0]) {
			// Preserve the "unknown array" error before subscript
			// evaluation effects via a nil-only probe; rank and bounds
			// check at the consuming fused op, after the subscript.
			bc.emit(Instr{Op: opAIdx0, A: bc.allocI(), B: slot, C: -1, K: 1, Aux: aux})
		}
		ix, d := bc.subscript(idxExprs[0])
		return Instr{B: slot, C: ix, D: d, Aux: aux}, addrOne, true
	}
	rank := int64(len(idxExprs))
	if row, hoisted := bc.rows[e]; hoisted {
		ix, d := bc.zero, int32(0)
		if row.vdim < int32(rank) {
			ix, d = bc.subscript(idxExprs[row.vdim])
		}
		return Instr{B: slot, C: ix, D: d, E: row.reg, Aux: aux, K: rank<<32 | int64(row.vdim)}, addrRow, true
	}
	flat := bc.allocI()
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
		bc.emit(Instr{Op: opAIdx0, A: flat, B: slot, C: -1, K: rank, Aux: aux})
	}
	regs := make([]int32, len(idxExprs))
	offs := make([]int32, len(idxExprs))
	for d, ie := range idxExprs {
		r, off := bc.subscript(ie)
		// The register is consumed only after every subscript evaluated:
		// copy named slots a later subscript may mutate.
		for _, later := range idxExprs[d+1:] {
			r = bc.freezeI(r, later)
		}
		regs[d], offs[d] = r, off
	}
	bc.emit(Instr{Op: opAIdx0, A: flat, B: slot, C: regs[0], D: offs[0], K: rank, Aux: aux})
	for d := 1; d < len(idxExprs); d++ {
		bc.emit(Instr{Op: opAIdxN, A: flat, B: slot, C: regs[d], D: offs[d], K: int64(d)})
	}
	return Instr{B: slot, C: flat, Aux: aux}, addrChain, true
}

func (bc *bcCompiler) arrayReadTo(e *cminus.IndexExpr, dst int32, wantFloat bool) {
	at, mode, ok := bc.arrayAddr(e, e.P)
	if !ok {
		return
	}
	at.Op, at.A = accessOps[mode][0][b2i(wantFloat)], dst
	bc.emit(at)
}

// ---- calls ----

func (bc *bcCompiler) emitCallTo(x *cminus.CallExpr, float bool, dst int32) {
	if fn := bc.r.m.Prog.Func(x.Fun); fn != nil && fn.Body != nil {
		bc.emitUserCallTo(x, fn, float, dst)
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
	bi := cminus.LookupBuiltin(x.Fun)
	if bi == nil {
		bc.errOp("interp: unknown function %q", x.Fun)
		return
	}
	if len(args) != bi.Arity() {
		bc.errOp("interp: %s expects %d args", x.Fun, bi.Arity())
		return
	}
	// The call yields a double. An int site or an int builtin truncates
	// it; an int builtin at a double site converts the int back.
	res := dst
	if !float || bi.Int {
		res = bc.allocF()
	}
	if bi.F2 != nil {
		bc.bf.b2 = append(bc.bf.b2, bi.F2)
		bc.emit(Instr{Op: opB2, A: res, B: args[0], C: args[1], Aux: int32(len(bc.bf.b2) - 1)})
	} else {
		bc.bf.b1 = append(bc.bf.b1, bi.F1)
		bc.emit(Instr{Op: opB1, A: res, B: args[0], Aux: int32(len(bc.bf.b1) - 1)})
	}
	switch {
	case !float:
		bc.emit(Instr{Op: opF2I, A: dst, B: res})
	case bi.Int:
		t := bc.allocI()
		bc.emit(Instr{Op: opF2I, A: t, B: res})
		bc.emit(Instr{Op: opI2F, A: dst, B: t})
	}
}

func (bc *bcCompiler) emitUserCallTo(x *cminus.CallExpr, fn *cminus.FuncDecl, float bool, dst int32) {
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
			src := bc.r.array(bc.r.b.Of(id))
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
	bc.emit(Instr{Op: opCallU, A: dst, Aux: int32(len(bc.bf.calls) - 1), K: b2i(float)})
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
				if s := bc.r.sym(id); s.kind == syLocalInt {
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
		if bc.r.b.Float(x.X) {
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
		// Rotated: the entry guard tests the condition once, the bottom
		// branch re-tests it and jumps back if still true. continue lands
		// on the bottom test, so each pass is still cond → body — only the
		// opJump per iteration is gone. The dynamic test count is
		// identical to the unrotated form.
		ltop, lcond, lend := bc.newLabel(), bc.newLabel(), bc.newLabel()
		ti, tf := bc.save()
		bc.emitBranch(x.Cond, lend, false)
		bc.restore(ti, tf)
		bc.bind(ltop)
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
		if bc.r.b.Float(x.X) {
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
	for i, it := range x.Items {
		ti, tf := bc.save()
		bd := bc.r.b.Decl(x)[i]
		if bd.Array {
			sym := bc.r.arrays[bd]
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
		s := bc.r.scalars[bd]
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
		s := bc.r.sym(id)
		if x.Op == "" {
			bc.scalarStore(s, x.RHS)
			return
		}
		// Compound op: RHS evaluates first (tree-walker order), the
		// combine runs at the promoted type (always int for %), and the
		// store converts back to the target's type.
		if x.Op == "%" || (!s.float && !bc.r.b.Float(x.RHS)) {
			r := bc.allocI()
			bc.asITo(x.RHS, r)
			if s.float {
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
		if !s.float {
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
		if bc.r.b.Float(x.RHS) {
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
			if bc.r.b.Float(x.RHS) {
				bc.emitF(x.RHS)
			} else {
				bc.emitI(x.RHS)
			}
			at, mode, okA := bc.arrayAddr(ix, x.P)
			if okA && mode == addrOne {
				// 1-D addressing defers rank/bounds to the consuming
				// fused op; none follows here, so check explicitly —
				// those errors precede the operator rejection.
				at.Op, at.A, at.K = opAIdx0, bc.allocI(), 1
				bc.emit(at)
			}
			bc.errOp("interp: unsupported operator %q", x.Op)
			return
		}
	}
	// RHS first (static type), then addressing, then the store/update
	// with the dynamic element-type branch.
	float := bc.r.b.Float(x.RHS)
	var r int32
	if float {
		r = bc.allocF()
		bc.emitFTo(x.RHS, r)
	} else {
		r = bc.allocI()
		bc.emitITo(x.RHS, r)
	}
	at, mode, ok := bc.arrayAddr(ix, x.P)
	if !ok {
		return
	}
	at.Op, at.A = accessOps[mode][1][b2i(float)], r
	if x.Op != "" {
		// Compound targets are never hoisted (hoistRows).
		upd := [2][2]Opcode{{opAUpdI, opAUpdF}, {opAUpd1I, opAUpd1F}}
		at.Op, at.K = upd[b2i(mode == addrOne)][b2i(float)], combineKind(x.Op)
	}
	bc.emit(at)
}

// ---- loops ----

// invariant reports whether e reads only local int slots the loop
// does not write (written returns cminus.Writes of the loop, sorted).
// Locals change only through their own names, so e then holds one
// value for the whole loop.
func (bc *bcCompiler) invariant(e cminus.Expr, written func() []string) bool {
	inv := true
	cminus.WalkExprs(e, func(x cminus.Expr) bool {
		if id, ok := x.(*cminus.Ident); ok && inv {
			_, w := slices.BinarySearch(written(), id.Name)
			inv = !w && bc.r.sym(id).kind == syLocalInt
		}
		return inv
	})
	return inv
}

// invariantBound recognizes a loop condition v < b or v <= b whose
// compound bound b the loop cannot change: v is a local int slot, b is
// a pure int expression, neither a literal nor a lone name (those are
// already an immediate or a register), and b is invariant. It returns
// v's slot and the compare-branch opcode.
func (bc *bcCompiler) invariantBound(loop *cminus.ForStmt, written func() []string) (v int32, op Opcode, b cminus.Expr, ok bool) {
	c, isBin := loop.Cond.(*cminus.BinaryExpr)
	if !isBin || (c.Op != "<" && c.Op != "<=") {
		return 0, 0, nil, false
	}
	id, isID := c.X.(*cminus.Ident)
	if !isID || bc.r.sym(id).kind != syLocalInt {
		return 0, 0, nil, false
	}
	switch c.Y.(type) {
	case *cminus.IntLit, *cminus.Ident:
		return 0, 0, nil, false
	}
	if bc.r.b.Float(c.Y) || !bc.pureExpr(c.Y) || !bc.invariant(c.Y, written) {
		return 0, 0, nil, false
	}
	op = opJILt
	if c.Op == "<=" {
		op = opJILe
	}
	return int32(bc.r.sym(id).idx), op, c.Y, true
}

// hoistRows hoists the rows of the loop's body out of the loop. It
// covers every multi-dimensional load and plain store of the body,
// outside nested loops, whose subscripts are pure int expressions, all
// but at most one invariant, and whose array the loop does not declare
// (its binding is the one in scope where the loop starts). Each
// distinct row gets a row block and one opRow, emitted here, ahead of
// the loop's entry test; its accesses are entered in bc.rows, and
// returned, for the caller to remove after the body. Compound updates
// and ++ or -- keep the opAIdx chain.
func (bc *bcCompiler) hoistRows(loop *cminus.ForStmt, written func() []string) []*cminus.IndexExpr {
	type row struct {
		rowRef
		slot int32
		idx  []cminus.Expr
	}
	var rows []row
	var hoisted []*cminus.IndexExpr
	candidate := func(ix *cminus.IndexExpr, name string, idx []cminus.Expr) {
		bd := bc.r.b.Array(ix)
		if bd != bc.r.b.Lookup(loop, name, true) {
			return
		}
		vdim := -1
		for d, e := range idx {
			if bc.r.b.Float(e) || !bc.pureExpr(e) {
				return
			}
			if !bc.invariant(e, written) {
				if vdim >= 0 {
					return
				}
				vdim = d
			}
		}
		if vdim < 0 {
			vdim = len(idx)
		}
		slot := int32(bc.r.array(bd).slot)
		i := slices.IndexFunc(rows, func(r row) bool {
			return r.slot == slot && r.vdim == int32(vdim) && bc.sameRow(r.idx, idx, vdim)
		})
		if i < 0 {
			// The block: offset, stride, extent, invariant index values.
			reg, n := bc.tI, int32(0)
			for range 3 + len(idx) - int(b2i(vdim < len(idx))) {
				bc.allocI()
			}
			ti, tf := bc.save()
			at := Instr{Op: opRow, A: reg, B: slot, K: int64(len(idx))<<32 | int64(vdim)}
			for d, e := range idx {
				if d == vdim {
					continue
				}
				r, off := bc.subscript(e)
				switch n {
				case 0:
					at.C, at.D = r, off
				case 1:
					at.Aux, at.E = r, off
				default:
					bc.emit(Instr{Op: opIAddK, A: reg + 3 + n, B: r, K: int64(off)})
				}
				n++
			}
			bc.emit(at)
			bc.restore(ti, tf)
			i = len(rows)
			rows = append(rows, row{rowRef: rowRef{reg: reg, vdim: int32(vdim)}, slot: slot, idx: idx})
		}
		if bc.rows == nil {
			bc.rows = map[*cminus.IndexExpr]rowRef{}
		}
		bc.rows[ix] = rows[i].rowRef
		hoisted = append(hoisted, ix)
	}
	// visit walks an expression: an access is a load, and its subscripts
	// are walked in turn; the target of a ++ or -- is not.
	var visit func(e cminus.Expr) bool
	subscripts := func(ix *cminus.IndexExpr, access bool) bool {
		if _, multi := ix.Arr.(*cminus.IndexExpr); !multi {
			return true
		}
		name, idx, ok := cminus.ArrayBase(ix)
		if !ok {
			return true
		}
		if access {
			candidate(ix, name, idx)
		}
		for _, e := range idx {
			cminus.WalkExprs(e, visit)
		}
		return false
	}
	visit = func(e cminus.Expr) bool {
		switch x := e.(type) {
		case *cminus.IndexExpr:
			return subscripts(x, true)
		case *cminus.UnaryExpr:
			if ix, ok := x.X.(*cminus.IndexExpr); ok && (x.Op == "++" || x.Op == "--") {
				return subscripts(ix, false)
			}
		}
		return true
	}
	cminus.WalkStmts(loop.Body, func(s cminus.Stmt) bool {
		switch x := s.(type) {
		case *cminus.ForStmt, *cminus.WhileStmt:
			return false
		case *cminus.AssignStmt:
			if ix, ok := x.LHS.(*cminus.IndexExpr); ok {
				cminus.WalkExprs(x.RHS, visit)
				if subscripts(ix, x.Op == "") {
					cminus.WalkExprs(ix, visit)
				}
				return true
			}
		}
		cminus.StmtExprs(s, visit)
		return true
	})
	return hoisted
}

// sameRow reports whether two accesses' invariant subscripts, all but
// the varying dimension's, are the same: each x + c with equal c and
// the same expression x.
func (bc *bcCompiler) sameRow(a, b []cminus.Expr, vdim int) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if d == vdim {
			continue
		}
		xa, ka := splitOffset(a[d])
		xb, kb := splitOffset(b[d])
		if ka != kb || (xa == nil) != (xb == nil) || xa != nil && !bc.sameExpr(xa, xb) {
			return false
		}
	}
	return true
}

// sameExpr reports whether two invariant subscript expressions are the
// same tree over the same slots.
func (bc *bcCompiler) sameExpr(a, b cminus.Expr) bool {
	switch x := a.(type) {
	case *cminus.IntLit:
		y, ok := b.(*cminus.IntLit)
		return ok && x.Val == y.Val
	case *cminus.Ident:
		y, ok := b.(*cminus.Ident)
		return ok && bc.r.sym(x) == bc.r.sym(y)
	case *cminus.BinaryExpr:
		y, ok := b.(*cminus.BinaryExpr)
		return ok && x.Op == y.Op && bc.sameExpr(x.X, y.X) && bc.sameExpr(x.Y, y.Y)
	case *cminus.UnaryExpr:
		y, ok := b.(*cminus.UnaryExpr)
		return ok && x.Op == y.Op && bc.sameExpr(x.X, y.X)
	}
	return false
}

func (bc *bcCompiler) serialFor(loop *cminus.ForStmt) {
	if loop.Init != nil {
		ti, tf := bc.save()
		bc.stmt(loop.Init)
		bc.restore(ti, tf)
	}
	// Rotated loop: the exit test runs once as an entry guard, then again
	// at the bottom as the back-branch, saving the unconditional opJump
	// every iteration.
	ltop, lpost, lend := bc.newLabel(), bc.newLabel(), bc.newLabel()
	test := func(target int32, jumpIfTrue bool) {
		ti, tf := bc.save()
		bc.emitBranch(loop.Cond, target, jumpIfTrue)
		bc.restore(ti, tf)
	}
	// The loop's write set, walked on first use.
	var writes []string
	walked := false
	written := func() []string {
		if !walked {
			writes, _ = cminus.Writes(loop)
			walked = true
		}
		return writes
	}
	if v, op, b, ok := bc.invariantBound(loop, written); ok {
		// The bound's register outlives the body, whose temps start
		// above it; the back edge i += 1; i < bound then fuses into
		// opJIncLt.
		breg := bc.allocI()
		bc.emitITo(b, breg)
		test = func(target int32, jumpIfTrue bool) {
			bc.jump(Instr{Op: op, B: v, C: breg, K: b2i(!jumpIfTrue)}, target)
		}
	}
	// The row blocks, like the bound's register, outlive the body.
	hoisted := bc.hoistRows(loop, written)
	if loop.Cond != nil {
		test(lend, false)
	}
	bc.bind(ltop)
	bc.breaks = append(bc.breaks, lend)
	bc.conts = append(bc.conts, lpost)
	bc.block(loop.Body)
	bc.breaks = bc.breaks[:len(bc.breaks)-1]
	bc.conts = bc.conts[:len(bc.conts)-1]
	// A parallel segment compiles the body again, with no rows.
	for _, ix := range hoisted {
		delete(bc.rows, ix)
	}
	bc.bind(lpost)
	if loop.Post != nil {
		ti, tf := bc.save()
		bc.stmt(loop.Post)
		bc.restore(ti, tf)
	}
	if loop.Cond != nil {
		test(ltop, true)
	} else {
		bc.jump(Instr{Op: opJump}, ltop)
	}
	bc.bind(lend)
}

// emitFor compiles a loop. A plan-chosen loop gets the region entry
// gate ahead of its serial form: the decline test on its work estimate,
// which lands on opDecl and the serial loop, then the runtime checks,
// the trip count, and opParEnter, which runs the guard scans and counts
// the region. Any failure of the gate lands on opFall and the serial
// loop.
func (bc *bcCompiler) emitFor(loop *cminus.ForStmt) {
	lp := bc.r.planFor(loop)
	if lp == nil || !lp.Chosen {
		bc.serialFor(loop)
		return
	}
	lserial, lfall, lend := bc.newLabel(), bc.newLabel(), bc.newLabel()
	bc.jump(Instr{Op: opJNoPar}, lserial)
	bound := func(name string) bool { return bc.r.b.Lookup(loop, name, false) != nil }
	ldecl := int32(-1)
	if cond := lp.Declines(bound); cond != nil {
		ldecl = bc.newLabel()
		bc.r.b.BindAt(loop, cond)
		ti, tf := bc.save()
		bc.emitBranch(cond, ldecl, true)
		bc.restore(ti, tf)
	}
	checks, err := lp.Checks(bound)
	if err != nil {
		bc.errOp("interp: %v", err)
	}
	for _, chk := range checks {
		bc.r.b.BindAt(loop, chk)
		ti, tf := bc.save()
		bc.emitBranch(chk, lfall, false)
		bc.restore(ti, tf)
	}
	var pl vparloop
	_, nx, err := parallelize.Canonical(loop)
	if err == nil {
		switch s := bc.r.scalar(bc.r.b.Index(loop)); s.kind {
		case syLocalInt:
			pl.ivarSlot = int32(s.idx)
		case syCell:
			pl.ivarCell, pl.ivarSlot = true, int32(s.idx)
		default:
			err = fmt.Errorf("parallel loop %s has non-canonical init", loop.Label)
		}
	}
	if err != nil {
		bc.errOp("interp: %v", err)
	} else {
		d := lp.Decision
		for _, p := range d.Privates {
			switch s := bc.r.scalar(bc.r.b.Lookup(loop, p, false)); s.kind {
			case syLocalInt:
				pl.privs = append(pl.privs, privSlot{kind: pkLocalInt, slot: s.idx})
			case syLocalFlt:
				pl.privs = append(pl.privs, privSlot{kind: pkLocalFlt, slot: s.idx})
			case syCell:
				pl.privs = append(pl.privs, privSlot{kind: pkCell, slot: s.idx, float: s.float})
			}
		}
		for _, red := range d.SortedReductions() {
			cmb := combineKind(red.Op)
			switch s := bc.r.scalar(bc.r.b.Lookup(loop, red.Name, false)); s.kind {
			case syLocalInt:
				pl.reds = append(pl.reds, redSlot{kind: pkLocalInt, slot: s.idx, cmb: cmb})
			case syLocalFlt:
				pl.reds = append(pl.reds, redSlot{kind: pkLocalFlt, slot: s.idx, float: true, cmb: cmb})
			case syCell:
				pl.reds = append(pl.reds, redSlot{kind: pkCell, slot: s.idx, float: s.float, cmb: cmb})
			}
		}
		pl.guards = d.Guards
		for _, g := range d.Guards {
			pl.guardSlots = append(pl.guardSlots, int32(bc.r.array(bc.r.b.Lookup(loop, g.Array, true)).slot))
		}
		nreg := bc.allocI()
		bc.asITo(nx, nreg)
		bc.bf.pars = append(bc.bf.pars, pl)
		pidx := len(bc.bf.pars) - 1
		bc.jump(Instr{Op: opParEnter, B: nreg, Aux: int32(pidx)}, lfall)
		bc.segs = append(bc.segs, pendingSeg{body: loop.Body, pidx: pidx})
		ctl := bc.allocI()
		bc.emit(Instr{Op: opPar, A: ctl, B: nreg, Aux: int32(pidx)})
		bc.jump(Instr{Op: opJIKEq, B: ctl, K: int64(ctlNext)}, lend)
		lret, lbrk := bc.newLabel(), bc.newLabel()
		bc.jump(Instr{Op: opJIKEq, B: ctl, K: int64(ctlReturn)}, lret)
		bc.jump(Instr{Op: opJIKEq, B: ctl, K: int64(ctlBreak)}, lbrk)
		bc.emitCont() // not reached: runPar ends a continued iteration itself
		bc.bind(lret)
		bc.emit(Instr{Op: opIterRet})
		bc.bind(lbrk)
		bc.emitBreak()
	}
	bc.bind(lfall)
	bc.emit(Instr{Op: opFall})
	if ldecl >= 0 {
		bc.jump(Instr{Op: opJump}, lserial)
		bc.bind(ldecl)
		bc.emit(Instr{Op: opDecl})
	}
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
