// Package isa defines the instruction set consumed by the Sharing
// Architecture simulator: a small RISC-style ISA with full value semantics.
//
// The paper's SSim is trace driven (GEM5 Alpha traces); our traces carry the
// same information a timing simulator needs — opcode class, register
// dependences, branch outcomes, and memory addresses — but additionally give
// every operation defined value semantics. That lets the out-of-order timing
// model be validated instruction-for-instruction against the in-order
// reference interpreter in this package: if rename, operand forwarding, the
// load/store queue, or mispredict recovery is wrong, architectural state
// diverges and tests fail.
package isa

import "fmt"

// NumArchRegs is the number of architectural general-purpose registers.
// Register 0 is hardwired to zero, as in most RISC ISAs.
const NumArchRegs = 32

// Reg identifies an architectural register (0..NumArchRegs-1).
type Reg uint8

// Zero is the hardwired zero register.
const Zero Reg = 0

// Op enumerates instruction opcodes. Opcodes are grouped into classes
// (see Class) that determine which functional unit executes them and with
// what latency.
type Op uint8

const (
	// OpNop does nothing. It still occupies fetch and ROB slots.
	OpNop Op = iota
	// OpAdd computes dest = src1 + src2.
	OpAdd
	// OpSub computes dest = src1 - src2.
	OpSub
	// OpAnd computes dest = src1 & src2.
	OpAnd
	// OpOr computes dest = src1 | src2.
	OpOr
	// OpXor computes dest = src1 ^ src2.
	OpXor
	// OpShl computes dest = src1 << (src2 & 63).
	OpShl
	// OpShr computes dest = src1 >> (src2 & 63) (logical).
	OpShr
	// OpAddI computes dest = src1 + imm.
	OpAddI
	// OpMul computes dest = src1 * src2 on the multiplier (longer latency).
	OpMul
	// OpDiv computes dest = src1 / src2 (src2==0 yields all-ones), long latency.
	OpDiv
	// OpLoad loads a 64-bit word: dest = mem[addr]. The effective address is
	// carried by the trace record (address generation is src1 + imm, and the
	// trace generator guarantees consistency).
	OpLoad
	// OpStore stores a 64-bit word: mem[addr] = src2, address from src1 + imm.
	OpStore
	// OpBr is a conditional branch: taken iff src1 != src2. Direction and
	// target are carried in the trace record; the simulator predicts and
	// verifies against them.
	OpBr
	// OpJmp is an unconditional direct jump.
	OpJmp
	numOps
)

// Class groups opcodes by executing resource.
type Class uint8

const (
	// ClassALU executes on the single-cycle integer ALU.
	ClassALU Class = iota
	// ClassMul executes on the multiplier (3-cycle latency).
	ClassMul
	// ClassDiv executes on the (unpipelined) divider.
	ClassDiv
	// ClassLoad executes on the load/store unit and accesses memory.
	ClassLoad
	// ClassStore executes on the load/store unit and accesses memory.
	ClassStore
	// ClassBranch executes on the ALU and resolves a predicted direction.
	ClassBranch
)

// Latencies, in cycles, for each class's execution stage. These mirror the
// base Slice configuration in Table 2 of the paper (single-cycle ALU,
// pipelined 3-cycle multiplier, long-latency divide).
const (
	LatencyALU = 1
	LatencyMul = 3
	LatencyDiv = 12
)

// opInfo captures static properties of each opcode.
type opInfo struct {
	name     string
	class    Class
	hasDest  bool
	nSrc     int // number of register sources used (1 or 2)
	latency  int
	usesImm  bool
	isMemory bool
}

var opTable = [numOps]opInfo{
	OpNop:   {name: "nop", class: ClassALU, latency: LatencyALU},
	OpAdd:   {name: "add", class: ClassALU, hasDest: true, nSrc: 2, latency: LatencyALU},
	OpSub:   {name: "sub", class: ClassALU, hasDest: true, nSrc: 2, latency: LatencyALU},
	OpAnd:   {name: "and", class: ClassALU, hasDest: true, nSrc: 2, latency: LatencyALU},
	OpOr:    {name: "or", class: ClassALU, hasDest: true, nSrc: 2, latency: LatencyALU},
	OpXor:   {name: "xor", class: ClassALU, hasDest: true, nSrc: 2, latency: LatencyALU},
	OpShl:   {name: "shl", class: ClassALU, hasDest: true, nSrc: 2, latency: LatencyALU},
	OpShr:   {name: "shr", class: ClassALU, hasDest: true, nSrc: 2, latency: LatencyALU},
	OpAddI:  {name: "addi", class: ClassALU, hasDest: true, nSrc: 1, latency: LatencyALU, usesImm: true},
	OpMul:   {name: "mul", class: ClassMul, hasDest: true, nSrc: 2, latency: LatencyMul},
	OpDiv:   {name: "div", class: ClassDiv, hasDest: true, nSrc: 2, latency: LatencyDiv},
	OpLoad:  {name: "ld", class: ClassLoad, hasDest: true, nSrc: 1, latency: LatencyALU, usesImm: true, isMemory: true},
	OpStore: {name: "st", class: ClassStore, nSrc: 2, latency: LatencyALU, usesImm: true, isMemory: true},
	OpBr:    {name: "br", class: ClassBranch, nSrc: 2, latency: LatencyALU},
	OpJmp:   {name: "jmp", class: ClassBranch, latency: LatencyALU},
}

// String returns the mnemonic for op.
func (o Op) String() string {
	if int(o) >= len(opTable) {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opTable[o].name
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return int(o) < int(numOps) }

// Class returns the execution class of o.
func (o Op) Class() Class { return opTable[o].class }

// HasDest reports whether o writes a destination register.
func (o Op) HasDest() bool { return opTable[o].hasDest }

// NumSrc returns how many register source operands o reads.
func (o Op) NumSrc() int { return opTable[o].nSrc }

// Latency returns the execution latency of o in cycles.
func (o Op) Latency() int { return opTable[o].latency }

// IsMemory reports whether o accesses data memory.
func (o Op) IsMemory() bool { return opTable[o].isMemory }

// IsBranch reports whether o redirects control flow.
func (o Op) IsBranch() bool { return o == OpBr || o == OpJmp }

// IsLoad reports whether o is a memory load.
func (o Op) IsLoad() bool { return o == OpLoad }

// IsStore reports whether o is a memory store.
func (o Op) IsStore() bool { return o == OpStore }

// Inst is one dynamic instruction in a trace. A trace is a sequence of Inst
// in program (fetch) order for a single hardware thread.
//
// Because traces are dynamic, branches carry their resolved direction and
// target, and memory operations carry their effective address; the timing
// simulator predicts/speculates and then checks against these fields exactly
// as a trace-driven simulator replays a GEM5 trace.
//
// Fields are ordered widest first, so an Inst packs into 40 bytes with no
// interior padding (TestInstLayout pins it): traces are the largest
// per-run input the simulator holds.
type Inst struct {
	// PC is the instruction's program counter (byte address).
	PC uint64
	// Imm is the immediate operand for AddI and the address offset for
	// Load/Store (effective address = value(Src1) + Imm).
	Imm int64
	// Addr is the effective byte address for loads and stores.
	Addr uint64
	// Target is the resolved next-PC for taken branches and jumps.
	Target uint64
	// Op is the opcode.
	Op Op
	// Dest is the destination register, if Op.HasDest().
	Dest Reg
	// Src1 and Src2 are register sources; meaningful per Op.NumSrc().
	Src1, Src2 Reg
	// Taken is the resolved direction for conditional branches (always true
	// for jumps).
	Taken bool
}

// NextPC returns the address of the instruction that follows i dynamically.
func (i Inst) NextPC() uint64 {
	if i.Op.IsBranch() && i.Taken {
		return i.Target
	}
	return i.PC + 4
}

// String renders a compact human-readable form of the instruction.
func (i Inst) String() string {
	switch {
	case i.Op == OpNop:
		return fmt.Sprintf("%#x: nop", i.PC)
	case i.Op == OpLoad:
		return fmt.Sprintf("%#x: ld r%d, %d(r%d) @%#x", i.PC, i.Dest, i.Imm, i.Src1, i.Addr)
	case i.Op == OpStore:
		return fmt.Sprintf("%#x: st r%d, %d(r%d) @%#x", i.PC, i.Src2, i.Imm, i.Src1, i.Addr)
	case i.Op == OpBr:
		return fmt.Sprintf("%#x: br r%d, r%d -> %#x taken=%v", i.PC, i.Src1, i.Src2, i.Target, i.Taken)
	case i.Op == OpJmp:
		return fmt.Sprintf("%#x: jmp -> %#x", i.PC, i.Target)
	case i.Op == OpAddI:
		return fmt.Sprintf("%#x: addi r%d, r%d, %d", i.PC, i.Dest, i.Src1, i.Imm)
	default:
		return fmt.Sprintf("%#x: %s r%d, r%d, r%d", i.PC, i.Op, i.Dest, i.Src1, i.Src2)
	}
}

// Eval computes the value produced by a non-memory, destination-writing
// instruction given its source values. It panics for opcodes without a
// destination (programming error in the caller).
func (i Inst) Eval(src1, src2 uint64) uint64 {
	switch i.Op {
	case OpAdd:
		return src1 + src2
	case OpSub:
		return src1 - src2
	case OpAnd:
		return src1 & src2
	case OpOr:
		return src1 | src2
	case OpXor:
		return src1 ^ src2
	case OpShl:
		return src1 << (src2 & 63)
	case OpShr:
		return src1 >> (src2 & 63)
	case OpAddI:
		return src1 + uint64(i.Imm)
	case OpMul:
		return src1 * src2
	case OpDiv:
		if src2 == 0 {
			return ^uint64(0)
		}
		return src1 / src2
	default:
		panic(fmt.Sprintf("isa: Eval on op %v without ALU result", i.Op))
	}
}

// BranchTaken evaluates the branch condition (src1 != src2) for OpBr.
func BranchTaken(src1, src2 uint64) bool { return src1 != src2 }
