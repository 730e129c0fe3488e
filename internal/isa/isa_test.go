package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestInstLayout pins the trace record: 40 bytes, the four 64-bit fields
// first and the five one-byte fields packed after them.
func TestInstLayout(t *testing.T) {
	if size := unsafe.Sizeof(Inst{}); size != 40 {
		t.Errorf("Inst is %d bytes, want 40", size)
	}
}

func TestOpTableConsistency(t *testing.T) {
	for op := Op(0); op.Valid(); op++ {
		if op.String() == "" || strings.HasPrefix(op.String(), "op(") {
			t.Errorf("op %d has no mnemonic", op)
		}
		if op.Latency() < 1 {
			t.Errorf("%v: latency %d < 1", op, op.Latency())
		}
		if op.HasDest() && op.IsStore() {
			t.Errorf("%v: stores cannot write a destination", op)
		}
		if op.IsMemory() != (op.IsLoad() || op.IsStore()) {
			t.Errorf("%v: IsMemory inconsistent", op)
		}
		if op.IsBranch() && op.HasDest() {
			t.Errorf("%v: branches cannot write registers", op)
		}
	}
	if Op(200).Valid() {
		t.Error("opcode 200 should be invalid")
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("invalid op string = %q", got)
	}
}

func TestClassLatencies(t *testing.T) {
	cases := []struct {
		op   Op
		want int
	}{
		{OpAdd, LatencyALU}, {OpMul, LatencyMul}, {OpDiv, LatencyDiv},
		{OpBr, LatencyALU}, {OpLoad, LatencyALU},
	}
	for _, c := range cases {
		if got := c.op.Latency(); got != c.want {
			t.Errorf("%v latency = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestEvalSemantics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		imm  int64
		want uint64
	}{
		{OpAdd, 3, 4, 0, 7},
		{OpSub, 3, 4, 0, ^uint64(0)}, // wraparound
		{OpAnd, 0b1100, 0b1010, 0, 0b1000},
		{OpOr, 0b1100, 0b1010, 0, 0b1110},
		{OpXor, 0b1100, 0b1010, 0, 0b0110},
		{OpShl, 1, 65, 0, 2}, // shift amount masked to 6 bits
		{OpShr, 8, 2, 0, 2},
		{OpAddI, 10, 99, -3, 7}, // src2 ignored
		{OpMul, 7, 6, 0, 42},
		{OpDiv, 42, 6, 0, 7},
		{OpDiv, 42, 0, 0, ^uint64(0)}, // divide by zero -> all ones
	}
	for _, c := range cases {
		in := Inst{Op: c.op, Imm: c.imm}
		if got := in.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v(%d,%d,imm=%d) = %d, want %d", c.op, c.a, c.b, c.imm, got, c.want)
		}
	}
}

func TestEvalPanicsOnNonALU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Eval on a store should panic")
		}
	}()
	Inst{Op: OpStore}.Eval(1, 2)
}

func TestEvalShiftProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		l := Inst{Op: OpShl}.Eval(a, b)
		r := Inst{Op: OpShr}.Eval(a, b)
		return l == a<<(b&63) && r == a>>(b&63)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalXorInvolution(t *testing.T) {
	f := func(a, b uint64) bool {
		x := Inst{Op: OpXor}.Eval(a, b)
		return Inst{Op: OpXor}.Eval(x, b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNextPC(t *testing.T) {
	if got := (Inst{PC: 100, Op: OpAdd}).NextPC(); got != 104 {
		t.Errorf("sequential NextPC = %d", got)
	}
	if got := (Inst{PC: 100, Op: OpBr, Taken: true, Target: 40}).NextPC(); got != 40 {
		t.Errorf("taken branch NextPC = %d", got)
	}
	if got := (Inst{PC: 100, Op: OpBr, Taken: false, Target: 40}).NextPC(); got != 104 {
		t.Errorf("not-taken branch NextPC = %d", got)
	}
	if got := (Inst{PC: 100, Op: OpJmp, Taken: true, Target: 8}).NextPC(); got != 8 {
		t.Errorf("jump NextPC = %d", got)
	}
}

func TestInstString(t *testing.T) {
	for _, in := range []Inst{
		{Op: OpNop, PC: 4},
		{Op: OpLoad, PC: 8, Dest: 1, Src1: 2, Imm: 16, Addr: 0x100},
		{Op: OpStore, PC: 12, Src1: 2, Src2: 3, Addr: 0x108},
		{Op: OpBr, PC: 16, Src1: 1, Src2: 2, Taken: true, Target: 4},
		{Op: OpJmp, PC: 20, Taken: true, Target: 4},
		{Op: OpAddI, PC: 24, Dest: 5, Src1: 6, Imm: -9},
		{Op: OpMul, PC: 28, Dest: 1, Src1: 2, Src2: 3},
	} {
		if in.String() == "" {
			t.Errorf("empty String for %v", in.Op)
		}
	}
}

func TestInterpBasicProgram(t *testing.T) {
	// r1 = 5; r2 = 7; r3 = r1 + r2; mem[64] = r3; r4 = mem[64]
	prog := []Inst{
		{PC: 0, Op: OpAddI, Dest: 1, Src1: Zero, Imm: 5},
		{PC: 4, Op: OpAddI, Dest: 2, Src1: Zero, Imm: 7},
		{PC: 8, Op: OpAdd, Dest: 3, Src1: 1, Src2: 2},
		{PC: 12, Op: OpStore, Src1: Zero, Src2: 3, Imm: 64, Addr: 64},
		{PC: 16, Op: OpLoad, Dest: 4, Src1: Zero, Imm: 64, Addr: 64},
	}
	in := NewInterp()
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	if in.State.Regs[3] != 12 || in.State.Regs[4] != 12 {
		t.Fatalf("r3=%d r4=%d, want 12", in.State.Regs[3], in.State.Regs[4])
	}
	if in.Executed != 5 {
		t.Fatalf("executed = %d", in.Executed)
	}
}

func TestInterpZeroRegisterIsHardwired(t *testing.T) {
	in := NewInterp()
	if err := in.Step(Inst{Op: OpAddI, Dest: Zero, Src1: Zero, Imm: 99}); err != nil {
		t.Fatal(err)
	}
	if in.State.Regs[Zero] != 0 {
		t.Fatal("write to r0 must be discarded")
	}
}

func TestInterpRejectsInconsistentBranch(t *testing.T) {
	in := NewInterp()
	// r1 = 1; branch claims not-taken but 1 != 0.
	if err := in.Step(Inst{Op: OpAddI, Dest: 1, Src1: Zero, Imm: 1}); err != nil {
		t.Fatal(err)
	}
	err := in.Step(Inst{Op: OpBr, Src1: 1, Src2: Zero, Taken: false})
	if err == nil {
		t.Fatal("inconsistent branch direction must be rejected")
	}
}

func TestInterpRejectsInconsistentAddress(t *testing.T) {
	in := NewInterp()
	err := in.Step(Inst{Op: OpLoad, Dest: 1, Src1: Zero, Imm: 8, Addr: 16})
	if err == nil {
		t.Fatal("address != base+imm must be rejected")
	}
	err = in.Step(Inst{Op: OpStore, Src1: Zero, Src2: 1, Imm: 8, Addr: 16})
	if err == nil {
		t.Fatal("store address != base+imm must be rejected")
	}
}

func TestInterpRejectsInvalidOpcode(t *testing.T) {
	in := NewInterp()
	if err := in.Step(Inst{Op: Op(250)}); err == nil {
		t.Fatal("invalid opcode must be rejected")
	}
}

func TestArchStateEqualDiffClone(t *testing.T) {
	a := NewArchState()
	a.Regs[3] = 7
	a.WriteMem(64, 42)
	b := a.Clone()
	if !a.Equal(b) || a.Diff(b) != "" {
		t.Fatal("clone must be equal")
	}
	b.Regs[3] = 8
	if a.Equal(b) || a.Diff(b) == "" {
		t.Fatal("register difference not detected")
	}
	b = a.Clone()
	b.WriteMem(128, 1)
	if a.Equal(b) {
		t.Fatal("memory difference not detected")
	}
	if d := a.Diff(b); !strings.Contains(d, "mem") {
		t.Fatalf("diff %q should mention memory", d)
	}
	// Zero-valued entries are equivalent to absent ones.
	c := a.Clone()
	c.Mem[512] = 0
	if !a.Equal(c) || a.Diff(c) != "" {
		t.Fatal("explicit zero memory entry must compare equal to absence")
	}
	if a.ReadMem(67) != 42 {
		t.Fatal("ReadMem must align to the containing word")
	}
}

// TestInterpDeterministic checks that interpreting a program twice yields
// identical states (guards against hidden map-iteration dependence).
func TestInterpDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prog := make([]Inst, 0, 500)
	for i := 0; i < 500; i++ {
		switch rng.Intn(4) {
		case 0:
			//ssim:nolint cyclemath: Reg(rng.Intn(31)) is bounded well under uint8
			prog = append(prog, Inst{PC: uint64(i * 4), Op: OpAddI, Dest: Reg(1 + rng.Intn(30)), Src1: Reg(rng.Intn(31)), Imm: int64(rng.Intn(100))})
		case 1:
			//ssim:nolint cyclemath: Reg(rng.Intn(31)) is bounded well under uint8
			prog = append(prog, Inst{PC: uint64(i * 4), Op: OpAdd, Dest: Reg(1 + rng.Intn(30)), Src1: Reg(rng.Intn(31)), Src2: Reg(rng.Intn(31))})
		case 2:
			//ssim:nolint cyclemath: Reg(rng.Intn(31)) is bounded well under uint8
			prog = append(prog, Inst{PC: uint64(i * 4), Op: OpMul, Dest: Reg(1 + rng.Intn(30)), Src1: Reg(rng.Intn(31)), Src2: Reg(rng.Intn(31))})
		case 3:
			//ssim:nolint cyclemath: Reg(rng.Intn(31)) is bounded well under uint8
			prog = append(prog, Inst{PC: uint64(i * 4), Op: OpXor, Dest: Reg(1 + rng.Intn(30)), Src1: Reg(rng.Intn(31)), Src2: Reg(rng.Intn(31))})
		}
	}
	a, b := NewInterp(), NewInterp()
	if err := a.Run(prog); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(prog); err != nil {
		t.Fatal(err)
	}
	if !a.State.Equal(b.State) {
		t.Fatal("interpreter must be deterministic")
	}
}

// TestDiffReportsLowestAddress pins the determinism fix in ArchState.Diff:
// when several memory words differ, the report must always name the lowest
// differing address, not whichever entry Go's map iteration surfaced first.
func TestDiffReportsLowestAddress(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		a, b := NewArchState(), NewArchState()
		// Many differing entries, plus one only present in b, so a naive
		// map-order walk has plenty of arbitrary answers to pick from.
		for i := 0; i < 64; i++ {
			addr := uint64(0x1000 + 8*i)
			a.Mem[addr] = uint64(i)
			b.Mem[addr] = uint64(i) + 1
		}
		b.Mem[0x8000] = 7
		want := "mem[0x1000]: 0x0 vs 0x1"
		if got := a.Diff(b); got != want {
			t.Fatalf("trial %d: Diff = %q, want %q", trial, got, want)
		}
		// Lower register differences still win over memory.
		a.Regs[3] = 9
		if got := a.Diff(b); got != "r3: 0x9 vs 0x0" {
			t.Fatalf("trial %d: Diff with register mismatch = %q", trial, got)
		}
	}
}
