package vcore

import (
	"strings"
	"testing"
	"unsafe"

	"sharing/internal/isa"
	"sharing/internal/noc"
	"sharing/internal/trace"
)

// stubUncore is a fixed-latency memory system for engine unit tests.
type stubUncore struct {
	l2Lat   int64
	visible int64
	wbacks  int
}

func (s *stubUncore) L2Load(now int64, from noc.Coord, addr uint64) int64 { return now + s.l2Lat }
func (s *stubUncore) StoreVisible(now int64, from noc.Coord, addr uint64) int64 {
	return s.visible
}
func (s *stubUncore) WritebackDirty(now int64, from noc.Coord, addr uint64) { s.wbacks++ }

func positions(n int) []noc.Coord {
	out := make([]noc.Coord, n)
	for i := range out {
		out[i] = noc.Coord{X: 0, Y: i}
	}
	return out
}

// run builds an engine over insts with n Slices and runs it to completion,
// verifying the final architectural state against the reference interpreter.
func run(t *testing.T, insts []isa.Inst, n int, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig(n)
	if mutate != nil {
		mutate(&cfg)
	}
	op := noc.New("op", 4, MaxSlices, 1)
	srt := noc.New("sort", 4, MaxSlices, 1)
	e, err := New(cfg, &trace.Trace{Name: "unit", Insts: insts}, positions(n), op, srt, &stubUncore{l2Lat: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ref := isa.NewInterp()
	if err := ref.Run(insts); err != nil {
		t.Fatal(err)
	}
	if diff := e.FinalState().Diff(ref.State); diff != "" {
		t.Fatalf("architectural mismatch: %s", diff)
	}
	return e
}

// seqProgram emits a simple dependent chain with stores and loads.
func seqProgram() []isa.Inst {
	var out []isa.Inst
	pc := uint64(0x1000)
	emit := func(in isa.Inst) {
		in.PC = pc
		pc += 4
		out = append(out, in)
	}
	emit(isa.Inst{Op: isa.OpAddI, Dest: 1, Src1: isa.Zero, Imm: 5})
	emit(isa.Inst{Op: isa.OpAddI, Dest: 2, Src1: isa.Zero, Imm: 3})
	for i := 0; i < 32; i++ {
		emit(isa.Inst{Op: isa.OpAdd, Dest: 3, Src1: 1, Src2: 2})
		emit(isa.Inst{Op: isa.OpMul, Dest: 4, Src1: 3, Src2: 2})
		addr := uint64(0x100000 + i*8)
		emit(isa.Inst{Op: isa.OpStore, Src1: isa.Zero, Src2: 4, Imm: int64(addr), Addr: addr})
		emit(isa.Inst{Op: isa.OpLoad, Dest: 5, Src1: isa.Zero, Imm: int64(addr), Addr: addr})
		emit(isa.Inst{Op: isa.OpXor, Dest: 1, Src1: 5, Src2: 2})
	}
	return out
}

func TestEngineBasicProgram(t *testing.T) {
	for n := 1; n <= MaxSlices; n++ {
		e := run(t, seqProgram(), n, nil)
		if e.Stats().Committed != uint64(len(seqProgram())) {
			t.Fatalf("n=%d: committed %d", n, e.Stats().Committed)
		}
	}
}

func TestEngineStoreLoadForwardingValue(t *testing.T) {
	// The load must observe the in-flight store's value through the LSQ.
	insts := []isa.Inst{
		{PC: 0, Op: isa.OpAddI, Dest: 1, Src1: isa.Zero, Imm: 0x77},
		{PC: 4, Op: isa.OpStore, Src1: isa.Zero, Src2: 1, Imm: 0x4000, Addr: 0x4000},
		{PC: 8, Op: isa.OpLoad, Dest: 2, Src1: isa.Zero, Imm: 0x4000, Addr: 0x4000},
		{PC: 12, Op: isa.OpAdd, Dest: 3, Src1: 2, Src2: 1},
	}
	e := run(t, insts, 1, nil)
	if e.regRetVal[2] != 0x77 || e.regRetVal[3] != 0xee {
		t.Fatalf("forwarded values wrong: r2=%#x r3=%#x", e.regRetVal[2], e.regRetVal[3])
	}
}

func TestEngineViolationRecovery(t *testing.T) {
	// The store's ADDRESS depends on a long divide, so the younger
	// independent load executes first with a stale value; the store's
	// arrival must detect the violation and the squash/replay must yield
	// the correct value.
	var insts []isa.Inst
	pc := uint64(0)
	emit := func(in isa.Inst) {
		in.PC = pc
		pc += 4
		insts = append(insts, in)
	}
	const word = uint64(0x8000)
	// Warm the line so the victim load hits the L1D and binds quickly.
	emit(isa.Inst{Op: isa.OpLoad, Dest: 6, Src1: isa.Zero, Imm: int64(word), Addr: word})
	emit(isa.Inst{Op: isa.OpAddI, Dest: 1, Src1: isa.Zero, Imm: 0xAB}) // store data
	emit(isa.Inst{Op: isa.OpAddI, Dest: 2, Src1: isa.Zero, Imm: 64})   // divisor
	// Slow address: word<<18 divided by 64 three times equals word.
	emit(isa.Inst{Op: isa.OpAddI, Dest: 3, Src1: isa.Zero, Imm: int64(word << 18)})
	for i := 0; i < 3; i++ {
		emit(isa.Inst{Op: isa.OpDiv, Dest: 3, Src1: 3, Src2: 2})
	}
	emit(isa.Inst{Op: isa.OpStore, Src1: 3, Src2: 1, Imm: 0, Addr: word})
	emit(isa.Inst{Op: isa.OpLoad, Dest: 4, Src1: isa.Zero, Imm: int64(word), Addr: word})
	emit(isa.Inst{Op: isa.OpAdd, Dest: 5, Src1: 4, Src2: 4})
	e := run(t, insts, 1, nil)
	if e.Stats().Violations == 0 {
		t.Fatal("expected a memory-ordering violation")
	}
	if e.regRetVal[4] != 0xAB || e.regRetVal[5] != 2*0xAB {
		t.Fatalf("replayed load got %#x", e.regRetVal[4])
	}
}

func TestEngineMispredictsCostCycles(t *testing.T) {
	// An erratically alternating branch defeats the bimodal predictor.
	var insts []isa.Inst
	pc := uint64(0)
	emit := func(in isa.Inst) {
		in.PC = pc
		insts = append(insts, in)
	}
	emit(isa.Inst{Op: isa.OpAddI, Dest: 1, Src1: isa.Zero, Imm: 1})
	pc = 4
	loop := pc
	for i := 0; i < 64; i++ {
		pc = loop
		emit(isa.Inst{Op: isa.OpAdd, Dest: 2, Src1: 2, Src2: 1})
		pc += 4
		taken := i%2 == 0 && i < 63
		var in isa.Inst
		if taken {
			in = isa.Inst{Op: isa.OpBr, Src1: 1, Src2: isa.Zero, Taken: true, Target: loop}
		} else {
			in = isa.Inst{Op: isa.OpBr, Src1: 1, Src2: 1, Taken: false, Target: loop}
		}
		emit(in)
		pc += 4
		if !taken {
			emit(isa.Inst{Op: isa.OpXor, Dest: 3, Src1: 3, Src2: 1})
			pc = loop // next iteration re-enters the loop head... keep PCs consistent
		}
		// To keep the dynamic PC stream self-consistent we only use the
		// taken path back to `loop`; for the not-taken path the next
		// instruction is the XOR at loop+8, and we then jump back.
		if !taken && i < 63 {
			emit(isa.Inst{PC: loop + 12, Op: isa.OpJmp, Taken: true, Target: loop})
		}
	}
	// Fix up PCs: regenerate them coherently.
	fixed := coherent(insts)
	e := run(t, fixed, 1, nil)
	if e.Stats().Mispredicts == 0 {
		t.Fatal("alternating branch should mispredict")
	}
	if e.Stats().Branches == 0 {
		t.Fatal("no branches resolved")
	}
}

// coherent rewrites PCs so the dynamic stream is sequential except at taken
// control transfers, which is the invariant the fetch unit expects.
func coherent(in []isa.Inst) []isa.Inst {
	out := make([]isa.Inst, len(in))
	copy(out, in)
	pcOf := map[int]uint64{}
	pc := uint64(0x1000)
	for i := range out {
		// Reuse PCs for repeated static instructions keyed by original PC
		// when it was meaningful; here simply assign fresh sequential PCs
		// and convert every taken transfer into a jump to the next
		// instruction's assigned PC.
		pcOf[i] = pc
		pc += 4
	}
	for i := range out {
		out[i].PC = pcOf[i]
		if out[i].Op.IsBranch() {
			if out[i].Taken && i+1 < len(out) {
				out[i].Target = pcOf[i+1]
			} else {
				out[i].Target = pcOf[i] + 400 // never followed
			}
		}
	}
	return out
}

func TestEngineCrossSliceOperands(t *testing.T) {
	e := run(t, seqProgram(), 4, nil)
	if e.Stats().OperandMsgs == 0 {
		t.Fatal("multi-Slice execution must use the Scalar Operand Network")
	}
	if e.Stats().SortMsgs == 0 {
		t.Fatal("memory ops must use the sorting network")
	}
	single := run(t, seqProgram(), 1, nil)
	if single.Stats().OperandMsgs != 0 {
		t.Fatal("single-Slice VCore must not send operand messages")
	}
}

func TestEngineLSQOverflowRecovery(t *testing.T) {
	// A tiny LSQ forces overflow squashes without deadlock.
	var insts []isa.Inst
	pc := uint64(0)
	insts = append(insts, isa.Inst{PC: pc, Op: isa.OpAddI, Dest: 1, Src1: isa.Zero, Imm: 0})
	for i := 0; i < 64; i++ {
		pc += 4
		addr := uint64(0x100000 + i*64)
		insts = append(insts, isa.Inst{PC: pc, Op: isa.OpLoad, Dest: 2, Src1: isa.Zero, Imm: int64(addr), Addr: addr})
	}
	e := run(t, insts, 1, func(c *Config) { c.LSQSize = 2; c.LSWindow = 8 })
	if e.Stats().Committed != uint64(len(insts)) {
		t.Fatal("did not finish under LSQ pressure")
	}
}

func TestEngineDeterministic(t *testing.T) {
	a := run(t, seqProgram(), 3, nil)
	b := run(t, seqProgram(), 3, nil)
	if a.Stats().Cycles != b.Stats().Cycles {
		t.Fatalf("nondeterministic: %d vs %d cycles", a.Stats().Cycles, b.Stats().Cycles)
	}
}

func TestEngineRejectsBadInputs(t *testing.T) {
	cfg := DefaultConfig(2)
	op := noc.New("op", 4, 8, 1)
	srt := noc.New("s", 4, 8, 1)
	if _, err := New(cfg, &trace.Trace{}, positions(2), op, srt, &stubUncore{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := New(cfg, &trace.Trace{Insts: seqProgram()}, positions(3), op, srt, &stubUncore{}); err == nil {
		t.Fatal("mismatched positions accepted")
	}
	bad := cfg
	bad.NumSlices = 9
	if _, err := New(bad, &trace.Trace{Insts: seqProgram()}, positions(9), op, srt, &stubUncore{}); err == nil {
		t.Fatal("9-Slice VCore accepted (Equation 3 caps at 8)")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	full := DefaultConfig(4)
	full.ROBPerSlice = 500 // exactly fills the flight ring
	if err := full.Validate(); err != nil {
		t.Fatalf("ring-filling config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumSlices = 0 },
		func(c *Config) { c.FetchPerSlice = 0 },
		func(c *Config) { c.InstBufEntries = 1 },
		func(c *Config) { c.IssueWindow = 0 },
		func(c *Config) { c.ROBPerSlice = 0 },
		func(c *Config) { c.LRFPerSlice = 0 },
		func(c *Config) { c.StoreBufEntries = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.PredictorEntries = 100 },
		func(c *Config) { c.BTBEntries = 3 },
		func(c *Config) { c.L1D.SizeBytes = 0 },
		func(c *Config) { c.L1HitLatency = 0 },
		func(c *Config) { c.L1I.LineSize = 7 },
		// In-flight bound 4*(500+12) = 2048 fits the ring; one more does not.
		func(c *Config) { c.ROBPerSlice = 501 },
		func(c *Config) { c.NumSlices, c.ROBPerSlice = 8, 400 },
		func(c *Config) { c.InstBufEntries = 2048 },
		// 8*(2^61+12) wraps to 96 in int arithmetic.
		func(c *Config) { c.NumSlices, c.ROBPerSlice = 8, 1<<61 },
	}
	for i, m := range mutations {
		c := DefaultConfig(4)
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestEventLayout pins the record the event queue moves: 40 bytes, with
// the 32- and 8-bit fields packed after the 64-bit ones.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 40 {
		t.Errorf("event is %d bytes, want 40", size)
	}
}

// TestFlightRingSized pins the flight ring to the machine it models: the
// next power of two at or above NumSlices*(ROBPerSlice+InstBufEntries)
// slots, with every slot's waiter lists seeded from backing of matching
// size, and a config whose bound exceeds 2048 refused.
func TestFlightRingSized(t *testing.T) {
	cases := []struct {
		slices, rob, want int
	}{
		{1, 64, 128},  // 76 in flight
		{2, 64, 256},  // 152
		{4, 64, 512},  // 304
		{8, 64, 1024}, // 608
		{1, 52, 64},   // exactly 64: a full power of two needs no headroom
		{4, 500, 2048},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.slices)
		cfg.ROBPerSlice = c.rob
		if got := ringSlots(cfg.inflight()); got != c.want {
			t.Errorf("%d Slices, ROB %d: ringSlots(%d) = %d, want %d", c.slices, c.rob, cfg.inflight(), got, c.want)
		}
		e, err := New(cfg, &trace.Trace{Insts: seqProgram()}, positions(c.slices), noc.New("op", 4, MaxSlices, 1), noc.New("s", 4, MaxSlices, 1), &stubUncore{})
		if err != nil {
			t.Fatal(err)
		}
		if len(e.fl) != c.want || e.flMask != uint64(c.want-1) {
			t.Errorf("%d Slices, ROB %d: ring has %d slots (mask %#x), want %d", c.slices, c.rob, len(e.fl), e.flMask, c.want)
		}
		for i := range e.fl {
			if cap(e.fl[i].waiters) != seedWaiterCap || cap(e.fl[i].fwdWaiters) != seedFwdCap {
				t.Fatalf("slot %d: waiter capacities %d/%d, want %d/%d", i, cap(e.fl[i].waiters), cap(e.fl[i].fwdWaiters), seedWaiterCap, seedFwdCap)
			}
		}
	}
	over := DefaultConfig(4)
	over.ROBPerSlice = 501 // 4*(501+12) = 2052
	if err := over.Validate(); err == nil {
		t.Fatal("in-flight bound 2052 accepted; the ring holds at most 2048")
	}
	if _, err := New(over, &trace.Trace{Insts: seqProgram()}, positions(4), noc.New("op", 4, MaxSlices, 1), noc.New("s", 4, MaxSlices, 1), &stubUncore{}); err == nil {
		t.Fatal("New built an engine whose in-flight bound exceeds 2048")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Cycles: 100, Committed: 50, Branches: 10, Mispredicts: 2, L1DHits: 30, L1DMisses: 10}
	if s.IPC() != 0.5 {
		t.Fatalf("IPC %f", s.IPC())
	}
	if s.MispredictRate() != 0.2 {
		t.Fatalf("mispredict rate %f", s.MispredictRate())
	}
	if s.L1DMissRate() != 0.25 {
		t.Fatalf("l1d miss rate %f", s.L1DMissRate())
	}
	if !strings.Contains(s.String(), "ipc=0.500") {
		t.Fatalf("stats string %q", s.String())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.MispredictRate() != 0 || zero.L1DMissRate() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig(1)
	// Table 2.
	if c.IssueWindow != 32 || c.LSQSize != 32 || c.ROBPerSlice != 64 ||
		c.LRFPerSlice != 64 || c.GlobalRegs != 128 || c.StoreBufEntries != 8 || c.MSHRs != 8 {
		t.Fatalf("Table 2 defaults wrong: %+v", c)
	}
	// Table 3: 16KB 2-way L1s, 3-cycle hit; 8-byte I-cache lines (§3.5).
	if c.L1D.SizeBytes != 16<<10 || c.L1D.Ways != 2 || c.L1HitLatency != 3 {
		t.Fatalf("L1D config wrong: %+v", c.L1D)
	}
	if c.L1I.LineSize != 8 {
		t.Fatalf("L1I line size %d, want 8 (two instructions)", c.L1I.LineSize)
	}
}

func TestEngineGShareGolden(t *testing.T) {
	// The global predictor must not perturb architectural correctness.
	e := run(t, seqProgram(), 4, func(c *Config) { c.UseGShare = true })
	if e.gshare == nil {
		t.Fatal("gshare not installed")
	}
	if e.Stats().Committed != uint64(len(seqProgram())) {
		t.Fatal("incomplete run")
	}
}
