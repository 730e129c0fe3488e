package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"sharing/internal/isa"
)

func randInst(rng *rand.Rand, prevPC uint64) isa.Inst {
	ops := []isa.Op{isa.OpAdd, isa.OpAddI, isa.OpMul, isa.OpDiv, isa.OpLoad, isa.OpStore, isa.OpBr, isa.OpJmp, isa.OpNop, isa.OpShl}
	op := ops[rng.Intn(len(ops))]
	in := isa.Inst{PC: prevPC + uint64(rng.Intn(3))*4, Op: op}
	if op.HasDest() {
		//ssim:nolint cyclemath: bounded by NumArchRegs (32)
		in.Dest = isa.Reg(rng.Intn(isa.NumArchRegs))
	}
	if op.NumSrc() >= 1 {
		//ssim:nolint cyclemath: bounded by NumArchRegs (32)
		in.Src1 = isa.Reg(rng.Intn(isa.NumArchRegs))
	}
	if op.NumSrc() >= 2 {
		//ssim:nolint cyclemath: bounded by NumArchRegs (32)
		in.Src2 = isa.Reg(rng.Intn(isa.NumArchRegs))
	}
	if op == isa.OpAddI || op.IsMemory() {
		in.Imm = rng.Int63n(1<<40) - 1<<39
	}
	if op.IsMemory() {
		in.Addr = rng.Uint64() >> 10
	}
	if op.IsBranch() {
		in.Taken = rng.Intn(2) == 0 || op == isa.OpJmp
		in.Target = rng.Uint64() >> 20
	}
	return in
}

func randTrace(rng *rand.Rand, name string, n, threads int) *MultiTrace {
	m := &MultiTrace{Name: name}
	for t := 0; t < threads; t++ {
		tr := &Trace{Name: name}
		pc := uint64(0x1000)
		for i := 0; i < n; i++ {
			in := randInst(rng, pc)
			pc = in.PC
			tr.Insts = append(tr.Insts, in)
		}
		m.Threads = append(m.Threads, tr)
	}
	return m
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := randTrace(rng, "rt", 200, 1+rng.Intn(3))
		if rng.Intn(2) == 0 && len(m.Threads) > 0 {
			n := m.Threads[0].Len()
			at := make([]int, len(m.Threads))
			for i := range at {
				at[i] = n / 2
			}
			m.Barriers = append(m.Barriers, BarrierSet{At: at})
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randTrace(rng, "q", int(n%64)+1, 1)
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			return false
		}
		got, err := Read(&buf)
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randTrace(rng, "fuzz", 100, 1)
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Truncations must error, never panic or hang.
	for cut := 0; cut < len(clean); cut += 13 {
		if _, err := Read(bytes.NewReader(clean[:cut])); err == nil && cut < len(clean)-1 {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte("XXXX"), clean[4:]...)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Random single-byte corruption: must either error or decode *something*
	// structurally valid — never panic.
	for trial := 0; trial < 200; trial++ {
		c := append([]byte(nil), clean...)
		//ssim:nolint cyclemath: 1+Intn(255) <= 255, exactly a byte
		c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
		got, err := Read(bytes.NewReader(c))
		if err == nil {
			if verr := got.Validate(); verr != nil {
				t.Fatalf("corrupted trace decoded but invalid: %v", verr)
			}
		}
	}
}

func TestCodecRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(99) // version uvarint
	if _, err := Read(&buf); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestWriteRejectsInvalidTrace(t *testing.T) {
	if err := Write(&bytes.Buffer{}, &MultiTrace{Name: "empty"}); err == nil {
		t.Fatal("zero-thread trace accepted")
	}
}

func TestValidateBarriers(t *testing.T) {
	tr := &Trace{Name: "x", Insts: make([]isa.Inst, 10)}
	m := &MultiTrace{Name: "x", Threads: []*Trace{tr, {Name: "x", Insts: make([]isa.Inst, 10)}}}
	m.Barriers = []BarrierSet{{At: []int{5}}}
	if err := m.Validate(); err == nil {
		t.Fatal("barrier with wrong arity accepted")
	}
	m.Barriers = []BarrierSet{{At: []int{5, 11}}}
	if err := m.Validate(); err == nil {
		t.Fatal("barrier index beyond trace accepted")
	}
	m.Barriers = []BarrierSet{{At: []int{5, 5}}, {At: []int{3, 6}}}
	if err := m.Validate(); err == nil {
		t.Fatal("non-monotonic barriers accepted")
	}
	m.Barriers = []BarrierSet{{At: []int{3, 3}}, {At: []int{6, 6}}}
	if err := m.Validate(); err != nil {
		t.Fatalf("valid barriers rejected: %v", err)
	}
}

func TestMeasure(t *testing.T) {
	tr := &Trace{Name: "m", Insts: []isa.Inst{
		{Op: isa.OpAdd},
		{Op: isa.OpMul},
		{Op: isa.OpDiv},
		{Op: isa.OpLoad, Addr: 0x40},
		{Op: isa.OpLoad, Addr: 0x48},  // same 64B line
		{Op: isa.OpStore, Addr: 0x80}, // new line
		{Op: isa.OpBr, Taken: true},
		{Op: isa.OpBr, Taken: false},
	}}
	s := Measure(tr)
	if s.Total != 8 || s.ALU != 1 || s.Mul != 1 || s.Div != 1 || s.Loads != 2 || s.Stores != 1 {
		t.Fatalf("mix wrong: %+v", s)
	}
	if s.Branches != 2 || s.Taken != 1 {
		t.Fatalf("branches wrong: %+v", s)
	}
	if s.UniqueLine != 2 {
		t.Fatalf("unique lines = %d, want 2", s.UniqueLine)
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("stats string: %s", s)
	}
}

func TestSingle(t *testing.T) {
	tr := &Trace{Name: "s", Insts: make([]isa.Inst, 3)}
	m := Single(tr)
	if len(m.Threads) != 1 || m.Name != "s" {
		t.Fatalf("Single wrong: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReadHostileInstructionCount: a 12-byte header that claims 2^31
// instructions and then ends must be rejected as ErrBadTrace without
// allocating for the claimed count (~96 GiB of isa.Inst).
func TestReadHostileInstructionCount(t *testing.T) {
	hostile := []byte("STRC\x01\x00\x01\x80\x80\x80\x80\x08") // version 1, no name, 1 thread, 2^31 insts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("hostile header: got %v, want ErrBadTrace", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
		t.Fatalf("hostile 12-byte header allocated %d bytes", d)
	}
}

// FuzzRead: the trace decoder must never panic, and any input it accepts
// must survive a Write/Read round trip unchanged.
func FuzzRead(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []*MultiTrace{randTrace(rng, "seed", 40, 1), randTrace(rng, "mt", 12, 3)} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("STRC\x01\x00\x01\x80\x80\x80\x80\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("rejection %v does not wrap ErrBadTrace", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, m)
		}
	})
}
