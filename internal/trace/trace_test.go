package trace

import (
	"strings"
	"testing"

	"sharing/internal/isa"
)

// TestValidateThreads: a trace with no threads, or with a nil thread, is
// rejected; sim.Run and workload.Generate rely on Validate for both.
func TestValidateThreads(t *testing.T) {
	if err := (&MultiTrace{Name: "empty"}).Validate(); err == nil {
		t.Fatal("zero-thread trace accepted")
	}
	if err := (&MultiTrace{Name: "nil", Threads: []*Trace{nil}}).Validate(); err == nil {
		t.Fatal("nil thread accepted")
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
