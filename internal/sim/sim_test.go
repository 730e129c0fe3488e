package sim

import (
	"strings"
	"testing"

	"sharing/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	p := DefaultParams(4, 512)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.CacheKB = 100 },
		func(p *Params) { p.CacheKB = -64 },
		func(p *Params) { p.OperandNetWidth = 0 },
		func(p *Params) { p.BankPortWidth = 0 },
		func(p *Params) { p.Mem.Latency = 0 },
		func(p *Params) { p.VCore.NumSlices = 0 },
	}
	for i, m := range bad {
		p := DefaultParams(4, 512)
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	prof, _ := workload.Lookup("sjeng")
	mt, _ := prof.Generate(15000, 3)
	a, err := Run(DefaultParams(3, 256), mt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultParams(3, 256), mt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("nondeterministic simulation: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestMultiVCoreCoherence(t *testing.T) {
	prof, _ := workload.Lookup("dedup")
	mt, _ := prof.Generate(12000, 5)
	res, err := Run(DefaultParams(2, 256), mt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VCores) != 4 {
		t.Fatalf("VCores = %d", len(res.VCores))
	}
	if res.Invalidations == 0 {
		t.Fatal("false sharing across VCores must trigger directory invalidations")
	}
	var barrierWaits int64
	for _, v := range res.VCores {
		barrierWaits += v.BarrierWaits
	}
	if barrierWaits == 0 {
		t.Fatal("threads never waited at a barrier")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Cycles: 200, Instructions: 100}
	if r.IPC() != 0.5 || r.Performance() != 0.5 {
		t.Fatalf("ipc %f", r.IPC())
	}
	if (&Result{}).IPC() != 0 {
		t.Fatal("zero-cycle IPC must be 0")
	}
}

func TestWiderOperandNetworkNeverSlower(t *testing.T) {
	prof, _ := workload.Lookup("gobmk")
	mt, _ := prof.Generate(20000, 9)
	p1 := DefaultParams(8, 256)
	p2 := DefaultParams(8, 256)
	p2.OperandNetWidth = 2
	r1, err := Run(p1, mt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p2, mt)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles > r1.Cycles {
		t.Fatalf("doubling SON bandwidth slowed execution: %d -> %d", r1.Cycles, r2.Cycles)
	}
	// The paper found the benefit to be tiny (~1%); allow up to 10% here.
	if sp := float64(r1.Cycles) / float64(r2.Cycles); sp > 1.10 {
		t.Fatalf("second operand network bought %.1f%%, expected a small effect", 100*(sp-1))
	}
}

func TestXMLConfigRoundTrip(t *testing.T) {
	c := DefaultXMLConfig()
	var sb strings.Builder
	if err := WriteConfig(&sb, c); err != nil {
		t.Fatal(err)
	}
	got, err := ParseConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	got.XMLName = c.XMLName // the decoder records the element name; ignore
	if *got != *c {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, c)
	}
}

func TestXMLConfigOverrides(t *testing.T) {
	xmlText := `<ssim>
  <benchmark>mcf</benchmark>
  <slices>4</slices>
  <cacheKB>512</cacheKB>
  <issueWindow>16</issueWindow>
  <robPerSlice>32</robPerSlice>
  <memoryDelay>200</memoryDelay>
  <l1SizeKB>32</l1SizeKB>
  <operandNetWidth>2</operandNetWidth>
</ssim>`
	c, err := ParseConfig(strings.NewReader(xmlText))
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.VCore.NumSlices != 4 || p.CacheKB != 512 {
		t.Fatalf("shape wrong: %+v", p.VCore)
	}
	if p.VCore.IssueWindow != 16 || p.VCore.ROBPerSlice != 32 {
		t.Fatal("window overrides ignored")
	}
	if p.Mem.Latency != 200 || p.OperandNetWidth != 2 {
		t.Fatal("latency/net overrides ignored")
	}
	if p.VCore.L1D.SizeBytes != 32<<10 {
		t.Fatal("L1 override ignored")
	}
	// Unset fields keep the paper defaults.
	if p.VCore.LSQSize != 32 || p.VCore.GlobalRegs != 128 {
		t.Fatal("defaults lost")
	}
}

func TestXMLConfigRejectsGarbage(t *testing.T) {
	if _, err := ParseConfig(strings.NewReader("not xml")); err == nil {
		t.Fatal("garbage accepted")
	}
	c := &XMLConfig{Slices: 12}
	if _, err := c.Params(); err == nil {
		t.Fatal("12-slice config accepted")
	}
	// 8 Slices x (400 ROB + 12 buffer) = 3296 in-flight instructions would
	// alias slots of the engine's 2048-entry flight ring.
	c, err := ParseConfig(strings.NewReader(`<ssim><slices>8</slices><robPerSlice>400</robPerSlice></ssim>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Params(); err == nil || !strings.Contains(err.Error(), "flight ring") {
		t.Fatalf("oversized ROB override: err = %v, want the flight-ring bound", err)
	}
}

func TestBankPlacementLatencyGrowsWithAllocation(t *testing.T) {
	// The paper's model: each additional 256 KB sits one hop further out,
	// so a larger allocation has a higher average L2 hit latency. Verify
	// via a cache-resident workload where L2 hits dominate.
	prof, _ := workload.Lookup("libquantum")
	mt, _ := prof.Generate(20000, 5)
	small, err := Run(DefaultParams(2, 256), mt)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(DefaultParams(2, 8192), mt)
	if err != nil {
		t.Fatal(err)
	}
	if large.Cycles <= small.Cycles {
		t.Fatalf("8MB should be slower than 256KB for an L2-insensitive benchmark: %d vs %d",
			large.Cycles, small.Cycles)
	}
}
