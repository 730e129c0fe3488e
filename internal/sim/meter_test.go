package sim

import (
	"fmt"
	"testing"

	"sharing/internal/trace"
	"sharing/internal/workload"
)

// generate builds the trace of one benchmark profile.
func generate(t *testing.T, bench string, n int, seed int64) *trace.MultiTrace {
	t.Helper()
	prof, err := workload.Lookup(bench)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := prof.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// TestMeterWindowCoversHorizon requires every port meter of a machine to end
// its run without an alias (Result.MeterAliases == 0), which proves that the
// window sized to the machine's latency horizon granted every reservation
// as an unbounded per-cycle meter, and so as the largest window, would. It
// covers every benchmark profile at 1, 2, 4 and 8 Slices and 0, 128, 512 and
// 2048 KB of L2; the BenchmarkMachineRun cases; a StrictTick run; and dedup
// and mcf at memory latencies from 1 cycle to the largest Validate accepts,
// and at the largest L1 hit latency.
func TestMeterWindowCoversHorizon(t *testing.T) {
	check := func(name string, p Params, mt *trace.MultiTrace) {
		t.Helper()
		res, err := Run(p, mt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MeterAliases != 0 {
			t.Errorf("%s: %d meter aliases in a %d-cycle window (memory latency %d, L1 hit latency %d)",
				name, res.MeterAliases, p.meterWindow(), p.Mem.Latency, p.VCore.L1HitLatency)
		}
	}

	const n = 20_000
	for _, bench := range workload.Names() {
		mt := generate(t, bench, n, 1)
		for _, slices := range []int{1, 2, 4, 8} {
			for _, kb := range []int{0, 128, 512, 2048} {
				check(fmt.Sprintf("%s %d Slices %d KB", bench, slices, kb), DefaultParams(slices, kb), mt)
			}
		}
	}

	for _, c := range []struct {
		bench      string
		slices, kb int
	}{
		{"mcf", 4, 512},
		{"omnetpp", 4, 512},
		{"libquantum", 2, 256},
		{"gobmk", 4, 512},
		{"dedup", 8, 512},
	} {
		mt := generate(t, c.bench, benchTraceLen, 2014)
		check(fmt.Sprintf("BenchmarkMachineRun/%s", c.bench), DefaultParams(c.slices, c.kb), mt)
	}

	p := DefaultParams(4, 512)
	p.StrictTick = true
	check("mcf strict tick", p, generate(t, "mcf", n, 1))

	for _, bench := range []string{"dedup", "mcf"} {
		mt := generate(t, bench, n, 1)
		for _, lat := range []int64{1, 100, 300, 1000, 1024} {
			p := DefaultParams(4, 512)
			p.Mem.Latency = lat
			check(fmt.Sprintf("%s memory latency %d", bench, lat), p, mt)
		}
		p := DefaultParams(4, 512)
		p.VCore.L1HitLatency = 1024
		check(fmt.Sprintf("%s L1 hit latency 1024", bench), p, mt)
	}
}
