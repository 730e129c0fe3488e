package sim

import (
	"testing"

	"sharing/internal/trace"
	"sharing/internal/workload"
)

// benchTraceLen keeps BenchmarkMachineRun tractable while still exercising
// the working-set behaviour that distinguishes memory-bound from
// compute-bound benchmarks. `make bench` runs it.
const benchTraceLen = 50_000

var benchTraces = map[string]*trace.MultiTrace{}

func benchTrace(b *testing.B, name string) *trace.MultiTrace {
	b.Helper()
	if mt, ok := benchTraces[name]; ok {
		return mt
	}
	prof, err := workload.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	mt, err := prof.Generate(benchTraceLen, 2014)
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[name] = mt
	return mt
}

// BenchmarkMachineRun measures raw simulation wall-clock and allocation
// behaviour on representative workloads: mcf and omnetpp are memory-bound
// (long quiescent DRAM stalls the event-driven loop can skip), libquantum
// is a streaming scan, gobmk is compute-bound (near-zero skippable
// cycles, so it bounds the bookkeeping overhead of the fast path), and
// dedup at 8 Slices / 512 KB is the multithreaded quantum loop at its
// shortest banked quantum, the heaviest point of the sweep grid: the same
// sequential quantum loop every sweep runs for a multithreaded machine.
func BenchmarkMachineRun(b *testing.B) {
	cases := []struct {
		bench   string
		slices  int
		cacheKB int
	}{
		{"mcf", 4, 512},
		{"omnetpp", 4, 512},
		{"libquantum", 2, 256},
		{"gobmk", 4, 512},
		{"dedup", 8, 512},
	}
	for _, c := range cases {
		c := c
		b.Run(c.bench, func(b *testing.B) {
			mt := benchTrace(b, c.bench)
			p := DefaultParams(c.slices, c.cacheKB)
			b.ReportAllocs()
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := Run(p, mt)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(uint64(b.N)*uint64(len(mt.Threads))*benchTraceLen)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}
