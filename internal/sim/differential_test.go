package sim

import (
	"reflect"
	"testing"

	"sharing/internal/workload"
)

// TestEventDrivenMatchesStrictTick is the cycle-exactness proof for the
// event-driven main loop: every configuration point is run twice, once with
// the naive per-cycle reference loop (StrictTick) and once with cycle
// skipping, and the complete Result — cycles, instructions, per-VCore stall
// taxonomy, network, L2 and memory counters — must be bit-identical. The
// matrix spans memory-bound and compute-bound benchmarks, slice counts,
// cache allocations, and a multithreaded run with barriers and coherence
// traffic (dedup), which exercises the cross-engine rendezvous and
// idle-span barrier accounting.
func TestEventDrivenMatchesStrictTick(t *testing.T) {
	cases := []struct {
		bench   string
		slices  int
		cacheKB int
		n       int
		seed    int64
	}{
		{"mcf", 4, 512, 20000, 1},
		{"mcf", 1, 64, 12000, 2},
		{"omnetpp", 4, 512, 20000, 3},
		{"libquantum", 2, 256, 20000, 4},
		{"gobmk", 8, 512, 20000, 5},
		{"sjeng", 3, 256, 15000, 6},
		{"dedup", 2, 256, 12000, 7}, // multithreaded: barriers + invalidations
		{"dedup", 8, 512, 12000, 8}, // banked quantum of ~7 cycles: carried wakes
	}
	for _, c := range cases {
		c := c
		t.Run(c.bench, func(t *testing.T) {
			t.Parallel()
			prof, err := workload.Lookup(c.bench)
			if err != nil {
				t.Fatal(err)
			}
			mt, err := prof.Generate(c.n, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultParams(c.slices, c.cacheKB)
			fast, err := Run(p, mt)
			if err != nil {
				t.Fatal(err)
			}
			p.StrictTick = true
			strict, err := Run(p, mt)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Cycles != strict.Cycles {
				t.Errorf("cycles diverge: event-driven %d, strict %d", fast.Cycles, strict.Cycles)
			}
			if fast.Instructions != strict.Instructions {
				t.Errorf("instructions diverge: event-driven %d, strict %d", fast.Instructions, strict.Instructions)
			}
			for i := range strict.VCores {
				if !reflect.DeepEqual(fast.VCores[i], strict.VCores[i]) {
					t.Errorf("vcore %d stats diverge:\nevent-driven: %+v\nstrict:       %+v",
						i, fast.VCores[i], strict.VCores[i])
				}
			}
			if !reflect.DeepEqual(fast, strict) {
				t.Errorf("results diverge:\nevent-driven: %+v\nstrict:       %+v", fast, strict)
			}
		})
	}
}
