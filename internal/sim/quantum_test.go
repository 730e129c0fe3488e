package sim

import (
	"reflect"
	"testing"

	"sharing/internal/trace"
	"sharing/internal/workload"
)

// genThreads generates bench's profile with its thread count overridden to
// engines, so a test can pick the machine width. Forced multithreading
// keeps per-thread address spaces disjoint except for the profile's
// configured sharing.
func genThreads(t *testing.T, bench string, engines, n int, seed int64) *trace.MultiTrace {
	t.Helper()
	prof, err := workload.Lookup(bench)
	if err != nil {
		t.Fatal(err)
	}
	p := *prof
	p.Threads = engines
	mt, err := p.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// TestParallelMatchesSequential pins the deprecated Params.Sequential as a
// no-op across the whole mode matrix: every workload profile at every
// machine width is run with it set and cleared, and the complete Result
// must be identical. Both settings run the one quantum loop on the calling
// goroutine, so the pair is also a run-to-run determinism check of that
// loop at every width. Combined with TestEventDrivenMatchesStrictTick
// (strict/event-driven equivalence) this pins the matrix to one
// deterministic semantics.
func TestParallelMatchesSequential(t *testing.T) {
	engineCounts := []int{1, 2, 4, 8}
	n := 4000
	if testing.Short() {
		engineCounts = []int{2, 4}
		n = 2000
	}
	for _, bench := range workload.Names() {
		for _, ne := range engineCounts {
			bench, ne := bench, ne
			//ssim:nolint cyclemath: ne <= 8, a single digit
			t.Run(bench+"/"+string(rune('0'+ne)), func(t *testing.T) {
				t.Parallel()
				mt := genThreads(t, bench, ne, n, int64(31*ne)+7)
				p := DefaultParams(2, 64*ne)
				p.Sequential = true
				seq, err := Run(p, mt)
				if err != nil {
					t.Fatal(err)
				}
				p.Sequential = false
				got, err := Run(p, mt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, got) {
					t.Fatalf("Params.Sequential changed the result:\ntrue:  %+v\nfalse: %+v", seq, got)
				}
			})
		}
	}
}

// TestParallelGoldenBothModes is the golden guard for quantum execution: a
// coherence-heavy multithreaded run must commit the architecturally
// correct state of every thread (vs the reference interpreter) through the
// fabric buffering and barrier merges, with the deprecated
// Params.Sequential set and cleared, and both runs must agree on every
// counter.
func TestParallelGoldenBothModes(t *testing.T) {
	prof, err := workload.Lookup("dedup")
	if err != nil {
		t.Fatal(err)
	}
	mt, err := prof.Generate(10000, 11)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(2, 256)
	p.Sequential = true
	seq := runGolden(t, p, mt)
	p.Sequential = false
	got := runGolden(t, p, mt)
	if !reflect.DeepEqual(seq, got) {
		t.Fatalf("golden results diverge:\nSequential=true:  %+v\nSequential=false: %+v", seq, got)
	}
	if seq.Invalidations == 0 {
		t.Fatal("dedup run produced no invalidations; coherence path not exercised")
	}
	t.Logf("dedup 4 threads: cycles=%d ipc=%.3f invalidations=%d", seq.Cycles, seq.IPC(), seq.Invalidations)
}

// TestQuantumClamp checks that a user quantum longer than the topology
// lookahead is clamped to it, and that a shorter one is honored. The
// quantum length is part of the machine's deterministic timing semantics
// (store visibility is charged from quantum-start directory state), so a
// given Q always reproduces exactly, and the experiments results cache
// keys non-default quanta separately.
func TestQuantumClamp(t *testing.T) {
	mt := genThreads(t, "ferret", 2, 3000, 5)
	p := DefaultParams(2, 128)
	mc, err := NewMachine(p, mt)
	if err != nil {
		t.Fatal(err)
	}
	la := mc.Quantum()
	if la < 1 {
		t.Fatalf("lookahead quantum %d < 1", la)
	}
	p.Quantum = int(la) + 100
	mc2, err := NewMachine(p, mt)
	if err != nil {
		t.Fatal(err)
	}
	if mc2.Quantum() != la {
		t.Fatalf("quantum not clamped to lookahead: got %d want %d", mc2.Quantum(), la)
	}
	p.Quantum = 1
	mc3, err := NewMachine(p, mt)
	if err != nil {
		t.Fatal(err)
	}
	if mc3.Quantum() != 1 {
		t.Fatalf("explicit quantum not honored: got %d want 1", mc3.Quantum())
	}
}
