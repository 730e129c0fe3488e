package econ

import (
	"testing"
)

// toyPhases builds two alternating phases: phase A runs best on a small
// config, phase B on a large one; a static choice must compromise.
func toyPhases() []PhaseData {
	small := Config{Slices: 1, CacheKB: 64}
	large := Config{Slices: 4, CacheKB: 1024}
	mid := Config{Slices: 2, CacheKB: 256}
	// The six other points of the lattice run 100 times slower than any of
	// these three, so they never win.
	mk := func(cyc map[Config]float64) PhaseData {
		return PhaseData{Insts: 100000, Cycles: sparseSurface([]int{1, 2, 4}, []int{64, 256, 1024}, 4e7, cyc)}
	}
	var phases []PhaseData
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			phases = append(phases, mk(map[Config]float64{
				small: 100000, large: 95000, mid: 99000,
			}))
		} else {
			phases = append(phases, mk(map[Config]float64{
				small: 400000, large: 120000, mid: 220000,
			}))
		}
	}
	return phases
}

func noReconfig(a, b Config) int64 { return 0 }

func TestPhaseAnalysisPicksPerPhaseOptima(t *testing.T) {
	sched, err := PhaseAnalysis(toyPhases(), 3, noReconfig)
	if err != nil {
		t.Fatal(err)
	}
	small := Config{Slices: 1, CacheKB: 64}
	large := Config{Slices: 4, CacheKB: 1024}
	for i, c := range sched.PerPhase {
		want := small
		if i%2 == 1 {
			want = large
		}
		if c != want {
			t.Fatalf("phase %d chose %v, want %v", i, c, want)
		}
	}
	if sched.Gain <= 0 {
		t.Fatalf("dynamic schedule must beat static on alternating phases, gain %f", sched.Gain)
	}
}

func TestPhaseAnalysisReconfigCostReducesGain(t *testing.T) {
	free, err := PhaseAnalysis(toyPhases(), 3, noReconfig)
	if err != nil {
		t.Fatal(err)
	}
	costly, err := PhaseAnalysis(toyPhases(), 3, func(a, b Config) int64 {
		if a != b {
			return 10000
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if costly.Gain >= free.Gain {
		t.Fatalf("reconfiguration cost must reduce gain: %f vs %f", costly.Gain, free.Gain)
	}
	if costly.Gain <= 0 {
		t.Fatalf("10k-cycle reconfig on 100k-cycle phases should still win, gain %f", costly.Gain)
	}
}

func TestPhaseAnalysisUniformPhasesNoGain(t *testing.T) {
	// Identical phases: dynamic = static, gain ~ 0.
	uniform := make([]PhaseData, 4)
	cyc := sparseSurface([]int{1, 2}, []int{64, 128}, 1e7, map[Config]float64{
		{Slices: 1, CacheKB: 64}:  100000,
		{Slices: 2, CacheKB: 128}: 80000,
	})
	for i := range uniform {
		uniform[i] = PhaseData{Insts: 50000, Cycles: cyc}
	}
	sched, err := PhaseAnalysis(uniform, 2, noReconfig)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Gain > 1e-9 || sched.Gain < -1e-9 {
		t.Fatalf("uniform phases gained %f, want 0", sched.Gain)
	}
	if sched.StaticBest != sched.PerPhase[0] {
		t.Fatal("static best must equal the common per-phase optimum")
	}
}

func TestPhaseAnalysisErrors(t *testing.T) {
	if _, err := PhaseAnalysis(nil, 1, noReconfig); err == nil {
		t.Fatal("empty phases accepted")
	}
	// A later phase measured on another lattice must error.
	bad := toyPhases()
	bad[3].Cycles = sparseSurface([]int{1, 2, 4}, []int{64, 256}, 1e5, nil)
	if _, err := PhaseAnalysis(bad, 1, noReconfig); err == nil {
		t.Fatal("inconsistent lattices accepted")
	}
}

func TestDatacenterMixMovesWithAppRatio(t *testing.T) {
	// Benchmark A prefers small cores, B prefers big cores.
	gA := dcPair(1.1, 1.0)
	gB := dcPair(3.0, 0.5)
	fracs := []float64{0, 0.25, 0.5, 0.75, 1}
	points, err := DatacenterMix(gA, gB, BigCore(), SmallCore(), 1, fracs, fracs)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 25 {
		t.Fatalf("%d points", len(points))
	}
	opt := OptimalBigFrac(points)
	// All-A (appFrac 1) wants fewer big cores than all-B (appFrac 0).
	if opt[1.0] >= opt[0.0] {
		t.Fatalf("optimal big fraction must move with the mix: A-heavy %f vs B-heavy %f", opt[1.0], opt[0.0])
	}
}

func TestDatacenterMixMissingMeasurement(t *testing.T) {
	gA := sparseSurface([]int{3}, []int{256}, 1, nil) // only the big core
	gB := dcPair(1, 1)
	if _, err := DatacenterMix(gA, gB, BigCore(), SmallCore(), 1, []float64{0.5}, []float64{0.5}); err == nil {
		t.Fatal("missing small-core measurement accepted")
	}
}
