package autotuner

import (
	"testing"

	"sharing/internal/econ"
	"sharing/internal/hypervisor"
)

// phasesWithDrift builds phases whose optimum drifts from a small to a large
// configuration, on a full grid so the tuner can walk anywhere.
func phasesWithDrift(n int) []econ.PhaseData {
	grid := func(f func(c econ.Config) float64) *econ.Surface {
		return cycles(func(c econ.Config) float64 { return 1e6 / f(c) })
	}
	var phases []econ.PhaseData
	for i := 0; i < n; i++ {
		// Early phases: flat in resources (small is best per area).
		// Late phases: cache and Slices pay off.
		w := float64(i) / float64(n-1)
		f := func(c econ.Config) float64 {
			gain := 1 + w*(0.6*float64(c.Slices-1)+1.2*float64(c.CacheKB)/(float64(c.CacheKB)+512))
			return gain
		}
		phases = append(phases, econ.PhaseData{Insts: 1_000_000, Cycles: grid(f)})
	}
	return phases
}

// cycles returns the whole-cycle counts 1e6/perf over the full 8 x 9
// lattice, so the tuner can walk anywhere.
func cycles(cyc func(c econ.Config) float64) *econ.Surface {
	lat, err := econ.NewLattice([]int{1, 2, 3, 4, 5, 6, 7, 8}, []int{0, 64, 128, 256, 512, 1024, 2048, 4096, 8192})
	if err != nil {
		panic(err)
	}
	s := econ.NewSurface(lat)
	for x := range s.Values {
		s.Values[x] = float64(int64(cyc(lat.Point(x))))
	}
	return s
}

func reconfig(a, b econ.Config) int64 {
	return hypervisor.ReconfigCost(a.CacheKB, b.CacheKB, a.Slices, b.Slices)
}

func TestTunerFollowsDrift(t *testing.T) {
	phases := phasesWithDrift(12)
	start := econ.Config{Slices: 1, CacheKB: 64}
	sched, err := Tune(phases, 2, 0.05, start, reconfig)
	if err != nil {
		t.Fatal(err)
	}
	first, last := sched.PerPhase[0], sched.PerPhase[len(sched.PerPhase)-1]
	if last.Slices <= first.Slices && last.CacheKB <= first.CacheKB {
		t.Fatalf("tuner did not follow the drift: %v -> %v", first, last)
	}
	if sched.Moves == 0 || sched.Probes == 0 {
		t.Fatalf("tuner never explored: %+v", sched)
	}
}

func TestTunerBeatsStaticLosesToOracle(t *testing.T) {
	phases := phasesWithDrift(12)
	oracle, err := econ.PhaseAnalysis(phases, 2, reconfig)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Tune(phases, 2, 0.05, econ.Config{Slices: 1, CacheKB: 64}, reconfig)
	if err != nil {
		t.Fatal(err)
	}
	if sched.GME > oracle.DynGME {
		t.Fatalf("a feedback tuner cannot beat the oracle: %.4g vs %.4g", sched.GME, oracle.DynGME)
	}
	if sched.GME <= oracle.StaticGME {
		t.Fatalf("tuner (%.4g) should beat the best static config (%.4g) on drifting phases",
			sched.GME, oracle.StaticGME)
	}
}

func TestTunerStationaryStaysPut(t *testing.T) {
	// Identical phases with a clear optimum: the tuner should find it and
	// then stop moving.
	grid := cycles(func(c econ.Config) float64 {
		perf := 1.0
		if c.Slices == 2 && c.CacheKB == 128 {
			perf = 3.0 // sharp optimum
		}
		return 1e6 / perf
	})
	var phases []econ.PhaseData
	for i := 0; i < 8; i++ {
		phases = append(phases, econ.PhaseData{Insts: 1_000_000, Cycles: grid})
	}
	sched, err := Tune(phases, 2, 0.05, econ.Config{Slices: 2, CacheKB: 256}, reconfig)
	if err != nil {
		t.Fatal(err)
	}
	// From (2,256KB), (2,128KB) is a lattice neighbour: found in phase 1.
	for pi, c := range sched.PerPhase {
		if pi >= 1 && c != (econ.Config{Slices: 2, CacheKB: 128}) {
			t.Fatalf("phase %d at %v, want the sharp optimum", pi, c)
		}
	}
	if sched.Moves != 1 {
		t.Fatalf("expected exactly one move, got %d", sched.Moves)
	}
}

func TestTuneErrors(t *testing.T) {
	phases := phasesWithDrift(3)
	if _, err := Tune(nil, 1, 0.05, econ.Config{Slices: 1}, reconfig); err == nil {
		t.Fatal("no phases accepted")
	}
	if _, err := Tune(phases, 1, 0, econ.Config{Slices: 1}, reconfig); err == nil {
		t.Fatal("zero probe fraction accepted")
	}
	if _, err := Tune(phases, 1, 0.05, econ.Config{Slices: 0}, reconfig); err == nil {
		t.Fatal("invalid start accepted")
	}
	// Phase 1 measures one point, far from where phase 0 leaves the tuner.
	bad := phasesWithDrift(2)
	far, err := econ.NewLattice([]int{8}, []int{8192})
	if err != nil {
		t.Fatal(err)
	}
	bad[1].Cycles = econ.NewSurface(far)
	if _, err := Tune(bad, 1, 0.05, econ.Config{Slices: 1, CacheKB: 64}, reconfig); err == nil {
		t.Fatal("missing measurement accepted")
	}
}

func TestNeighboursRespectEquation3(t *testing.T) {
	for _, c := range []econ.Config{
		{Slices: 1, CacheKB: 0},
		{Slices: 8, CacheKB: 8192},
		{Slices: 4, CacheKB: 64},
	} {
		for _, n := range neighbours(c) {
			if !n.Valid() {
				t.Errorf("neighbour %v of %v violates Equation 3", n, c)
			}
			if n == c {
				t.Errorf("self neighbour of %v", c)
			}
		}
	}
	if len(neighbours(econ.Config{Slices: 1, CacheKB: 0})) == 0 {
		t.Fatal("corner config has no moves")
	}
}
