package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sharing/internal/fleet"
)

// TestNewFleetSimulatorBacked drives a small fleet whose pricing probes run
// the real cycle-level simulator through the Runner, end to end.
func TestNewFleetSimulatorBacked(t *testing.T) {
	r := tiny(t)
	f, err := NewFleet(r, fleet.Params{
		Machines:       4,
		Events:         20,
		ArrivalsPerSec: 4,
		MeanLifetime:   1,
		Seed:           7,
		Benches:        []string{"hmmer", "gobmk"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placed == 0 || rep.Energy.TotalJ() <= 0 {
		t.Fatalf("degenerate run: %+v", rep)
	}
	if int64(rep.UniqueProbes) != r.SimRuns() {
		t.Errorf("fleet reports %d probes, runner ran %d simulations", rep.UniqueProbes, r.SimRuns())
	}
	if rep.UniqueProbes >= rep.NaiveGridProbes {
		t.Errorf("no probe economy: %d probes vs %d naive", rep.UniqueProbes, rep.NaiveGridProbes)
	}
}

// TestNewFleetStoppedRunner covers the path behind cmd/fleet's exit 130: a
// simulator-backed fleet over a stopped Runner fails its first pricing with
// ErrStopped and starts no simulation. Every arrival falls in one epoch, so
// the cold groups of both benchmarks fail at once, and the error reported
// must be the lowest group's: gobmk sorts before hmmer.
func TestNewFleetStoppedRunner(t *testing.T) {
	r := tiny(t)
	r.Stop()
	f, err := NewFleet(r, fleet.Params{
		Machines:       4,
		Events:         40,
		ArrivalsPerSec: math.Inf(1),
		Seed:           7,
		Benches:        []string{"hmmer", "gobmk"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run over a stopped runner: err = %v, want ErrStopped", err)
	}
	if n := r.SimRuns(); n != 0 {
		t.Errorf("a stopped runner ran %d simulations", n)
	}
	if !strings.HasPrefix(err.Error(), "gobmk/") {
		t.Errorf("err = %v, want the lowest group's (gobmk)", err)
	}
}

// TestFig17KMovesWithMix: the K-type generalization must reproduce the
// Fig. 17 phenomenon — the optimal share vector moves with the job mix —
// and the single-class corners must favor that class's own core type.
func TestFig17KMovesWithMix(t *testing.T) {
	r := tiny(t)
	res, err := Fig17K(r, []string{"hmmer", "gobmk"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Types) < 2 {
		t.Fatalf("degenerate type set: %+v", res.Types)
	}
	if len(res.Best) != len(res.Mixes) {
		t.Fatalf("%d optima for %d mixes", len(res.Best), len(res.Mixes))
	}
	// Corner mixes (all jobs one class) must not share one optimal share
	// vector with both corners unless the types are interchangeable; at
	// minimum the sweep must produce a valid simplex point per mix.
	moved := false
	first := res.Best[0].Shares
	for _, p := range res.Best {
		sum := 0.0
		for _, s := range p.Shares {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("share vector %v not on the simplex", p.Shares)
		}
		for i := range p.Shares {
			if p.Shares[i] != first[i] {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("optimal share vector never moved with the job mix")
	}
}

// TestFig17KValidation covers the error path.
func TestFig17KValidation(t *testing.T) {
	r := tiny(t)
	if _, err := Fig17K(r, []string{"hmmer"}); err == nil {
		t.Error("single-benchmark fig17k accepted")
	}
}
