package fleet

import (
	"fmt"
	"math"
	"strings"

	"sharing/internal/econ"
)

// Report is the outcome of one fleet run.
type Report struct {
	Machines int
	Epochs   int
	// Events = Placed + Rejected + Departed, the lifecycle events simulated.
	Events, Placed, Rejected, Departed int
	// MachinesUsed counts machines that ever hosted a VM.
	MachinesUsed int
	// Searches counts pricing-group searches (bids priced); each covers every
	// arrival in its (benchmark, utility) group that epoch.
	Searches int
	// UtilityAdmitted is the summed objective score of placed VMs.
	UtilityAdmitted float64
	// SimSeconds is the simulated span (last event time).
	SimSeconds float64
	// Energy is the fleet total, summed in machine-ID order.
	Energy EnergyBreakdown
	// MachineEnergy is each machine's total joules, in machine-ID order.
	MachineEnergy []float64
	// Probe economy: UniqueProbes simulator runs were issued for Surfaces
	// distinct performance surfaces; the batch alternative costs GridProbes
	// (one lattice sweep per surface) and the naive online alternative
	// NaiveGridProbes (one sweep per bid).
	UniqueProbes, Surfaces      int
	GridProbes, NaiveGridProbes int
	// FinalPrices is the price vector after the run (moves only under
	// AdaptivePrices).
	FinalPrices econ.Market
}

// Fingerprint is the canonical digest the determinism differential compares:
// every quantity of the run, with floats rendered exactly (%.17g) and the
// per-machine energy vector folded through FNV-1a over its IEEE-754 bits.
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machines=%d epochs=%d events=%d placed=%d rejected=%d departed=%d used=%d searches=%d\n",
		r.Machines, r.Epochs, r.Events, r.Placed, r.Rejected, r.Departed, r.MachinesUsed, r.Searches)
	fmt.Fprintf(&b, "utility=%.17g simsec=%.17g\n", r.UtilityAdmitted, r.SimSeconds)
	fmt.Fprintf(&b, "energy=%.17g/%.17g/%.17g/%.17g\n",
		r.Energy.SliceStaticJ, r.Energy.SliceDynamicJ, r.Energy.BankStaticJ, r.Energy.BankDynamicJ)
	fmt.Fprintf(&b, "probes=%d surfaces=%d prices=%.17g/%.17g\n",
		r.UniqueProbes, r.Surfaces, r.FinalPrices.SliceCost, r.FinalPrices.BankCost)
	h := uint64(14695981039346656037)
	for _, e := range r.MachineEnergy {
		bits := math.Float64bits(e)
		for s := 0; s < 64; s += 8 {
			h = (h ^ (bits >> s & 0xff)) * 1099511628211
		}
	}
	fmt.Fprintf(&b, "machinehash=%016x\n", h)
	return b.String()
}

// String renders the human-readable summary cmd/fleet prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d machines, %d epochs, %.1f sim-seconds\n",
		r.Machines, r.Epochs, r.SimSeconds)
	fmt.Fprintf(&b, "events: %d (placed %d, rejected %d, departed %d), %d machines used\n",
		r.Events, r.Placed, r.Rejected, r.Departed, r.MachinesUsed)
	fmt.Fprintf(&b, "pricing: %d group searches, %d simulator probes over %d surfaces (grid sweep: %d; naive per-bid: %d)\n",
		r.Searches, r.UniqueProbes, r.Surfaces, r.GridProbes, r.NaiveGridProbes)
	fmt.Fprintf(&b, "admitted utility: %.2f; final prices Slice=%.3f bank=%.3f\n",
		r.UtilityAdmitted, r.FinalPrices.SliceCost, r.FinalPrices.BankCost)
	fmt.Fprintf(&b, "energy: %.1f J total (Slice static %.1f, Slice dynamic %.1f, bank static %.1f, bank dynamic %.1f)\n",
		r.Energy.TotalJ(), r.Energy.SliceStaticJ, r.Energy.SliceDynamicJ, r.Energy.BankStaticJ, r.Energy.BankDynamicJ)
	return b.String()
}
