package fleet

import (
	"sharing/internal/area"
	"sharing/internal/econ"
)

// Per-machine power/energy accounting over the internal/area 45nm power
// model. Power is piecewise-constant between occupancy changes, so each
// machine integrates energy lazily: a single accrual per event that touches
// it, plus one at the end of the run. Idle and parked machines therefore
// cost no per-epoch work at all — the wholesale fast-forward that lets the
// fleet loop scale with events, not machines x time.

// EnergyBreakdown is joules split by component, the per-Slice/L2-bank
// accounting surfaced in reports.
type EnergyBreakdown struct {
	SliceStaticJ  float64 // leakage in Slices (parked share included)
	SliceDynamicJ float64 // activity-scaled switching in rented Slices
	BankStaticJ   float64 // leakage in L2 banks (parked share included)
	BankDynamicJ  float64 // activity-scaled switching in rented banks
}

// TotalJ is the summed energy.
func (e *EnergyBreakdown) TotalJ() float64 {
	return e.SliceStaticJ + e.SliceDynamicJ + e.BankStaticJ + e.BankDynamicJ
}

// add accumulates o into e.
//
//ssim:hotpath
func (e *EnergyBreakdown) add(o *EnergyBreakdown) {
	e.SliceStaticJ += o.SliceStaticJ
	e.SliceDynamicJ += o.SliceDynamicJ
	e.BankStaticJ += o.BankStaticJ
	e.BankDynamicJ += o.BankDynamicJ
}

// chipPower is the fleet's one chip power model: every machine is the same
// chip (Params.ChipSlices, ChipBanks), so its static draw on and parked, and
// the per-resource dynamic watts, are computed once per fleet instead of on
// every accrual. Each field is computed by the same float operations, in the
// same order, as evaluating the area model per accrual would, so the energy
// integrals match it bit for bit (TestChipPowerMatchesAreaModel).
type chipPower struct {
	sliceOnW, bankOnW         float64 // static watts of a powered chip
	sliceParkedW, bankParkedW float64 // static watts of a parked chip
	sliceDynW, bankDynW       float64 // one Slice's / bank's dynamic watts at full activity
}

func newChipPower(chipSlices, chipBanks int) chipPower {
	sliceOnW := float64(chipSlices) * area.SliceStaticW()
	bankOnW := float64(chipBanks) * area.BankStaticW()
	return chipPower{
		sliceOnW:     sliceOnW,
		bankOnW:      bankOnW,
		sliceParkedW: sliceOnW * area.ParkedLeakFrac,
		bankParkedW:  bankOnW * area.ParkedLeakFrac,
		sliceDynW:    area.SliceDynamicW(),
		bankDynW:     area.BankDynamicW(),
	}
}

// machine is one chip's occupancy and energy state, exactly one 64-byte
// cache line. All mutation happens during placement, in (time, seq) order,
// so the accrual sequence — and with it every float result — is fixed by
// the event stream.
type machine struct {
	// Dynamic power of the resident VMs, by component.
	dynSliceW, dynBankW float64
	lastT               float64
	energy              EnergyBreakdown
	// vms is bounded by the chip's Slices: every VM rents at least one.
	vms      int32
	everUsed bool
}

// accrue integrates the current power draw over [lastT, t). The integral is
// strictly monotonic in time: departures are delivered one epoch late with
// their true (earlier) timestamp, so t can predate a prior touch — rewinding
// lastT there would re-integrate the span [t, lastT] on the next accrual and
// silently over-count energy. On backward or zero dt the state change simply
// takes effect at lastT instead.
//
//ssim:hotpath
func (m *machine) accrue(t float64, pw *chipPower) {
	dt := t - m.lastT
	if dt <= 0 {
		return
	}
	sliceStaticW, bankStaticW := pw.sliceOnW, pw.bankOnW
	if m.vms == 0 {
		// Parked: the chip is power-gated down to a leakage floor.
		sliceStaticW, bankStaticW = pw.sliceParkedW, pw.bankParkedW
	}
	m.energy.SliceStaticJ += sliceStaticW * dt
	m.energy.BankStaticJ += bankStaticW * dt
	m.energy.SliceDynamicJ += m.dynSliceW * dt
	m.energy.BankDynamicJ += m.dynBankW * dt
	m.lastT = t
}

// vmDynamicW returns a leased VM's dynamic power split into Slice and bank
// parts: per-resource switching power scaled by the VM's measured activity
// factor (IPC against the rented Slices' peak).
func vmDynamicW(l lease, pw *chipPower) (sliceW, bankW float64) {
	a := area.Activity(l.perf, int(l.slices))
	sliceW = float64(l.slices) * pw.sliceDynW * a
	bankW = float64(l.banks) * pw.bankDynW * a
	return sliceW, bankW
}

// admit settles energy to t and adds the VM's dynamic draw.
func (m *machine) admit(t float64, l lease, pw *chipPower) {
	m.accrue(t, pw)
	s, b := vmDynamicW(l, pw)
	m.dynSliceW += s
	m.dynBankW += b
	m.vms++
	m.everUsed = true
}

// evict settles energy to t and removes the VM's dynamic draw.
func (m *machine) evict(t float64, l lease, pw *chipPower) {
	m.accrue(t, pw)
	s, b := vmDynamicW(l, pw)
	m.dynSliceW -= s
	m.dynBankW -= b
	m.vms--
	if m.vms == 0 {
		// Clear float residue so a re-parked machine draws exactly its floor.
		m.dynSliceW, m.dynBankW = 0, 0
	}
}

// vcorePowerW is the power one VCore at cfg draws — its share of static plus
// its activity-scaled dynamic power — the denominator of the fleet's
// utility-per-watt objective.
func vcorePowerW(cfg econ.Config, perf float64) float64 {
	static := float64(cfg.Slices)*area.SliceStaticW() + float64(cfg.Banks())*area.BankStaticW()
	return static + area.VCoreDynamicW(cfg.Slices, cfg.CacheKB, area.Activity(perf, cfg.Slices))
}
