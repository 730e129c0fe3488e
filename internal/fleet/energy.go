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

// machine is one chip's occupancy and energy state. All mutation happens on
// the owning shard in (time, seq) order, so the accrual sequence — and with
// it every float result — is independent of the shard count.
type machine struct {
	slices, banks int
	vms           int
	// Dynamic power of the resident VMs, by component.
	dynSliceW, dynBankW float64
	lastT               float64
	energy              EnergyBreakdown
	everUsed            bool
}

func (m *machine) init(slices, banks int) {
	m.slices, m.banks = slices, banks
}

// accrue integrates the current power draw over [lastT, t). The integral is
// strictly monotonic in time: departures are delivered one barrier late with
// their true (earlier) timestamp, so t can predate a prior touch — rewinding
// lastT there would re-integrate the span [t, lastT] on the next accrual and
// silently over-count energy. On backward or zero dt the state change simply
// takes effect at lastT instead.
//
//ssim:hotpath
func (m *machine) accrue(t float64) {
	dt := t - m.lastT
	if dt <= 0 {
		return
	}
	sliceStaticW := float64(m.slices) * area.SliceStaticW()
	bankStaticW := float64(m.banks) * area.BankStaticW()
	if m.vms == 0 {
		// Parked: the chip is power-gated down to a leakage floor.
		sliceStaticW *= area.ParkedLeakFrac
		bankStaticW *= area.ParkedLeakFrac
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
func vmDynamicW(l lease) (sliceW, bankW float64) {
	a := area.Activity(l.perf, l.slices)
	sliceW = float64(l.slices) * area.SliceDynamicW() * a
	bankW = float64(l.banks) * area.BankDynamicW() * a
	return sliceW, bankW
}

// admit settles energy to t and adds the VM's dynamic draw.
func (m *machine) admit(t float64, l lease) {
	m.accrue(t)
	s, b := vmDynamicW(l)
	m.dynSliceW += s
	m.dynBankW += b
	m.vms++
	m.everUsed = true
}

// evict settles energy to t and removes the VM's dynamic draw.
func (m *machine) evict(t float64, l lease) {
	m.accrue(t)
	s, b := vmDynamicW(l)
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
