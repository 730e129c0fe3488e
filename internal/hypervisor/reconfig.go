package hypervisor

import (
	"fmt"

	"sharing/internal/noc"
)

// Incremental VM reconfiguration. The batch experiment path rebuilds a
// machine from scratch for every configuration; the online market (the
// allocation core, internal/alloc) instead reshapes a running VM between phases or re-auctions, touching only
// the marginal resources: grown VCores extend their Slice runs in place,
// shrunk ones release their tails, and the bank set grows or shrinks around
// the VM's Slice centroid. A ReconfigPlan prices the transition so the
// market can charge the paper's reconfiguration penalties (Table 7)
// to the dynamic schedule.

// ReconfigPlan describes the marginal fabric operations of one VM reshape.
type ReconfigPlan struct {
	// AddSlices/DropSlices are per-VCore Slice deltas; AddBanks/DropBanks
	// are VM-wide 64 KB bank deltas. At most one of each pair is non-zero.
	AddSlices, DropSlices int
	AddBanks, DropBanks   int
	// Cycles is the hypervisor's reconfiguration penalty for the transition
	// (ReconfigCost: an L2 reshape forces a flush, a Slice-only change only
	// a register flush).
	Cycles int64
}

// Noop reports whether the plan changes nothing.
func (p ReconfigPlan) Noop() bool {
	return p.AddSlices == 0 && p.DropSlices == 0 && p.AddBanks == 0 && p.DropBanks == 0
}

// PlanReconfig prices the transition of one VCore-shaped VM from
// (oldSlices, oldCacheKB) to (newSlices, newCacheKB).
func PlanReconfig(oldSlices, oldCacheKB, newSlices, newCacheKB int) ReconfigPlan {
	p := ReconfigPlan{Cycles: ReconfigCost(oldCacheKB, newCacheKB, oldSlices, newSlices)}
	if d := newSlices - oldSlices; d > 0 {
		p.AddSlices = d
	} else {
		p.DropSlices = -d
	}
	if d := newCacheKB/BankKB - oldCacheKB/BankKB; d > 0 {
		p.AddBanks = d
	} else {
		p.DropBanks = -d
	}
	return p
}

// ResizeVM reshapes a VM in place to slicesPer Slices per VCore and banks
// shared banks, allocating or releasing only the difference. A grown VCore
// first tries to extend its contiguous Slice run within its column (the
// cheap path: no state moves); if the neighboring tiles are taken, that
// VCore's run is reallocated wholesale, which a real hypervisor would pay
// for with a full architectural-state migration. On any failure the VM is
// left exactly as it was.
func (f *Fabric) ResizeVM(vm *VMAlloc, slicesPer, banks int) error {
	if vm == nil || len(vm.VCores) == 0 {
		return fmt.Errorf("hypervisor: resize of empty VM")
	}
	if slicesPer < 1 || slicesPer > f.H {
		return fmt.Errorf("hypervisor: invalid target of %d Slices per VCore", slicesPer)
	}
	if banks < 0 {
		return fmt.Errorf("hypervisor: invalid target of %d banks", banks)
	}
	// Stage slice changes per VCore so a mid-way failure can roll back.
	type vcoreChange struct {
		idx      int
		slices   []noc.Coord // the VCore's new run
		acquired []noc.Coord // newly taken tiles (to free on rollback)
		released []noc.Coord // tiles to free on commit
	}
	var changes []vcoreChange
	rollback := func() {
		for _, ch := range changes {
			f.ReleaseSlices(ch.acquired)
		}
	}
	for i := range vm.VCores {
		run := vm.VCores[i].Slices
		switch {
		case slicesPer == len(run):
			continue
		case slicesPer < len(run):
			changes = append(changes, vcoreChange{
				idx:      i,
				slices:   run[:slicesPer],
				released: run[slicesPer:],
			})
		default:
			grown, acquired, ok := f.extendRun(run, slicesPer)
			if ok {
				changes = append(changes, vcoreChange{idx: i, slices: grown, acquired: acquired})
				continue
			}
			// The column is congested: move the whole run.
			fresh, err := f.AllocSlices(slicesPer)
			if err != nil {
				rollback()
				return fmt.Errorf("hypervisor: VCore %d: %w", i, err)
			}
			changes = append(changes, vcoreChange{idx: i, slices: fresh, acquired: fresh, released: run})
		}
	}
	// Stage the bank delta.
	if banks > len(vm.Banks) {
		staged := make(map[int][]noc.Coord, len(changes))
		for _, ch := range changes {
			staged[ch.idx] = ch.slices
		}
		anchor := vm.centroid(staged)
		extra, err := f.AllocBanks(banks-len(vm.Banks), anchor)
		if err != nil {
			rollback()
			return err
		}
		vm.Banks = append(vm.Banks, extra...)
	} else if banks < len(vm.Banks) {
		f.ReleaseBanks(vm.Banks[banks:])
		vm.Banks = vm.Banks[:banks]
	}
	// Commit slice changes.
	for _, ch := range changes {
		f.ReleaseSlices(ch.released)
		vm.VCores[ch.idx].Slices = ch.slices
	}
	return nil
}

// extendRun grows a contiguous vertical Slice run in its column to n tiles,
// preferring tiles below the run, then above. It returns the grown run and
// the newly acquired coordinates, or ok=false if the column cannot fit it.
func (f *Fabric) extendRun(run []noc.Coord, n int) (grown, acquired []noc.Coord, ok bool) {
	if len(run) == 0 {
		return nil, nil, false
	}
	x := run[0].X
	lo, hi := run[0].Y, run[len(run)-1].Y
	grown = append([]noc.Coord(nil), run...)
	for len(grown) < n {
		below := noc.Coord{X: x, Y: hi + 1}
		above := noc.Coord{X: x, Y: lo - 1}
		switch {
		case hi+1 < f.H && !f.sliceUsed[below]:
			f.sliceUsed[below] = true
			grown = append(grown, below)
			acquired = append(acquired, below)
			hi++
		case lo-1 >= 0 && !f.sliceUsed[above]:
			f.sliceUsed[above] = true
			// Keep the run ordered top-to-bottom.
			grown = append([]noc.Coord{above}, grown...)
			acquired = append(acquired, above)
			lo--
		default:
			f.ReleaseSlices(acquired)
			return nil, nil, false
		}
	}
	return grown, acquired, true
}

// centroid returns the VM's Slice centroid after the staged changes
// (VCore index -> its new run), the anchor for marginal bank placement.
func (vm *VMAlloc) centroid(staged map[int][]noc.Coord) noc.Coord {
	var cx, cy, n int
	for i := range vm.VCores {
		run := vm.VCores[i].Slices
		if s, ok := staged[i]; ok {
			run = s
		}
		for _, c := range run {
			cx += c.X
			cy += c.Y
			n++
		}
	}
	if n == 0 {
		return noc.Coord{}
	}
	return noc.Coord{X: cx / n, Y: cy / n}
}
