package vcore

import (
	"fmt"

	"sharing/internal/isa"
)

// This file implements functional fast-forward: the warming half of sampled
// simulation (SMARTS-style interval sampling). FastForward replays a span of
// the trace updating only the architectural state that carries history into
// a later detailed window — register values, the committed memory image, L1
// instruction/data tags, branch predictor/BTB state, and (through the
// WarmUncore hooks) L2 bank tags and directory sharer sets — with no ROB,
// LSQ, issue, network, or event-queue activity. It is therefore an order of
// magnitude cheaper per instruction than detailed execution, and it leaves
// every timing statistic untouched so that measured windows report only
// their own behaviour.

// WarmUncore is the optional functional-warming extension of Uncore: the
// timing-free counterparts of L2Load, StoreVisible, and WritebackDirty.
// Each updates the same L2 tag, LRU, dirty, and directory-sharer state its
// detailed twin would, but models no network, port, or memory timing and
// records no hit/miss statistics. An Uncore that does not implement
// WarmUncore still works with FastForward; its L2 simply stays cold.
type WarmUncore interface {
	// WarmLoad touches the line containing addr in its home bank for
	// reading, as a committed L1 miss would.
	WarmLoad(addr uint64)
	// WarmStore makes a committed store to addr visible at the coherence
	// point, invalidating remote sharers' L1 copies.
	WarmStore(addr uint64)
	// WarmWriteback installs a dirty L1 victim line in its home bank.
	WarmWriteback(addr uint64)
}

// l1dReal reconstructs the real line address from a Slice's de-interleaved
// L1D index space (inverse of l1dIndex for owner Slice o).
func (e *Engine) l1dReal(idx uint64, o int) uint64 {
	return ((idx>>6)*uint64(e.cfg.NumSlices) + uint64(o)) << 6
}

// FastForward functionally executes the trace up to (but excluding) dynamic
// instruction target. It requires the pipeline to be drained (no in-flight
// work — call FlushInFlight first after a detailed window); now is the
// current simulated cycle, used only to keep the commit watchdog quiet.
// Targets at or before the current commit head are a no-op.
//
// Per instruction it performs exactly the architectural updates detailed
// execution would commit: I-side line touch (with L2 warm-through on a
// miss), predictor/gshare/BTB training for control transfers, D-side line
// touch plus memory-image read for loads and write for stores (with dirty
// write-allocation, victim writeback warming, and store visibility at the
// directory), and register-file writes computed by isa.Eval. The loop is
// allocation-free; the only allocation it can reach is the memory image's
// table doubling, shared with detailed execution.
//
//ssim:hotpath
func (e *Engine) FastForward(target uint64, now int64) error {
	if e.err != nil {
		return e.err
	}
	if n := uint64(len(e.tr)); target > n {
		target = n
	}
	if target <= e.commitHead {
		return nil
	}
	if e.commitHead != e.fetchSeq {
		//ssim:nolint hotalloc: misuse error path, never taken by the sampling controller
		return fmt.Errorf("vcore: %s: FastForward with in-flight instructions (commit %d, fetch %d); call FlushInFlight first",
			e.name, e.commitHead, e.fetchSeq)
	}
	wu := e.warmU
	lastIL := ^uint64(0) // memo: last I-line warmed (consecutive PCs share lines)
	for seq := e.commitHead; seq < target; seq++ {
		in := &e.tr[seq]
		k := e.pcOwner(in.PC)
		// Instruction side: one 8-byte line per aligned pair.
		if il := in.PC &^ 7; il != lastIL {
			lastIL = il
			if hit, _, _, _ := e.l1i[k].Warm(e.l1iIndex(il), false); !hit && wu != nil {
				wu.WarmLoad(il)
			}
		}
		switch {
		case in.Op == isa.OpBr:
			if e.gshare != nil {
				e.gshare.Train(e.pcIndex(in.PC), in.Taken, false)
			} else {
				e.pred[k].Train(e.pcIndex(in.PC), in.Taken, false)
			}
			if in.Taken {
				e.btb[k].Train(e.pcIndex(in.PC), in.Target)
			}
		case in.Op == isa.OpJmp:
			e.btb[k].Train(e.pcIndex(in.PC), in.Target)
		case in.Op.IsLoad():
			o := e.lineOwner(in.Addr)
			dl := in.Addr &^ 63
			hit, victim, vd, ev := e.l1d[o].Warm(e.l1dIndex(dl), false)
			if !hit && wu != nil {
				if ev && vd {
					wu.WarmWriteback(e.l1dReal(victim, o))
				}
				wu.WarmLoad(dl)
			}
			if in.Dest != isa.Zero {
				e.regRetVal[in.Dest] = e.mem.Load(in.Addr &^ 7)
				//ssim:nolint cyclemath: k is a Slice index, bounded by MaxSlices (8)
				e.regRetPos[in.Dest] = regRet{writer: int64(seq), sl: int8(k)}
			}
		case in.Op.IsStore():
			o := e.lineOwner(in.Addr)
			dl := in.Addr &^ 63
			hit, victim, vd, ev := e.l1d[o].Warm(e.l1dIndex(dl), true)
			if wu != nil {
				if ev && vd {
					wu.WarmWriteback(e.l1dReal(victim, o))
				}
				if !hit {
					wu.WarmLoad(dl)
				}
				wu.WarmStore(dl)
			}
			var sv uint64
			if in.Op.NumSrc() >= 2 && in.Src2 != isa.Zero {
				sv = e.regRetVal[in.Src2]
			}
			e.mem.Store(in.Addr&^7, sv)
		case in.Op.HasDest() && in.Dest != isa.Zero:
			var s1, s2 uint64
			if in.Op.NumSrc() >= 1 && in.Src1 != isa.Zero {
				s1 = e.regRetVal[in.Src1]
			}
			if in.Op.NumSrc() >= 2 && in.Src2 != isa.Zero {
				s2 = e.regRetVal[in.Src2]
			}
			e.regRetVal[in.Dest] = in.Eval(s1, s2)
			//ssim:nolint cyclemath: k is a Slice index, bounded by MaxSlices (8)
			e.regRetPos[in.Dest] = regRet{writer: int64(seq), sl: int8(k)}
		}
	}
	e.commitHead = target
	e.fetchSeq = target
	e.renameHead = target
	for e.barrierIdx < len(e.barriers) && uint64(e.barriers[e.barrierIdx]) < target {
		e.barrierIdx++
	}
	// The front end restarts clean at the new head: any barrier hold or
	// I-fill wait is re-established naturally by fetch/commit if still due.
	e.atBarrier = false
	e.waitingIFill = false
	e.lastCommit = now
	e.stats.Cycles = maxi64(e.stats.Cycles, now)
	return nil
}

// FlushInFlight squashes every fetched-but-uncommitted instruction so the
// pipeline is drained and FastForward may run. It reuses the LSQ-violation
// squash machinery (which also clears windows, instruction buffers, MSHR
// waiters, and branch/I-fill fetch blocks); flushed instructions count as
// Squashed in the engine statistics. It also drops the squashed
// instructions' pending events, which the generation guard would otherwise
// turn away one by one in the next window; line fills and store-buffer
// drains stay queued, since the caches and store buffers outlive the flush.
func (e *Engine) FlushInFlight(now int64) {
	e.squash(e.commitHead, now)
	e.events.dropFrom(e.commitHead)
}
