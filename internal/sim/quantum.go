package sim

import (
	"fmt"

	"sharing/internal/vcore"
)

// This file implements quantum-phased execution: the conservative
// discrete-event loop of a multi-engine machine, with the NoC lookahead as
// the synchronization quantum (see quantumFor and DESIGN.md).
//
// Time advances in quanta of mc.quantum cycles. Within a quantum every
// engine runs purely on private state — pipeline, L1s, LSQ, predictors,
// its own operand/sort networks — and buffers outbound fabric requests
// (vcore.FabricOp) instead of touching the shared banks, directory, memory
// network or memory. At the quantum barrier the buffered requests are
// merged in deterministic (cycle, engine, request-sequence) order and
// applied against the shared uncore; L2 fill responses are injected back
// into the engines' event queues under the ordinals reserved at request
// time. Because the merge order, the injection times and the directory
// visibility points are all pure functions of the (deterministic) private
// phases and the quantum sequence, the result depends on the quantum
// length alone — determinism is by construction, not by luck.

// runQuanta drives the quantum-phased main loop from cycle 0 until every
// engine is done, and returns the last cycle executed.
//
//ssim:hotpath
func (mc *Machine) runQuanta() (int64, error) {
	m := mc.m
	maxCycles := mc.p.MaxCycles
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}
	q := mc.quantum
	for t := int64(0); ; {
		tq := t + q
		// Private phases: every engine advances [T, TQ) on its own state.
		had := false
		for i := range m.engines {
			if mc.runEngineQuantum(i, t, tq) {
				had = true
			}
		}
		for _, e := range m.engines {
			if err := e.Err(); err != nil {
				return 0, err
			}
		}
		// Quantum barrier: apply the buffered fabric traffic.
		ops := mc.mergeFabric()
		done := true
		for _, e := range m.engines {
			if !e.Done() {
				done = false
				break
			}
		}
		if done {
			last := int64(1)
			for _, e := range m.engines {
				if c := e.Stats().Cycles; c > last {
					last = c
				}
			}
			return last - 1, nil
		}
		// Trace-barrier rendezvous, at quantum granularity.
		released := false
		waiting, active := 0, 0
		for _, e := range m.engines {
			if e.Done() {
				continue
			}
			active++
			if e.AtBarrier() {
				waiting++
			}
		}
		if active > 0 && waiting == active {
			for _, e := range m.engines {
				e.ReleaseBarrier(tq - 1)
			}
			clear(mc.wake) // released engines resume fetch: their wakes moved
			released = true
		}
		next := tq
		if !had && ops == 0 && !released && !mc.p.StrictTick {
			// The whole quantum was architecturally idle and the merge was
			// empty: fast-forward over whole idle quanta (keeping barriers
			// on the same cycle grid) to the quantum containing the
			// earliest wake, charging the skipped spans like runUntil does.
			w := vcore.NeverWake
			for _, e := range m.engines {
				if v := e.NextWake(tq - 1); v < w {
					w = v
				}
			}
			if w >= vcore.NeverWake {
				//ssim:nolint hotalloc: deadlock error path, taken at most once per run
				return 0, fmt.Errorf("sim: deadlock at cycle %d: all engines quiescent with no pending events", tq-1)
			}
			if skip := (w - tq) / q; skip > 0 {
				for _, e := range m.engines {
					e.AccountIdle(skip*q, tq-1)
				}
				next = tq + skip*q
			}
		}
		t = next
		if t > maxCycles {
			//ssim:nolint hotalloc: runaway-simulation error path, taken at most once per run
			return 0, fmt.Errorf("sim: exceeded %d cycles (deadlock?)", maxCycles)
		}
	}
}

// runEngineQuantum advances engine i through the quantum [from, to) on
// private state only, with the same event-driven idle skipping (clamped to
// the quantum edge) as the direct loop. When an earlier quantum clamped the
// engine's wake, the wake carried in mc.wake[i] lets it skip the idle
// prefix of this one without stepping (see Machine.wake). It reports
// whether the engine performed any observable work in the quantum.
//
//ssim:hotpath
func (mc *Machine) runEngineQuantum(i int, from, to int64) bool {
	e := mc.m.engines[i]
	strict := mc.p.StrictTick
	had := false
	now := from
	if w := mc.wake[i]; w > from {
		// Idle until w: charge the span a Step/NextWake pair would have
		// found idle, exactly as the jump below does.
		w = min(w, to)
		e.AccountIdle(w-from, from-1)
		now = w
	}
	for now < to {
		if e.Done() || e.Err() != nil {
			return had
		}
		if e.Step(now) {
			had = true
			now++
			continue
		}
		if strict {
			now++
			continue
		}
		w := e.NextWake(now)
		if w > to {
			mc.wake[i] = w
			w = to
		}
		e.AccountIdle(w-now-1, now)
		now = w
	}
	return had
}

// mergeFabric applies every fabric request buffered during the last
// quantum against the shared uncore, in deterministic (cycle, engine,
// request-sequence) order — the order the inline path would have made the
// calls under lockstep engine stepping. L2 fill responses are injected
// into the requesting engine's event queue with the reserved ordinal.
// Returns the number of requests applied.
//
//ssim:hotpath
func (mc *Machine) mergeFabric() int {
	m := mc.m
	n := 0
	for i, e := range m.engines {
		ops := e.FabricOps()
		mc.opLists[i] = ops
		mc.opPos[i] = 0
		n += len(ops)
	}
	for left := n; left > 0; left-- {
		best := -1
		var bc int64
		for i := range mc.opLists {
			p := mc.opPos[i]
			if p >= len(mc.opLists[i]) {
				continue
			}
			if c := mc.opLists[i][p].Cycle; best < 0 || c < bc {
				best, bc = i, c
			}
		}
		op := &mc.opLists[best][mc.opPos[best]]
		mc.opPos[best]++
		u := mc.uncores[best]
		switch op.Kind {
		case vcore.FabricLoad:
			done := u.L2Load(op.At, op.From, op.Line)
			m.engines[best].DeliverFill(done, int(op.Slice), op.Line, op.IFill, op.Ord)
			mc.wake[best] = min(mc.wake[best], done)
		case vcore.FabricStore:
			// The drain latency was charged from the quantum-start
			// directory state (StoreVisiblePeek); only the mutations —
			// sharer sets, remote L1 invalidations, counters — land here.
			u.StoreVisible(op.At, op.From, op.Line)
		case vcore.FabricWriteback:
			u.WritebackDirty(op.At, op.From, op.Line)
		}
	}
	for i, e := range m.engines {
		mc.opLists[i] = nil
		e.ResetFabricOps()
	}
	return n
}
