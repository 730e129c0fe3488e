package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"sharing/internal/vcore"
)

// This file implements quantum-phased execution: conservative parallel
// discrete-event simulation of a multi-engine machine with the NoC
// lookahead as the synchronization quantum (see quantumFor and DESIGN.md).
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
// phases and the quantum sequence, the result is byte-identical whether
// the private phases run inline (Params.Sequential) or concurrently on
// the worker pool — determinism is by construction, not by luck.

// runQuanta drives the quantum-phased main loop from *t until every engine
// is done or, when stop is non-nil, until every engine has crossed its
// measurement-window end (checked at quantum barriers; engines overrun by
// at most one quantum, which the sampled caller drains via FlushInFlight).
// *t is left at the last cycle executed.
//
//ssim:hotpath
func (mc *Machine) runQuanta(t *int64, stop *windowStop) error {
	m := mc.m
	maxCycles := mc.p.MaxCycles
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}
	q := mc.quantum
	// Sampled windows fast-forward the engines between calls, so a wake
	// carried from the previous call no longer describes them.
	clear(mc.wake)
	var pool *quantumPool
	if w := mc.workerCount(); w > 1 {
		//ssim:nolint hotalloc: pool construction, once per run (or per sampled window)
		pool = newQuantumPool(mc, w)
		defer pool.close()
	}
	for {
		tq := *t + q
		// Private phases: every engine advances [T, TQ) on its own state.
		var had bool
		if pool != nil {
			had = pool.runQuantum(*t, tq, stop)
			if err := pool.err(); err != nil {
				return err
			}
		} else {
			for i := range m.engines {
				if mc.runEngineQuantum(i, *t, tq, stop) {
					had = true
				}
			}
		}
		for _, e := range m.engines {
			if err := e.Err(); err != nil {
				return err
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
			*t = last - 1
			return nil
		}
		if stop != nil {
			for i, e := range m.engines {
				// Engines done before this window never step again, so they
				// record their (degenerate) crossings here.
				if e.Done() {
					stop.checkEngine(i, tq-1)
				}
			}
			if stop.quantumBarrier() {
				*t = tq - 1
				return nil
			}
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
				return fmt.Errorf("sim: deadlock at cycle %d: all engines quiescent with no pending events", tq-1)
			}
			if skip := (w - tq) / q; skip > 0 {
				for _, e := range m.engines {
					e.AccountIdle(skip*q, tq-1)
				}
				next = tq + skip*q
			}
		}
		*t = next
		if *t > maxCycles {
			//ssim:nolint hotalloc: runaway-simulation error path, taken at most once per run
			return fmt.Errorf("sim: exceeded %d cycles (deadlock?)", maxCycles)
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
//ssim:parallel
func (mc *Machine) runEngineQuantum(i int, from, to int64, stop *windowStop) bool {
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
			if stop != nil {
				stop.checkEngine(i, now)
			}
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

// workerCount resolves the effective worker-pool width.
func (mc *Machine) workerCount() int {
	if mc.p.Sequential {
		return 1
	}
	w := mc.p.Workers
	if w <= 0 {
		// Worker count never changes results (the pool executes the same
		// deterministic computation as the inline loop), only wall-clock.
		//ssim:nolint detrand: pool width affects wall-clock only, results are byte-identical for any value
		w = runtime.GOMAXPROCS(0)
	}
	if ne := len(mc.m.engines); w > ne {
		w = ne
	}
	if w < 1 {
		w = 1
	}
	return w
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

// quantumPool is the persistent worker pool for one runQuanta invocation.
// Per quantum, the coordinator publishes [from, to) and bumps epoch;
// workers spin on epoch, run their statically assigned engines' private
// phases, and signal done. Atomic epoch/done establish the happens-before
// edges for the plain payload fields, and the static engine assignment
// means no two goroutines ever touch the same engine.
type quantumPool struct {
	mc      *Machine
	workers int

	epoch atomic.Int64
	done  atomic.Int64

	// Published by the coordinator before the epoch bump, read by workers
	// after observing it.
	from, to int64
	stop     *windowStop

	// Written by each worker before its done signal, read by the
	// coordinator after the join.
	had    []bool
	failed []string
}

// newQuantumPool starts workers-1 goroutines; the coordinator runs worker
// 0's share inline in runQuantum.
func newQuantumPool(mc *Machine, workers int) *quantumPool {
	p := &quantumPool{
		mc:      mc,
		workers: workers,
		//ssim:nolint hotalloc: pool construction, once per run (or per sampled window)
		had: make([]bool, workers),
		//ssim:nolint hotalloc: pool construction, once per run (or per sampled window)
		failed: make([]string, workers),
	}
	for w := 1; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// close shuts the worker goroutines down.
func (p *quantumPool) close() { p.epoch.Store(-1) }

// err reports a worker panic (converted, not propagated, so the machine
// fails like any other simulation error instead of tearing the process
// down from a goroutine).
func (p *quantumPool) err() error {
	for w, msg := range p.failed {
		if msg != "" {
			//ssim:nolint hotalloc: worker-failure error path, taken at most once per run
			return fmt.Errorf("sim: quantum worker %d: %s", w, msg)
		}
	}
	return nil
}

// runQuantum executes one quantum's private phases across the pool and
// joins. Returns whether any engine performed observable work.
//
//ssim:hotpath
func (p *quantumPool) runQuantum(from, to int64, stop *windowStop) bool {
	p.from, p.to, p.stop = from, to, stop
	p.done.Store(0)
	p.epoch.Add(1)
	p.runShare(0)
	for spin := 0; p.done.Load() < int64(p.workers-1); spin++ {
		if spin&63 == 63 {
			runtime.Gosched()
		}
	}
	had := false
	for _, h := range p.had {
		if h {
			had = true
		}
	}
	return had
}

// runShare runs worker w's statically assigned engines through the
// current quantum.
//
//ssim:hotpath
func (p *quantumPool) runShare(w int) {
	defer p.recoverShare(w)
	had := false
	for i := w; i < len(p.mc.m.engines); i += p.workers {
		if p.mc.runEngineQuantum(i, p.from, p.to, p.stop) {
			had = true
		}
	}
	p.had[w] = had
}

// recoverShare converts a worker panic into a recorded failure so the
// coordinator can surface it as a simulation error.
func (p *quantumPool) recoverShare(w int) {
	if r := recover(); r != nil {
		//ssim:nolint hotalloc: panic-recovery error path, taken at most once per run
		p.failed[w] = fmt.Sprint(r)
	}
}

// worker is the loop of one pool goroutine: wait for the next epoch, run
// the share, signal done. A negative epoch shuts the worker down.
//
//ssim:hotpath
func (p *quantumPool) worker(w int) {
	last := int64(0)
	for {
		e := p.epoch.Load()
		if e == last {
			// Hybrid wait: spin briefly (quanta are microseconds apart),
			// then yield so oversubscribed runs keep making progress.
			for spin := 0; ; spin++ {
				e = p.epoch.Load()
				if e != last {
					break
				}
				if spin&63 == 63 {
					runtime.Gosched()
				}
			}
		}
		if e < 0 {
			return
		}
		last = e
		p.runShare(w)
		p.done.Add(1)
	}
}
