package vcore

import (
	"sharing/internal/isa"
	"sharing/internal/slice"
)

// issueLS issues a load or store from Slice k: the effective address is
// generated and the operation is sorted over the load/store sorting network
// to the Slice owning its cache line (§3.6, Fig. 8).
func (e *Engine) issueLS(now int64, k int, seq uint64) {
	e.activity++
	f := e.flight(seq)
	in := &e.tr[seq]
	e.lsBusy[k] = now + 1
	e.removeFromWindow(&e.lsWin[k], seq)
	f.state = stIssued
	f.word = in.Addr &^ 7
	f.owner = int8(e.lineOwner(in.Addr)) //ssim:nolint cyclemath: lineOwner < NumSlices <= 8
	arr := e.sortNet.Send(now, e.pos[k], e.pos[f.owner])
	e.stats.SortMsgs++
	if in.Op.IsLoad() {
		e.events.push(arr, evLoadArrive, seq, f.gen, 0)
		return
	}
	e.events.push(arr, evStoreArrive, seq, f.gen, 0)
	if f.dataKnown {
		e.sendStoreData(maxi64(now, f.dataAt), seq)
	}
}

// sendStoreData ships a store's data value to its LSQ bank once both the
// store has been sorted (address known) and the data value exists.
func (e *Engine) sendStoreData(now int64, seq uint64) {
	f := e.flight(seq)
	if f.dataSent {
		return
	}
	f.dataSent = true
	arr := e.sortNet.Send(now, e.pos[f.sl], e.pos[f.owner])
	e.stats.SortMsgs++
	e.events.push(arr, evStoreData, seq, f.gen, 0)
}

// processEvents drains all events due at or before now.
func (e *Engine) processEvents(now int64) {
	for {
		ev, ok := e.events.popReady(now)
		if !ok {
			return
		}
		e.activity++
		switch ev.kind {
		case evComplete:
			e.onComplete(ev)
		case evBranchResolve:
			e.onBranchResolve(ev)
		case evLoadArrive:
			e.onLoadArrive(ev)
		case evStoreArrive:
			e.onStoreArrive(ev)
		case evStoreData:
			e.onStoreData(ev)
		case evLoadRetry:
			if f := e.flight(ev.seq); f.gen == ev.gen && f.state == stIssued {
				if f.arrived {
					e.tryLoad(ev.at, ev.seq)
				} else {
					e.onLoadArrive(ev) // bank was full on arrival; retry insertion
				}
			}
		case evIFill:
			e.onIFill(ev)
		case evDrain:
			e.onDrain(ev)
		case evLoadFill:
			e.onLoadFill(ev)
		}
	}
}

func (e *Engine) onComplete(ev event) {
	f := e.flight(ev.seq)
	if f.gen != ev.gen || f.state == stEmpty {
		return
	}
	f.state = stDone
}

func (e *Engine) onBranchResolve(ev event) {
	f := e.flight(ev.seq)
	if f.gen != ev.gen || f.state == stEmpty {
		return
	}
	in := &e.tr[ev.seq]
	e.stats.Branches++
	k := int(f.sl)
	mis := f.predTaken != in.Taken
	if in.Op == isa.OpBr {
		if e.gshare != nil {
			e.gshare.Train(e.pcIndex(in.PC), in.Taken, mis)
		} else {
			e.pred[k].Train(e.pcIndex(in.PC), in.Taken, mis)
		}
	}
	if in.Taken {
		e.btb[k].Train(e.pcIndex(in.PC), in.Target)
	}
	f.state = stDone
	if mis {
		e.stats.Mispredicts++
		// Fetch stalled at this branch (trace-driven front ends cannot run
		// the wrong path), so there is nothing younger to flush; release
		// the front end after the redirect delay.
		if e.blockedBranch == int64(ev.seq) {
			e.blockedBranch = -1
			e.fetchBlockedUntil = maxi64(e.fetchBlockedUntil, ev.at+1+e.cfg.MispredictRedirect)
		}
	}
}

// lsqMakeRoom ensures the bank can accept an entry for seq. If the bank is
// full of strictly older operations the caller must retry (they will commit
// and drain); if a younger operation occupies the bank, the youngest one is
// squashed so that an older arrival can never deadlock behind entries that
// cannot commit before it.
func (e *Engine) lsqMakeRoom(o int, seq uint64, now int64) bool {
	if !e.lsq[o].Full() {
		return true
	}
	maxSeq, found := e.lsq[o].YoungestAbove(seq)
	if !found {
		return false
	}
	e.stats.LSQOverflows++
	e.squash(maxSeq, now)
	return !e.lsq[o].Full()
}

func (e *Engine) onLoadArrive(ev event) {
	f := e.flight(ev.seq)
	if f.gen != ev.gen || f.state != stIssued {
		return
	}
	o := int(f.owner)
	if !e.lsqMakeRoom(o, ev.seq, ev.at) {
		e.events.push(ev.at+2, evLoadRetry, ev.seq, ev.gen, 0)
		return
	}
	e.lsq[o].Insert(slice.LSQEntry{Seq: ev.seq, Word: f.word, IsLoad: true, Arrived: ev.at})
	f.arrived = true
	e.tryLoad(ev.at, ev.seq)
}

// tryLoad attempts to bind the load's value: by store->load forwarding from
// an older store in its bank, or from the L1D/L2/memory hierarchy.
func (e *Engine) tryLoad(now int64, seq uint64) {
	f := e.flight(seq)
	o := int(f.owner)
	entry := e.lsq[o].Find(seq)
	if entry == nil {
		return // squashed meanwhile
	}
	if fwd := e.lsq[o].LatestOlderStore(seq, f.word); fwd != nil {
		if !fwd.DataReady {
			// Wait for the store's data; its arrival re-runs tryLoad.
			s := e.flight(fwd.Seq)
			s.fwdWaiters = append(s.fwdWaiters, waiter{seq: seq, gen: f.gen})
			return
		}
		entry.Checked = true
		e.stats.RemoteFwd++
		e.bindLoad(now+e.cfg.ForwardLatency, seq, fwd.Data)
		return
	}
	line := f.word &^ 63
	if e.l1dPort[o] < now {
		e.l1dPort[o] = now
	}
	ta := e.l1dPort[o]
	e.l1dPort[o]++
	if e.l1d[o].Lookup(e.l1dIndex(line), false) {
		e.stats.L1DHits++
		entry.Checked = true
		e.bindLoad(ta+e.cfg.L1HitLatency, seq, e.memValue(f.word))
		return
	}
	e.stats.L1DMisses++
	alloc, merged := e.mshr[o].Request(line, seq, true)
	switch {
	case alloc:
		e.stats.L2Loads++
		e.requestLine(ta, o, line, false)
	case merged:
		// Joined an outstanding fill; completion retries us.
	default:
		// MSHRs full: retry shortly.
		e.events.push(ta+2, evLoadRetry, seq, f.gen, 0)
	}
}

// bindLoad fixes the load's value and completion time and wakes dependents.
func (e *Engine) bindLoad(availAtOwner int64, seq uint64, val uint64) {
	f := e.flight(seq)
	f.val = val
	o := int(f.owner)
	k := int(f.sl)
	done := availAtOwner
	if o != k {
		done = e.opNet.Send(availAtOwner, e.pos[o], e.pos[k])
		e.stats.OperandMsgs++
	}
	f.execDone = done
	f.scheduled = true
	e.notifyWaiters(seq)
	e.events.push(done, evComplete, seq, f.gen, 0)
}

// memValue reads the committed memory image.
func (e *Engine) memValue(word uint64) uint64 { return e.mem.Load(word) }

func (e *Engine) onLoadFill(ev event) {
	o := int(ev.seq)
	line := ev.a
	if victim, dirty, evicted := e.l1d[o].Fill(e.l1dIndex(line), false); evicted && dirty {
		// Reconstruct the real line address from the per-Slice index space.
		real := ((victim>>6)*uint64(e.cfg.NumSlices) + uint64(o)) << 6
		e.writebackDirty(ev.at, o, real)
	}
	for _, w := range e.mshr[o].Complete(line) {
		f := e.flight(w)
		if f.state == stIssued && f.arrived {
			e.tryLoad(ev.at, w)
		}
	}
	// A store-buffer drain may have been waiting for this line.
	if !e.drainBusy[o] && e.sbuf[o].Len() > 0 {
		e.drainBusy[o] = true
		e.events.push(ev.at+1, evDrain, uint64(o), 0, 0)
	}
}

func (e *Engine) onStoreArrive(ev event) {
	f := e.flight(ev.seq)
	if f.gen != ev.gen || f.state != stIssued {
		return
	}
	o := int(f.owner)
	if !e.lsqMakeRoom(o, ev.seq, ev.at) {
		e.events.push(ev.at+2, evStoreArrive, ev.seq, ev.gen, 0)
		return
	}
	e.lsq[o].Insert(slice.LSQEntry{Seq: ev.seq, Word: f.word, IsLoad: false, Arrived: ev.at})
	f.arrived = true
	if f.dataInBank {
		// Data message overtook the (bank-full-retried) address; complete
		// the entry before running the ordering check.
		e.finishStore(ev.at, ev.seq)
	}
	// The paper's ordering check: an arriving/committing store searches its
	// bank for younger loads to the same address that already performed
	// their access (§3.6, Fig. 9).
	if vseq, bad := e.lsq[o].OldestViolatingLoad(ev.seq, f.word); bad {
		e.stats.Violations++
		e.squash(vseq, ev.at)
	}
}

func (e *Engine) onStoreData(ev event) {
	f := e.flight(ev.seq)
	if f.gen != ev.gen || f.state == stEmpty {
		return
	}
	f.dataInBank = true
	if f.arrived {
		e.finishStore(ev.at, ev.seq)
	}
}

// finishStore marks the store complete in its bank (address and data both
// present) and wakes any loads waiting to forward from it.
func (e *Engine) finishStore(now int64, seq uint64) {
	f := e.flight(seq)
	o := int(f.owner)
	if entry := e.lsq[o].Find(seq); entry != nil {
		entry.DataReady = true
		entry.Data = f.dataVal
	}
	f.state = stDone
	ws := f.fwdWaiters
	f.fwdWaiters = f.fwdWaiters[:0]
	for _, w := range ws {
		c := e.flight(w.seq)
		if c.gen != w.gen || c.state != stIssued {
			continue
		}
		e.tryLoad(now+1, w.seq)
	}
}

func (e *Engine) onIFill(ev event) {
	k := int(ev.seq)
	line := ev.a
	e.l1i[k].Fill(e.l1iIndex(line), false)
	e.imshr[k].Complete(line)
	if e.waitingIFill && e.waitSlice == k && e.waitLine == line {
		e.waitingIFill = false
		e.fetchBlockedUntil = maxi64(e.fetchBlockedUntil, ev.at+1)
	}
}

// onDrain writes the head of a Slice's store buffer into its L1D (§3.5
// non-blocking caches with a small store buffer per Slice).
func (e *Engine) onDrain(ev event) {
	o := int(ev.seq)
	head, ok := e.sbuf[o].Head()
	if !ok {
		e.drainBusy[o] = false
		return
	}
	line := head.Word &^ 63
	if e.l1d[o].Lookup(e.l1dIndex(line), true) {
		e.stats.L1DHits++
		// Coherence: other VCores of the VM may share the line; the write
		// must invalidate them via the home bank's directory.
		extra := e.storeVisible(ev.at, o, line)
		e.sbuf[o].Pop()
		e.events.push(ev.at+1+extra, evDrain, uint64(o), 0, 0)
		return
	}
	e.stats.L1DMisses++
	// Write-allocate: fetch the line, then retry the drain.
	alloc, merged := e.mshr[o].Request(line, 0, false)
	switch {
	case alloc:
		e.stats.L2Loads++
		e.requestLine(ev.at, o, line, false)
		e.drainBusy[o] = false // onLoadFill restarts the drain
	case merged:
		e.drainBusy[o] = false
	default:
		e.events.push(ev.at+4, evDrain, uint64(o), 0, 0)
	}
}

// squash flushes every in-flight instruction with age >= from (memory-order
// violation recovery) and restarts fetch at the violating instruction.
func (e *Engine) squash(from uint64, now int64) {
	if from >= e.fetchSeq {
		return
	}
	n := e.cfg.NumSlices
	for seq := from; seq < e.fetchSeq; seq++ {
		f := e.flight(seq)
		if f.state == stEmpty {
			continue
		}
		in := &e.tr[seq]
		k := int(f.sl)
		if f.state >= stInWindow {
			e.robCount[k]--
			if in.Op.HasDest() && in.Dest != isa.Zero {
				e.lrfCount[k]--
				e.globalDest--
			}
		}
		f.state = stEmpty
		f.gen++
		f.waiters = f.waiters[:0]
		f.fwdWaiters = f.fwdWaiters[:0]
		e.stats.Squashed++
	}
	for k := 0; k < n; k++ {
		e.instBuf[k].Filter(from)
		e.aluWin[k] = filterSeqs(e.aluWin[k], from)
		e.lsWin[k] = filterSeqs(e.lsWin[k], from)
		e.lsq[k].SquashYoungerOrEqual(from)
		e.mshr[k].DropWaiters(from)
	}
	e.fetchSeq = from
	if e.renameHead > from {
		e.renameHead = from
	}
	if e.blockedBranch >= int64(from) {
		e.blockedBranch = -1
	}
	e.waitingIFill = false
	e.fetchBlockedUntil = maxi64(e.fetchBlockedUntil, now+1)
}

func filterSeqs(s []uint64, from uint64) []uint64 {
	out := s[:0]
	for _, x := range s {
		if x < from {
			out = append(out, x)
		}
	}
	return out
}
