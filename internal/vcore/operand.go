package vcore

// Operand request/reply protocol over the Scalar Operand Network (§3.2.2,
// §3.4). A consumer Slice that needs a value produced on another Slice sends
// an operand request at rename; the producer replies when the value exists
// (immediately, or from its waitlist when the result is computed). A reply
// also installs a copy in the consumer's LRF, so later reads of the same
// value from that Slice are local.

// operandAvail determines when the operand in the given slot of instruction
// seq becomes available at the instruction's Slice, given dispatch time tR.
// If the producer's completion time is not yet known, it registers a waiter
// and reports pending=true; notifyWaiters will finish the job.
func (e *Engine) operandAvail(seq uint64, slot uint8, tR int64) (avail int64, pending bool) {
	dep := e.dep(seq, int(slot))
	if dep < 0 {
		return 0, false
	}
	k := int(e.flight(seq).sl)
	if uint64(dep) >= e.commitHead {
		// In-flight producer.
		p := e.flight(uint64(dep))
		pSl := int(p.sl)
		if !p.scheduled {
			// Result time unknown: file the request now (it sits in the
			// producer's waitlist) and wait for scheduling.
			if pSl != k && p.reqAt[k] == 0 {
				p.reqAt[k] = e.opNet.Send(tR, e.pos[k], e.pos[pSl])
				e.stats.OperandMsgs++
			}
			p.waiters = append(p.waiters, waiter{seq: seq, gen: e.flight(seq).gen, slot: slot})
			return 0, true
		}
		return e.availFrom(uint64(dep), k, tR), false
	}
	// Committed producer: the value lives in the producer Slice's LRF (or
	// already in a local copy from an earlier request).
	d := e.tr[dep].Dest
	rr := e.regRetPos[d]
	if rr.writer != int64(dep) {
		// The recorded last committed writer must be dep (see computeDeps);
		// if bookkeeping ever disagrees, fall back to "available now".
		return tR, false
	}
	if int(rr.sl) == k {
		return tR, false
	}
	c := &e.copies[d][k]
	if c.writer == int64(dep) {
		return maxi64(c.avail, tR), false
	}
	req := e.opNet.Send(tR, e.pos[k], e.pos[rr.sl])
	rep := e.opNet.Send(req, e.pos[rr.sl], e.pos[k])
	e.stats.OperandMsgs += 2
	*c = regCopy{writer: int64(dep), avail: rep}
	return rep, false
}

// availFrom computes (and caches) when producer p's result is available at
// consumer Slice k, assuming p's completion is scheduled. reqFloor is the
// earliest cycle a fresh request could be sent.
func (e *Engine) availFrom(pSeq uint64, k int, reqFloor int64) int64 {
	p := e.flight(pSeq)
	pSl := int(p.sl)
	if pSl == k {
		return p.execDone
	}
	if p.availAt[k] != 0 {
		return p.availAt[k]
	}
	req := p.reqAt[k]
	if req == 0 {
		req = e.opNet.Send(reqFloor, e.pos[k], e.pos[pSl])
		e.stats.OperandMsgs++
		p.reqAt[k] = req
	}
	reply := e.opNet.Send(maxi64(req, p.execDone), e.pos[pSl], e.pos[k])
	e.stats.OperandMsgs++
	p.availAt[k] = reply
	return reply
}

// notifyWaiters runs when a producer's completion time becomes known (at ALU
// issue, or when a load's value is bound). It resolves every parked
// consumer's operand slot.
func (e *Engine) notifyWaiters(pSeq uint64) {
	p := e.flight(pSeq)
	if len(p.waiters) == 0 {
		return
	}
	// p.scheduled is set before this runs, so no new waiters can be filed
	// while the list is consumed; reusing the backing array is safe.
	ws := p.waiters
	p.waiters = p.waiters[:0]
	for _, w := range ws {
		c := e.flight(w.seq)
		if c.gen != w.gen || c.state == stEmpty {
			continue // consumer was squashed
		}
		avail := e.availFrom(pSeq, int(c.sl), p.execDone)
		if e.tr[w.seq].Op.IsStore() && w.slot == 1 {
			e.storeDataReady(w.seq, avail)
			continue
		}
		if avail > c.readyAt {
			c.readyAt = avail
		}
		c.pendingSrc--
		if c.pendingSrc == 0 {
			e.operandReady(w.seq, c)
		}
	}
}
