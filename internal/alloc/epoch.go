package alloc

import (
	"fmt"

	"sharing/internal/econ"
	"sharing/internal/hypervisor"
)

// Batched, epoch'd market clearing (the write side of the Allocator).
//
// Membership ops — arrivals, departures, phase changes — do not each pay a
// tatonnement. They enqueue on a group-commit queue; the first submitter to
// find the queue unled becomes the epoch leader and loops: drain everything
// pending, apply the ops in submission order, run ONE reprice over the
// resulting resident set, publish the new market view, wake the batch, and
// check the queue again (ops that arrived mid-epoch form the next batch).
// Under concurrent churn, N arrivals cost one clearing instead of N — the
// server-side analogue of the write-coalescing group commit in databases —
// and a lone op degenerates to exactly the serialized behavior.

// opKind enumerates membership operations.
type opKind uint8

const (
	opArrive opKind = iota
	opDepart
	opPhase
)

func (k opKind) String() string {
	switch k {
	case opArrive:
		return "arrive"
	case opDepart:
		return "depart"
	default:
		return "phase"
	}
}

// op is one queued membership operation plus its completion state.
type op struct {
	kind  opKind
	name  string
	bench string
	util  econ.Utility
	phase int

	// Filled by the epoch leader before done is closed.
	receipt     Receipt
	err         error
	done        chan struct{}
	phaseFrom   econ.Config // phase ops: the pre-change configuration...
	phaseHadCfg bool        // ...and whether one was known (for the plan)
	undo        func()      // reverses the membership change (epoch rollback)
}

// Receipt is the outcome of one committed membership op.
type Receipt struct {
	// Seq is the op's position in the committed op stream; Epoch is the
	// clearing epoch that served it.
	Seq   uint64
	Epoch uint64
	// Batched is the number of ops this epoch coalesced into its single
	// reprice (>= 1; the op's own submission included).
	Batched int
	// Result is the epoch's clearing outcome over all residents (nil when
	// the market emptied). Shared across the batch; callers must not
	// mutate it.
	Result *econ.ClearingResult
	// Allocation is this customer's slice of Result (nil on departure or
	// when the market emptied).
	Allocation *econ.Allocation
	// Reconfig is the hypervisor transition plan for a phase change from a
	// previously known configuration.
	Reconfig *hypervisor.ReconfigPlan
}

// OpRecord is one committed membership op in the journal — the bid stream
// the determinism verifier replays sequentially.
type OpRecord struct {
	Seq    uint64  `json:"seq"`
	Epoch  uint64  `json:"epoch"`
	Kind   string  `json:"kind"` // arrive | depart | phase
	Name   string  `json:"name"`
	Bench  string  `json:"bench,omitempty"`
	K      int     `json:"k,omitempty"`
	Budget float64 `json:"budget,omitempty"`
	Phase  int     `json:"phase,omitempty"`
}

// Arrive adds a customer to the market and returns the receipt of the
// epoch that admitted it. Concurrent arrivals coalesce into one reprice. A
// utility the economics cannot score fails with ErrInvalid before it
// reaches the queue.
func (a *Allocator) Arrive(name, bench string, u econ.Utility) (Receipt, error) {
	if err := checkUtility(u); err != nil {
		return Receipt{}, err
	}
	return a.submit(&op{kind: opArrive, name: name, bench: bench, util: u, phase: WholeProgram})
}

// Depart removes a customer and re-clears the market among the remaining
// ones (Receipt.Result is nil when the market empties). The customer's
// probed surfaces stay cached: a returning customer re-prices for free.
func (a *Allocator) Depart(name string) (Receipt, error) {
	return a.submit(&op{kind: opDepart, name: name})
}

// Reconfigure switches a resident customer to a new program phase; the
// receipt carries the hypervisor transition plan from the customer's
// previous configuration to the new phase's optimum.
func (a *Allocator) Reconfigure(name string, phase int) (Receipt, error) {
	return a.submit(&op{kind: opPhase, name: name, phase: phase})
}

// submit enqueues o and either leads the epoch loop or waits for a leader
// to commit it. A pricing-only allocator (zero supply) has no market to
// clear and refuses every membership op.
func (a *Allocator) submit(o *op) (Receipt, error) {
	if a.p.Supply.Slices <= 0 {
		return Receipt{}, fmt.Errorf("alloc: %s %q: no supply to clear a market over (pricing-only allocator)", o.kind, o.name)
	}
	o.done = make(chan struct{})
	a.stats.inflight.Add(1)
	defer a.stats.inflight.Add(-1)
	a.qmu.Lock()
	a.pending = append(a.pending, o)
	if a.leading {
		// A leader is running; it will drain this op (it re-checks the
		// queue before stepping down, under qmu, so the op cannot be
		// stranded).
		a.qmu.Unlock()
		<-o.done
		return o.receipt, o.err
	}
	a.leading = true
	for len(a.pending) > 0 {
		batch := a.pending
		a.pending = nil
		a.qmu.Unlock()
		a.runEpoch(batch)
		a.qmu.Lock()
	}
	a.leading = false
	a.qmu.Unlock()
	<-o.done // closed by runEpoch (possibly by this very goroutine)
	return o.receipt, o.err
}

// runEpoch is the leader's body: apply the batch's membership ops in
// submission order, reprice once, publish, wake the batch. Membership
// state is leader-owned — leadership hands off through qmu, which orders
// every leader's writes before the next leader's reads.
func (a *Allocator) runEpoch(batch []*op) {
	prevSeq := a.seq
	var committed []*op
	for _, o := range batch {
		if err := a.apply(o, a.seq+1); err != nil {
			o.err = err
			continue
		}
		a.seq++
		o.receipt.Seq = a.seq
		committed = append(committed, o)
	}
	var res *econ.ClearingResult
	var clearErr error
	if len(committed) > 0 && len(a.order) > 0 {
		res, clearErr = a.reprice()
	}
	switch {
	case len(committed) == 0:
		// Every op in the batch failed validation; nothing changed.
	case clearErr != nil:
		// The epoch's reprice failed (e.g. a probe refused during drain).
		// The epoch aborts: membership changes are reversed in LIFO order so
		// the op journal, resident state, and published view stay mutually
		// consistent — a failed op never happened. (Residents' last
		// optima touched by the aborted tatonnement are left as-is: they
		// feed only the published view and reconfiguration plans, never a
		// search.)
		for i := len(committed) - 1; i >= 0; i-- {
			committed[i].undo()
			committed[i].err = clearErr
			committed[i].receipt = Receipt{}
		}
		a.seq = prevSeq
	default:
		a.epoch++
		a.publish(res)
		a.journal(committed)
		a.stats.epochs.Add(1)
		a.stats.ops.Add(int64(len(committed)))
		a.stats.coalesced.Add(int64(len(committed) - 1))
		for _, o := range committed {
			switch o.kind {
			case opArrive:
				a.stats.arrivals.Add(1)
			case opDepart:
				a.stats.departures.Add(1)
			case opPhase:
				a.stats.phases.Add(1)
			}
			o.receipt.Epoch = a.epoch
			o.receipt.Batched = len(committed)
			o.receipt.Result = res
			if res != nil && o.kind != opDepart {
				for i := range res.Allocations {
					if res.Allocations[i].Customer == o.name {
						o.receipt.Allocation = &res.Allocations[i]
						break
					}
				}
			}
		}
	}
	for _, o := range batch {
		close(o.done)
	}
}

// apply validates and applies one membership op to the leader-owned
// resident state (no repricing yet); seq is the sequence number the op
// will commit under if it succeeds.
func (a *Allocator) apply(o *op, seq uint64) error {
	switch o.kind {
	case opArrive:
		if o.name == "" {
			return fmt.Errorf("alloc: empty customer name")
		}
		if _, ok := a.residents[o.name]; ok {
			return fmt.Errorf("alloc: customer %q already present", o.name)
		}
		r := &resident{a: a, name: o.name, bench: o.bench, phase: WholeProgram, util: o.util, joined: seq}
		a.residents[o.name] = r
		a.order = append(a.order, r)
		o.undo = func() {
			delete(a.residents, o.name)
			a.order = a.order[:len(a.order)-1] // LIFO undo: r is still last
		}
	case opDepart:
		r, ok := a.residents[o.name]
		if !ok {
			return fmt.Errorf("alloc: no customer %q", o.name)
		}
		delete(a.residents, o.name)
		for i := range a.order {
			if a.order[i] == r {
				a.order = append(a.order[:i], a.order[i+1:]...)
				o.undo = func() {
					a.residents[o.name] = r
					a.order = append(a.order, nil)
					copy(a.order[i+1:], a.order[i:])
					a.order[i] = r
				}
				break
			}
		}
	case opPhase:
		r, ok := a.residents[o.name]
		if !ok {
			return fmt.Errorf("alloc: no customer %q", o.name)
		}
		if !a.cache.Phased() {
			return fmt.Errorf("alloc: prober cannot measure phases")
		}
		// Capture r.last/r.warm: the previous phase's optimum is the
		// reconfiguration source. The transition plan is computed after
		// the reprice, when the target configuration is known.
		o.phaseFrom, o.phaseHadCfg = r.last, r.warm
		prev := r.phase
		r.phase = o.phase
		o.undo = func() { r.phase = prev }
	}
	return nil
}

// reprice runs the epoch's single tatonnement over residents in arrival
// order. The trajectory starts from the standard area prices with the
// standard step schedule, and every response is the same pure search, so
// the outcome is byte-identical to a one-op-at-a-time clearing over the
// same resident set.
func (a *Allocator) reprice() (*econ.ClearingResult, error) {
	bidders := make([]econ.Bidder, len(a.order))
	for i, r := range a.order {
		bidders[i] = r
	}
	res, err := econ.ClearMarketWith(bidders, a.p.Supply, a.p.Tol, a.p.MaxIter)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// publish builds and atomically installs the epoch's immutable market view.
func (a *Allocator) publish(res *econ.ClearingResult) {
	v := &View{
		Epoch:  a.epoch,
		Prices: econ.Market2(),
		Result: res,
		byName: make(map[string]int, len(a.order)),
	}
	if res != nil {
		v.Prices = res.Prices
	}
	v.VMs = make([]VMStat, 0, len(a.order))
	for _, r := range a.order {
		st := VMStat{
			Name: r.name, Bench: r.bench, Phase: r.phase,
			K: r.util.K, Budget: r.util.Budget,
			Joined: r.joined, Epoch: a.epoch,
		}
		if r.warm {
			st.Config = r.last
		}
		if res != nil {
			for i := range res.Allocations {
				if res.Allocations[i].Customer == r.name {
					al := res.Allocations[i]
					st.Config = al.Config
					st.VCores = al.VCores
					st.Utility = al.Utility
					break
				}
			}
		}
		v.byName[r.name] = len(v.VMs)
		v.VMs = append(v.VMs, st)
	}
	a.view.Store(v)
}

// journal appends the epoch's committed ops to the op log and finalizes
// phase-change receipts with their transition plans.
func (a *Allocator) journal(committed []*op) {
	a.logMu.Lock()
	defer a.logMu.Unlock()
	for _, o := range committed {
		rec := OpRecord{
			Seq: o.receipt.Seq, Epoch: a.epoch,
			Kind: o.kind.String(), Name: o.name,
		}
		switch o.kind {
		case opArrive:
			rec.Bench, rec.K, rec.Budget = o.bench, o.util.K, o.util.Budget
		case opPhase:
			rec.Phase = o.phase
			if r, ok := a.residents[o.name]; ok && o.phaseHadCfg && r.warm {
				plan := hypervisor.PlanReconfig(o.phaseFrom.Slices, o.phaseFrom.CacheKB, r.last.Slices, r.last.CacheKB)
				o.receipt.Reconfig = &plan
			}
		}
		a.log = append(a.log, rec)
	}
}

// Log returns a copy of the committed op journal — the canonical bid
// stream a sequential replay must reproduce.
func (a *Allocator) Log() []OpRecord {
	a.logMu.Lock()
	defer a.logMu.Unlock()
	out := make([]OpRecord, len(a.log))
	copy(out, a.log)
	return out
}

// View is the immutable market snapshot published at each epoch commit.
type View struct {
	// Epoch is the clearing epoch that produced this view (0 = initial).
	Epoch uint64
	// Prices is the market price vector in force.
	Prices econ.Market
	// Result is the last clearing outcome (nil before the first arrival or
	// after the market empties).
	Result *econ.ClearingResult
	// VMs lists resident customers in arrival order.
	VMs []VMStat

	byName map[string]int
}

// VMStat is one resident customer's published state.
type VMStat struct {
	Name    string      `json:"name"`
	Bench   string      `json:"bench"`
	Phase   int         `json:"phase"`
	K       int         `json:"k"`
	Budget  float64     `json:"budget"`
	Config  econ.Config `json:"config"`
	VCores  float64     `json:"vcores"`
	Utility float64     `json:"utility"`
	Joined  uint64      `json:"joined"` // sequence number of the admitting op
	Epoch   uint64      `json:"epoch"`  // epoch of last update
}
