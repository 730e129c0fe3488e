package vcore

import (
	"fmt"
	"math"

	"sharing/internal/cache"
	"sharing/internal/isa"
	"sharing/internal/noc"
	"sharing/internal/slice"
	"sharing/internal/trace"
)

// Uncore is the memory system beyond the per-Slice L1s: the VM's allocated
// L2 cache banks, the directory, and main memory. It is provided by the
// machine model (internal/sim) so that several VCores of one VM share banks,
// networks, and the memory channel.
type Uncore interface {
	// L2Load requests the 64-byte line containing addr for reading, issued
	// from tile `from` at cycle now. It returns the cycle at which the line
	// is available at `from`, modelling network, bank port, bank access and
	// (on an L2 miss) main memory.
	L2Load(now int64, from noc.Coord, addr uint64) int64
	// StoreVisible makes a committed store to addr globally visible at the
	// coherence point, invalidating sharers in other VCores of the VM. It
	// returns the extra cycles the write must wait (0 when no remote sharer
	// holds the line).
	StoreVisible(now int64, from noc.Coord, addr uint64) int64
	// WritebackDirty models a dirty L1 line eviction written back to the
	// line's home bank.
	WritebackDirty(now int64, from noc.Coord, addr uint64)
}

// unknown is the sentinel "not yet determined" timestamp.
const unknown = math.MaxInt64 / 4

// Flight-ring sizing: in-flight (fetched, uncommitted) instructions are
// bounded by Config.inflight, NumSlices*(ROBPerSlice+InstBufEntries) — from
// 1*(64+12) = 76 to 8*(64+12) = 608 at the paper's defaults. Each engine's
// ring has ringSlots(bound) slots, the next power of two at or above its
// bound (128 to 1024 at the defaults), so no two live instructions share a
// slot. Config.Validate rejects a bound above maxRing.
const maxRing = 1 << 11

// ringSlots returns the flight-ring size for an in-flight bound: the
// smallest power of two >= bound.
func ringSlots(bound int) int {
	n := 1
	for n < bound {
		n <<= 1
	}
	return n
}

// instruction lifecycle states.
const (
	stEmpty uint8 = iota
	stInBuf
	stInWindow
	stIssued
	stDone
)

// waiter records a consumer waiting for a producer's result.
type waiter struct {
	seq  uint64
	gen  uint32
	slot uint8 // 0 = src1/address, 1 = src2/store-data
}

// instFlight is the in-flight state of one dynamic instruction.
type instFlight struct {
	gen   uint32
	state uint8
	sl    int8 // fetch/execute Slice (owner of the PC)
	owner int8 // LSQ bank Slice for memory ops (owner of the line)

	predTaken  bool
	scheduled  bool // execDone determined
	arrived    bool // memory op: address arrived at LSQ bank
	dataSent   bool // store: data message sent toward the bank
	dataInBank bool
	dataKnown  bool // store: data value determined

	pendingSrc int8
	readyAt    int64 // cycle operands are available for issue
	execDone   int64 // cycle result is available at Slice sl
	dataAt     int64 // store: cycle data value is available at Slice sl

	val     uint64
	dataVal uint64
	word    uint64 // memory ops: 8-byte-aligned effective address

	waiters    []waiter
	fwdWaiters []waiter // loads waiting on this store's data in the bank
	availAt    [MaxSlices]int64
	reqAt      [MaxSlices]int64
}

// regCopy caches where and when a committed architectural value became
// available at a given Slice (an LRF copy created by an earlier operand
// request).
type regCopy struct {
	writer int64 // producing seq, -1 if none
	avail  int64
}

// regRet tracks the last committed writer of each architectural register.
type regRet struct {
	writer int64
	sl     int8
}

// Engine is the cycle-level model of one VCore executing one thread trace.
type Engine struct {
	cfg   Config
	tr    []isa.Inst
	name  string
	deps1 []int32
	deps2 []int32
	// Fast owner/index math for power-of-two slice counts (the common
	// case): pcOwner/lineOwner mask with ownMask and l1dIndex/l1iIndex
	// shift by ownShift instead of dividing by NumSlices.
	ownPow   bool
	ownMask  uint64
	ownShift uint
	uncore   Uncore
	opNet    *noc.Network
	sortNet  *noc.Network
	pos      []noc.Coord

	// Per-Slice structures.
	pred    []*slice.Predictor
	gshare  *slice.GShare // optional VCore-wide global predictor
	btb     []*slice.BTB
	l1i     []*cache.Cache
	l1d     []*cache.Cache
	lsq     []*slice.LSQBank
	mshr    []*slice.MSHRSet
	imshr   []*slice.MSHRSet
	sbuf    []*slice.StoreBuffer
	instBuf []seqFIFO
	aluWin  [][]uint64
	lsWin   [][]uint64
	// aluRdy[k] and lsRdy[k] are lower bounds on readyAt over the entries
	// of Slice k's windows whose operands are all resolved (pendingSrc ==
	// 0); NeverWake when there is none. issue skips a window whose bound is
	// in the future and NextWake reads the bound instead of the entries.
	// A bound is lowered when an entry becomes operand-ready (dispatch,
	// notifyWaiters) and set to the exact minimum by a pickReady scan that
	// finds nothing. Issue and squash only remove entries, which keeps it a
	// lower bound; a stale one costs at most one early wake.
	aluRdy []int64
	lsRdy  []int64

	robCount   []int
	lrfCount   []int
	globalDest int

	aluBusy   []int64
	lsBusy    []int64
	l1dPort   []int64
	drainBusy []bool

	// Front end.
	fetchSeq          uint64
	renameHead        uint64
	fetchBlockedUntil int64
	blockedBranch     int64 // seq of unresolved mispredicted branch, -1 none
	waitLine          uint64
	waitSlice         int
	waitingIFill      bool

	// Back end.
	commitHead uint64
	lastCommit int64

	fl     []instFlight // the flight ring, indexed by seq & flMask
	flMask uint64

	regRetVal [isa.NumArchRegs]uint64
	regRetPos [isa.NumArchRegs]regRet
	copies    [isa.NumArchRegs][MaxSlices]regCopy

	mem isa.MemImage // committed memory image

	events eventQueue
	stats  Stats

	// activity counts observable work (events processed, instructions
	// fetched/dispatched/issued/committed, fills started, barrier entry).
	// The event-driven machine loop compares it across a Tick to decide
	// whether the engine is quiescent and time can jump to NextWake.
	activity uint64

	// Barrier pacing for multithreaded workloads.
	barriers   []int
	barrierIdx int
	atBarrier  bool

	// Quantum-execution fabric buffering (see fabric.go): when fabricBuf
	// is set, outbound uncore requests are appended to outbox instead of
	// called inline, and peekU answers StoreVisible latency queries from
	// the frozen directory. tickNow is the cycle of the Tick in progress,
	// the deterministic merge key for buffered requests.
	fabricBuf bool
	peekU     StoreVisiblePeeker
	outbox    []FabricOp
	tickNow   int64

	err error
}

// New builds an Engine for tr on a VCore whose Slices sit at positions pos
// (len(pos) == cfg.NumSlices, contiguous per the paper's placement rule).
func New(cfg Config, tr *trace.Trace, pos []noc.Coord, opNet, sortNet *noc.Network, uncore Uncore) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pos) != cfg.NumSlices {
		return nil, fmt.Errorf("vcore: %d slice positions for %d slices", len(pos), cfg.NumSlices)
	}
	if tr == nil || len(tr.Insts) == 0 {
		return nil, fmt.Errorf("vcore: empty trace")
	}
	if len(tr.Insts) > math.MaxInt32 {
		return nil, fmt.Errorf("vcore: trace %q has %d instructions; dependence indices are int32", tr.Name, len(tr.Insts))
	}
	e := &Engine{
		cfg: cfg, tr: tr.Insts, name: tr.Name, uncore: uncore,
		opNet: opNet, sortNet: sortNet, pos: pos,
		blockedBranch: -1,
	}
	n := cfg.NumSlices
	e.instBuf = make([]seqFIFO, n)
	for i := 0; i < n; i++ {
		e.pred = append(e.pred, slice.NewPredictor(cfg.PredictorEntries))
		e.btb = append(e.btb, slice.NewBTB(cfg.BTBEntries))
		e.l1i = append(e.l1i, cache.New(cfg.L1I))
		e.l1d = append(e.l1d, cache.New(cfg.L1D))
		e.lsq = append(e.lsq, slice.NewLSQBank(cfg.LSQSize))
		e.mshr = append(e.mshr, slice.NewMSHRSet(cfg.MSHRs))
		e.imshr = append(e.imshr, slice.NewMSHRSet(4))
		e.sbuf = append(e.sbuf, slice.NewStoreBuffer(cfg.StoreBufEntries))
		e.aluWin = append(e.aluWin, make([]uint64, 0, cfg.IssueWindow))
		e.lsWin = append(e.lsWin, make([]uint64, 0, cfg.LSWindow))
		e.aluRdy = append(e.aluRdy, NeverWake)
		e.lsRdy = append(e.lsRdy, NeverWake)
	}
	e.robCount = make([]int, n)
	e.lrfCount = make([]int, n)
	e.aluBusy = make([]int64, n)
	e.lsBusy = make([]int64, n)
	e.l1dPort = make([]int64, n)
	e.drainBusy = make([]bool, n)
	if cfg.UseGShare {
		e.gshare = slice.NewGShare(cfg.PredictorEntries, 2*(n-1))
	}
	for r := range e.regRetPos {
		e.regRetPos[r] = regRet{writer: -1}
	}
	// Seed every flight-ring slot's waiter lists from one backing array.
	// Slots recycle their slices (appends reuse capacity), but a fresh ring
	// would otherwise pay thousands of tiny growth allocations warming up.
	slots := ringSlots(cfg.inflight())
	e.fl = make([]instFlight, slots)
	e.flMask = uint64(slots - 1)
	wback := make([]waiter, slots*seedWaiterCap)
	fback := make([]waiter, slots*seedFwdCap)
	for i := range e.fl {
		e.fl[i].waiters = wback[i*seedWaiterCap : i*seedWaiterCap : (i+1)*seedWaiterCap]
		e.fl[i].fwdWaiters = fback[i*seedFwdCap : i*seedFwdCap : (i+1)*seedFwdCap]
	}
	if n := cfg.NumSlices; n&(n-1) == 0 {
		e.ownPow = true
		e.ownMask = uint64(n - 1)
		for 1<<e.ownShift < n {
			e.ownShift++
		}
	}
	e.deps1, e.deps2 = tr.Deps()
	return e, nil
}

// seedWaiterCap and seedFwdCap are the initial per-slot waiter capacities;
// slots with more consumers grow their own arrays once and keep them.
const (
	seedWaiterCap = 4
	seedFwdCap    = 2
)

// SetBarriers installs the instruction indices at which this thread must
// rendezvous with its siblings (see trace.BarrierSet).
func (e *Engine) SetBarriers(at []int) { e.barriers = at }

// AtBarrier reports whether the engine is stopped at its current barrier.
func (e *Engine) AtBarrier() bool { return e.atBarrier }

// ReleaseBarrier lets the engine continue past the current barrier at cycle
// now plus a small rendezvous overhead.
func (e *Engine) ReleaseBarrier(now int64) {
	if e.atBarrier {
		e.atBarrier = false
		e.barrierIdx++
		e.fetchBlockedUntil = maxi64(e.fetchBlockedUntil, now+20)
		e.activity++
	}
}

// owner Slice of a PC: fetch is interleaved on aligned instruction pairs, so
// the same PC always maps to the same Slice (§3.1). Owner and index math run
// per instruction, so the common power-of-two slice counts use precomputed
// mask/shift forms instead of hardware division; both forms give identical
// values.
func (e *Engine) pcOwner(pc uint64) int {
	if e.ownPow {
		return int((pc >> 3) & e.ownMask)
	}
	return int((pc >> 3) % uint64(e.cfg.NumSlices))
}

// owner Slice of a data line: accesses are low-order interleaved by cache
// line across the VCore's LSQ banks and L1Ds (§3.5, §3.6).
func (e *Engine) lineOwner(addr uint64) int {
	if e.ownPow {
		return int((addr >> 6) & e.ownMask)
	}
	return int((addr >> 6) % uint64(e.cfg.NumSlices))
}

// l1dIndex strips the Slice-interleave bits from a data line address before
// it indexes a Slice-private L1D. Within one Slice all resident lines share
// the same interleave residue, so without this the set-index bits would
// correlate with the residue and only 1/NumSlices of the sets would ever be
// used. The mapping is bijective per Slice.
func (e *Engine) l1dIndex(line uint64) uint64 {
	if e.ownPow {
		return (line >> 6 >> e.ownShift) << 6
	}
	return (line >> 6) / uint64(e.cfg.NumSlices) << 6
}

// l1iIndex is the same for the 8-byte instruction-cache lines.
func (e *Engine) l1iIndex(line uint64) uint64 {
	if e.ownPow {
		return (line >> 3 >> e.ownShift) << 3
	}
	return (line >> 3) / uint64(e.cfg.NumSlices) << 3
}

// pcIndex de-interleaves a PC before it indexes a Slice's branch predictor
// or BTB, so effective predictor capacity grows with Slice count as the
// paper describes (§3.1) instead of aliasing onto 1/NumSlices of each table.
func (e *Engine) pcIndex(pc uint64) uint64 {
	return (pc>>3)/uint64(e.cfg.NumSlices)<<3 | (pc & 7)
}

func (e *Engine) flight(seq uint64) *instFlight { return &e.fl[seq&e.flMask] }

// Done reports whether the whole trace has committed.
func (e *Engine) Done() bool { return e.commitHead >= uint64(len(e.tr)) }

// Err returns the first internal error (e.g. watchdog deadlock detection).
func (e *Engine) Err() error { return e.err }

// Stats returns the engine's statistics (valid once Done).
func (e *Engine) Stats() *Stats { return &e.stats }

// Committed returns the number of committed instructions.
func (e *Engine) Committed() uint64 { return e.commitHead }

// FinalState exposes the committed architectural state for golden-model
// comparison against the functional interpreter.
func (e *Engine) FinalState() *isa.ArchState {
	s := isa.NewArchState()
	s.Regs = e.regRetVal
	e.mem.RangeWords(func(word, val uint64) { s.Mem[word] = val })
	return s
}

// InvalidateL1 removes a line from this VCore's owning Slice's L1D (called
// by the machine when another VCore of the VM writes the line).
func (e *Engine) InvalidateL1(addr uint64) {
	o := e.lineOwner(addr)
	e.l1d[o].Invalidate(e.l1dIndex(addr &^ 63))
}

// Tick advances the engine by one cycle.
//
//ssim:hotpath
func (e *Engine) Tick(now int64) {
	if e.Done() || e.err != nil {
		return
	}
	e.tickNow = now
	e.stats.Cycles = now + 1
	e.processEvents(now)
	e.commit(now)
	e.issue(now)
	e.dispatch(now)
	e.fetch(now)
	if now-e.lastCommit > 400000 {
		//ssim:nolint hotalloc: deadlock-watchdog error path, taken at most once per run
		e.err = fmt.Errorf("vcore: %s: no commit progress for %d cycles at cycle %d (head %d/%d, state %d)",
			e.name, now-e.lastCommit, now, e.commitHead, len(e.tr), e.flight(e.commitHead).state)
	}
}

// Step advances the engine by one cycle and reports whether it performed
// any observable work (processed an event, fetched, dispatched, issued, or
// committed an instruction, started a fill, entered a barrier). A false
// return means the cycle was architecturally idle: nothing can happen
// before NextWake(now), so callers may jump time forward after charging
// the skipped span with AccountIdle.
//
//ssim:hotpath
func (e *Engine) Step(now int64) bool {
	a0 := e.activity
	e.Tick(now)
	return e.activity != a0
}

// NeverWake is returned by NextWake when the engine has no pending event
// and no time-gated work: without external input it will never act again.
const NeverWake = int64(math.MaxInt64 / 2)

// NextWake returns a lower bound on the earliest cycle > now at which the
// engine can perform observable work, assuming it was idle at cycle now
// (Step returned false) and no external state changes. Wake sources are the
// event queue (fills, drains, arrivals, completions), issue-window entries
// whose operands become ready at a known future cycle, and timed front-end
// bubbles. Everything else the engine does is a consequence of one of
// those, so skipping straight to the minimum is cycle-exact. The issue
// windows contribute through their ready bounds (aluRdy/lsRdy), so the
// cost is O(Slices) however full the windows are; an empty window's bound
// is NeverWake, which max with the unit's busy cycle keeps NeverWake.
//
//ssim:hotpath
func (e *Engine) NextWake(now int64) int64 {
	if e.Done() || e.err != nil {
		return NeverWake
	}
	next := NeverWake
	if at, ok := e.events.nextAt(); ok && at < next {
		next = at
	}
	for k := 0; k < e.cfg.NumSlices; k++ {
		if c := maxi64(e.aluRdy[k], e.aluBusy[k]); c < next {
			next = c
		}
		if c := maxi64(e.lsRdy[k], e.lsBusy[k]); c < next {
			next = c
		}
	}
	// The front end wakes when a redirect bubble expires, but only if no
	// earlier gate (barrier, I-fill, unresolved branch) holds it first —
	// those are lifted by events or commits, which are captured above.
	if e.fetchSeq < uint64(len(e.tr)) && !e.atBarrier &&
		!(e.barrierIdx < len(e.barriers) && e.fetchSeq >= uint64(e.barriers[e.barrierIdx])) &&
		!e.waitingIFill && e.blockedBranch < 0 &&
		e.fetchBlockedUntil > now && e.fetchBlockedUntil < next {
		next = e.fetchBlockedUntil
	}
	if next <= now {
		return now + 1
	}
	return next
}

// AccountIdle charges delta cycles of per-cycle stall statistics for a
// quiescent span starting after cycle now (the cycles a strict per-cycle
// loop would have ticked through with no state change). It mirrors exactly
// the counters Tick increments on an idle cycle, so event-driven and
// strict-tick runs report identical stats.
//
//ssim:hotpath
func (e *Engine) AccountIdle(delta int64, now int64) {
	if delta <= 0 || e.Done() || e.err != nil {
		return
	}
	d := delta
	// Commit-side: waiting at a barrier, or head-of-ROB store blocked on a
	// full store buffer (drain completion arrives via the event queue).
	if e.atBarrier {
		e.stats.BarrierWaits += d
	} else if f := e.flight(e.commitHead); f.state == stDone {
		if e.tr[e.commitHead].Op.IsStore() && e.sbuf[int(f.owner)].Full() {
			e.stats.CommitStallStoreB += d
		}
	}
	// Dispatch-side: the oldest undispatched instruction blocked on window,
	// ROB, or register space (all freed by commits/issues, i.e. activity).
	if e.renameHead < e.fetchSeq {
		if f := e.flight(e.renameHead); f.state == stInBuf {
			k := int(f.sl)
			in := &e.tr[e.renameHead]
			isLS := in.Op.IsMemory()
			hasDest := in.Op.HasDest() && in.Dest != isa.Zero
			switch {
			case isLS && len(e.lsWin[k]) >= e.cfg.LSWindow,
				!isLS && len(e.aluWin[k]) >= e.cfg.IssueWindow,
				e.robCount[k] >= e.cfg.ROBPerSlice,
				hasDest && (e.lrfCount[k] >= e.cfg.LRFPerSlice || e.globalDest >= e.cfg.GlobalRegs):
				e.stats.RenameStallWindow += d
			}
		}
	}
	// Fetch-side, in the same gate order as fetch().
	if e.fetchSeq >= uint64(len(e.tr)) || e.atBarrier {
		return
	}
	if e.barrierIdx < len(e.barriers) && e.fetchSeq >= uint64(e.barriers[e.barrierIdx]) {
		return
	}
	switch {
	case e.waitingIFill:
		e.stats.FetchStallICache += d
	case e.blockedBranch >= 0:
		e.stats.FetchStallBranch += d
	case e.fetchBlockedUntil > now:
		e.stats.FetchStallBubble += d
	default:
		in := &e.tr[e.fetchSeq]
		k := e.pcOwner(in.PC)
		if in.PC&7 != 0 && e.cfg.FetchPerSlice <= 1 {
			return // misaligned first slot consumes the whole fetch budget
		}
		if e.instBuf[k].Len() >= e.cfg.InstBufEntries {
			e.stats.FetchStallBuf += d
		}
	}
}

// Run executes the trace to completion for a standalone (single-VCore,
// single-thread) simulation and returns total cycles. It uses the same
// event-driven cycle skipping as sim.Machine.Run.
func (e *Engine) Run() (int64, error) {
	var t int64
	for !e.Done() {
		active := e.Step(t)
		if e.err != nil {
			return t, e.err
		}
		next := t + 1
		if !active && !e.Done() {
			next = e.NextWake(t)
			if next == NeverWake {
				return t, fmt.Errorf("vcore: %s: deadlock at cycle %d: engine quiescent with no pending events", e.name, t)
			}
			e.AccountIdle(next-t-1, t)
		}
		t = next
	}
	e.stats.Cycles = t
	return t, nil
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Commit

func (e *Engine) commit(now int64) {
	var perSlice [MaxSlices]int
	total := 0
	budget := e.cfg.CommitPerSlice * e.cfg.NumSlices
	for total < budget && !e.Done() {
		if e.atBarrier {
			e.stats.BarrierWaits++
			return
		}
		seq := e.commitHead
		f := e.flight(seq)
		if f.state != stDone {
			return
		}
		sl := int(f.sl)
		if perSlice[sl] >= e.cfg.CommitPerSlice {
			return
		}
		in := &e.tr[seq]
		switch {
		case in.Op.IsStore():
			o := int(f.owner)
			if e.sbuf[o].Full() {
				e.stats.CommitStallStoreB++
				return
			}
			e.mem.Store(f.word, f.dataVal)
			e.lsq[o].Remove(seq)
			e.sbuf[o].Push(slice.StoreBufEntry{Seq: seq, Word: f.word})
			if !e.drainBusy[o] {
				e.drainBusy[o] = true
				e.events.push(now+1, evDrain, uint64(o), 0, 0)
			}
		case in.Op.IsLoad():
			e.lsq[int(f.owner)].Remove(seq)
		}
		if in.Op.HasDest() && in.Dest != isa.Zero {
			e.regRetVal[in.Dest] = f.val
			e.regRetPos[in.Dest] = regRet{writer: int64(seq), sl: f.sl}
			e.lrfCount[sl]--
			e.globalDest--
		}
		e.robCount[sl]--
		f.state = stEmpty
		f.waiters = f.waiters[:0]
		f.fwdWaiters = f.fwdWaiters[:0]
		e.commitHead++
		e.lastCommit = now
		e.stats.Committed++
		e.activity++
		perSlice[sl]++
		total++
		// Barrier rendezvous (multithreaded workloads).
		if e.barrierIdx < len(e.barriers) && e.commitHead >= uint64(e.barriers[e.barrierIdx]) &&
			e.fetchSeq >= uint64(e.barriers[e.barrierIdx]) {
			e.atBarrier = true
		}
	}
}

// ---------------------------------------------------------------------------
// Issue

// issue issues at most one instruction per Slice from each window. A
// window whose ready bound lies in the future holds nothing issuable, so
// it is not scanned. For stores only the address operand gates issue (data
// follows separately, §3.6): a memory op's pendingSrc counts address
// dependences only.
func (e *Engine) issue(now int64) {
	for k := 0; k < e.cfg.NumSlices; k++ {
		if e.aluBusy[k] <= now && e.aluRdy[k] <= now {
			if seq, ok := e.pickReady(e.aluWin[k], &e.aluRdy[k], now); ok {
				e.issueALU(now, k, seq)
			}
		}
		if e.lsBusy[k] <= now && e.lsRdy[k] <= now {
			if seq, ok := e.pickReady(e.lsWin[k], &e.lsRdy[k], now); ok {
				e.issueLS(now, k, seq)
			}
		}
	}
}

// pickReady returns the oldest window entry whose operands are available
// at now. When there is none it sets *bound, the window's ready bound, to
// the exact earliest readyAt over the operand-ready entries (NeverWake if
// there are none).
func (e *Engine) pickReady(win []uint64, bound *int64, now int64) (uint64, bool) {
	lo := NeverWake
	for _, seq := range win {
		f := e.flight(seq)
		if f.state == stInWindow && f.pendingSrc == 0 {
			if f.readyAt <= now {
				return seq, true
			}
			lo = min(lo, f.readyAt)
		}
	}
	*bound = lo
	return 0, false
}

// operandReady lowers the ready bound of the window holding entry seq (in
// Slice f.sl) once its last issue-gating operand has resolved.
func (e *Engine) operandReady(seq uint64, f *instFlight) {
	b := &e.aluRdy[f.sl]
	if e.tr[seq].Op.IsMemory() {
		b = &e.lsRdy[f.sl]
	}
	*b = min(*b, f.readyAt)
}

func (e *Engine) issueALU(now int64, k int, seq uint64) {
	e.activity++
	f := e.flight(seq)
	in := &e.tr[seq]
	lat := int64(in.Op.Latency())
	e.aluBusy[k] = now + 1
	if in.Op.Class() == isa.ClassDiv {
		e.aluBusy[k] = now + lat // divider is unpipelined
	}
	e.removeFromWindow(&e.aluWin[k], seq)
	f.state = stIssued
	if in.Op.HasDest() {
		f.val = in.Eval(e.srcVal(seq, 0), e.srcVal(seq, 1))
	}
	f.execDone = now + lat
	f.scheduled = true
	e.notifyWaiters(seq)
	if in.Op.IsBranch() {
		e.events.push(now+lat, evBranchResolve, seq, f.gen, 0)
	} else {
		e.events.push(now+lat, evComplete, seq, f.gen, 0)
	}
}

// srcVal returns the value of a source operand at issue time.
func (e *Engine) srcVal(seq uint64, slot int) uint64 {
	dep := e.dep(seq, slot)
	if dep < 0 {
		return 0
	}
	if uint64(dep) >= e.commitHead {
		return e.flight(uint64(dep)).val
	}
	return e.regRetVal[e.tr[dep].Dest]
}

func (e *Engine) dep(seq uint64, slot int) int32 {
	if slot == 0 {
		return e.deps1[seq]
	}
	return e.deps2[seq]
}

func (e *Engine) removeFromWindow(win *[]uint64, seq uint64) {
	w := *win
	for i, s := range w {
		if s == seq {
			*win = append(w[:i], w[i+1:]...)
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Dispatch (rename)

func (e *Engine) renameLatency() int64 {
	if e.cfg.NumSlices > 1 {
		return 1 + e.cfg.RenameExtra
	}
	return 1
}

// dispatch renames instructions in global program order (rename operates on
// fetch groups in order, §3.2.1: the master-Slice correction step imposes a
// total order, and a stall "ripples back" to all Slices). Stopping at the
// first blocked instruction also guarantees the oldest undispatched
// instruction can never starve behind younger ones for the shared global
// register space.
func (e *Engine) dispatch(now int64) {
	var cnt [MaxSlices]int
	for e.renameHead < e.fetchSeq {
		seq := e.renameHead
		f := e.flight(seq)
		if f.state != stInBuf {
			break
		}
		k := int(f.sl)
		if cnt[k] >= e.cfg.RenamePerSlice {
			break
		}
		in := &e.tr[seq]
		isLS := in.Op.IsMemory()
		if isLS && len(e.lsWin[k]) >= e.cfg.LSWindow {
			e.stats.RenameStallWindow++
			break
		}
		if !isLS && len(e.aluWin[k]) >= e.cfg.IssueWindow {
			e.stats.RenameStallWindow++
			break
		}
		if e.robCount[k] >= e.cfg.ROBPerSlice {
			e.stats.RenameStallWindow++
			break
		}
		hasDest := in.Op.HasDest() && in.Dest != isa.Zero
		if hasDest && (e.lrfCount[k] >= e.cfg.LRFPerSlice || e.globalDest >= e.cfg.GlobalRegs) {
			e.stats.RenameStallWindow++
			break
		}
		if e.instBuf[k].Len() == 0 || e.instBuf[k].Front() != seq {
			break // should not happen: per-Slice buffers follow fetch order
		}
		e.instBuf[k].Pop()
		e.activity++
		e.robCount[k]++
		if hasDest {
			e.lrfCount[k]++
			e.globalDest++
		}
		f.state = stInWindow
		tR := now + e.renameLatency()
		f.readyAt = tR + 1
		f.pendingSrc = 0
		e.resolveOperands(seq, tR)
		if f.pendingSrc == 0 {
			e.operandReady(seq, f)
		}
		if isLS {
			e.lsWin[k] = append(e.lsWin[k], seq)
		} else {
			e.aluWin[k] = append(e.aluWin[k], seq)
		}
		e.renameHead++
		cnt[k]++
	}
}

// resolveOperands wires up the instruction's source dependences at dispatch
// time tR, sending operand requests over the SON where needed.
func (e *Engine) resolveOperands(seq uint64, tR int64) {
	f := e.flight(seq)
	in := &e.tr[seq]
	// Slot 0: src1 (address base for memory ops).
	if in.Op.NumSrc() >= 1 {
		e.resolveSlot(seq, 0, tR)
	}
	// Slot 1: src2. For stores this is the data operand and does not gate
	// issue; for everything else it is a normal source.
	if in.Op.NumSrc() >= 2 {
		if in.Op.IsStore() {
			e.resolveStoreData(seq, tR)
		} else {
			e.resolveSlot(seq, 1, tR)
		}
	} else if in.Op.IsStore() {
		// Store with r0 data.
		f.dataKnown = true
		f.dataAt = tR
		f.dataVal = 0
	}
}

// resolveSlot computes when the operand in the given slot is available at
// the instruction's Slice, registering a waiter if the producer's completion
// is not yet scheduled.
func (e *Engine) resolveSlot(seq uint64, slot uint8, tR int64) {
	f := e.flight(seq)
	avail, pending := e.operandAvail(seq, slot, tR)
	if pending {
		f.pendingSrc++
		return
	}
	if avail > f.readyAt {
		f.readyAt = avail
	}
}

// resolveStoreData tracks a store's data operand.
func (e *Engine) resolveStoreData(seq uint64, tR int64) {
	avail, pending := e.operandAvail(seq, 1, tR)
	if pending {
		return // waiter registered; completion will call storeDataReady
	}
	e.storeDataReady(seq, avail)
}

// storeDataReady records that the store's data value is available at its
// issuing Slice at cycle avail, and ships it to the LSQ bank if the address
// part has already been sent.
func (e *Engine) storeDataReady(seq uint64, avail int64) {
	f := e.flight(seq)
	f.dataKnown = true
	f.dataAt = avail
	f.dataVal = e.srcVal(seq, 1)
	if f.state == stIssued || f.state == stDone {
		e.sendStoreData(avail, seq)
	}
}

// ---------------------------------------------------------------------------
// Fetch

func (e *Engine) fetch(now int64) {
	if e.fetchSeq >= uint64(len(e.tr)) {
		return
	}
	if e.atBarrier {
		return
	}
	if e.barrierIdx < len(e.barriers) && e.fetchSeq >= uint64(e.barriers[e.barrierIdx]) {
		// Hold fetch at the barrier boundary until commit catches up and
		// the coordinator releases us.
		if e.commitHead >= uint64(e.barriers[e.barrierIdx]) {
			e.atBarrier = true
			e.activity++
		}
		return
	}
	if e.waitingIFill {
		e.stats.FetchStallICache++
		return
	}
	if e.blockedBranch >= 0 {
		e.stats.FetchStallBranch++
		return
	}
	if e.fetchBlockedUntil > now {
		e.stats.FetchStallBubble++
		return
	}
	var cnt [MaxSlices]int
	first := true
	for e.fetchSeq < uint64(len(e.tr)) {
		if e.barrierIdx < len(e.barriers) && e.fetchSeq >= uint64(e.barriers[e.barrierIdx]) {
			break
		}
		seq := e.fetchSeq
		in := &e.tr[seq]
		k := e.pcOwner(in.PC)
		if first && in.PC&7 != 0 {
			// Group starts in the middle of an aligned pair: the owning
			// Slice burns one of its two fetch slots.
			cnt[k]++
		}
		if cnt[k] >= e.cfg.FetchPerSlice {
			break
		}
		if e.instBuf[k].Len() >= e.cfg.InstBufEntries {
			if first {
				e.stats.FetchStallBuf++
			}
			break
		}
		// Instruction cache.
		line := in.PC &^ 7
		if !e.l1i[k].Lookup(e.l1iIndex(line), false) {
			e.stats.L1IMisses++
			e.startIFill(now, k, line, true)
			break
		}
		e.stats.L1IHits++
		// Accept. The flight slot is reinitialized in place, keeping the
		// waiter slices' backing arrays so they are reused across the ring.
		f := e.flight(seq)
		ws, fws := f.waiters[:0], f.fwdWaiters[:0]
		//ssim:nolint cyclemath: k is a Slice index, bounded by MaxSlices (8)
		*f = instFlight{gen: f.gen, state: stInBuf, sl: int8(k),
			readyAt: unknown, execDone: unknown, dataAt: unknown,
			waiters: ws, fwdWaiters: fws}
		e.instBuf[k].Push(seq)
		e.fetchSeq++
		e.activity++
		cnt[k]++
		first = false
		if in.Op.IsBranch() {
			if e.handleBranchFetch(now, k, seq, in) {
				break
			}
			continue
		}
	}
}

// handleBranchFetch applies prediction at fetch time. It returns true if the
// fetch group must end after this branch.
func (e *Engine) handleBranchFetch(now int64, k int, seq uint64, in *isa.Inst) bool {
	f := e.flight(seq)
	if in.Op == isa.OpJmp {
		f.predTaken = true
		if _, ok := e.btb[k].Lookup(e.pcIndex(in.PC)); !ok {
			e.btb[k].MissTaken++
			e.fetchBlockedUntil = now + 1 + e.cfg.BTBMissBubble
		} else {
			e.fetchBlockedUntil = now + 1
		}
		return true
	}
	var pred bool
	if e.gshare != nil {
		pred = e.gshare.Predict(e.pcIndex(in.PC))
	} else {
		pred = e.pred[k].Predict(e.pcIndex(in.PC))
	}
	f.predTaken = pred
	if pred != in.Taken {
		// Trace-driven simulation cannot fetch the wrong path; instead the
		// front end stalls until the branch resolves, which costs the same
		// cycles the flush-and-refill would.
		e.blockedBranch = int64(seq)
		return true
	}
	if in.Taken {
		if _, ok := e.btb[k].Lookup(e.pcIndex(in.PC)); !ok {
			e.btb[k].MissTaken++
			e.fetchBlockedUntil = now + 1 + e.cfg.BTBMissBubble
		} else {
			e.fetchBlockedUntil = now + 1
		}
		return true
	}
	return false // correctly predicted not-taken: keep fetching
}

// startIFill requests an I-cache line fill (and next-line prefetches at the
// Slice's stride, §3.5).
func (e *Engine) startIFill(now int64, k int, line uint64, blockFetch bool) {
	e.activity++
	if blockFetch {
		e.waitingIFill = true
		e.waitLine = line
		e.waitSlice = k
	}
	alloc, merged := e.imshr[k].Request(line, 0, false)
	if alloc {
		e.requestLine(now, k, line, true)
	} else if !merged && blockFetch {
		// MSHR full and the line not already in flight: the fill cannot
		// start, and no completion event will ever deliver this line. Do
		// not hold fetch on it — stall briefly and retry once an MSHR
		// frees. (With in-flight work a squash would eventually restart
		// fetch anyway, but with an empty pipeline waiting here would
		// deadlock the engine.)
		e.waitingIFill = false
		e.fetchBlockedUntil = maxi64(e.fetchBlockedUntil, now+2)
	}
	// Next-line prefetch: this Slice's next lines are stride NumSlices*8
	// away because fetch is pair-interleaved across Slices.
	stride := uint64(e.cfg.NumSlices) * 8
	for d := 1; d <= 4; d++ {
		pl := line + uint64(d)*stride
		if e.l1i[k].Contains(e.l1iIndex(pl)) {
			continue
		}
		if alloc, _ := e.imshr[k].Request(pl, 0, false); alloc {
			e.requestLine(now, k, pl, true)
		}
	}
}
