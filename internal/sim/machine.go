// Package sim is SSim: the trace-driven, cycle-level simulator of the
// Sharing Architecture (§5.2 of the paper). It instantiates a VM on the
// fabric — one or more VCores (internal/vcore) plus a shared set of L2
// banks — wires them to the three on-chip networks, the bank directory, and
// main memory, and runs them to completion, reporting cycles, miss rates,
// and stage-based stall statistics.
package sim

import (
	"fmt"

	"sharing/internal/cache"
	"sharing/internal/hypervisor"
	"sharing/internal/mem"
	"sharing/internal/noc"
	"sharing/internal/trace"
	"sharing/internal/vcore"
)

// Params configures one simulation.
type Params struct {
	// VCore is the per-VCore microarchitecture (NumSlices included).
	VCore vcore.Config
	// CacheKB is the VM's total L2 allocation in KB (multiple of 64).
	CacheKB int
	// FabricW, FabricH are the fabric dimensions (0 = default 64x32).
	FabricW, FabricH int
	// OperandNetWidth is the SON's per-port bandwidth in messages/cycle.
	// The paper's default is one network; two models the "second operand
	// network" ablation of §5.1.
	OperandNetWidth int
	// SortNetWidth and MemNetWidth size the other two networks.
	SortNetWidth, MemNetWidth int
	// BankPortWidth is L2 bank accesses per bank per cycle.
	BankPortWidth int
	// Mem configures main memory.
	Mem mem.Config
	// MaxCycles aborts runaway simulations (0 = default 2e9).
	MaxCycles int64
	// StrictTick disables event-driven cycle skipping and ticks every engine
	// on every cycle. It is the naive reference loop: slower, but useful for
	// differential testing and debugging. Results are cycle-exact either way.
	StrictTick bool
	// Sequential forces the quantum-phased loop of multi-engine machines to
	// run on the calling goroutine instead of the worker pool. Results are
	// byte-identical either way (the parallel loop executes the same
	// deterministic computation); single-engine machines always run the
	// direct sequential loop regardless.
	Sequential bool
	// Workers is the worker-pool width for parallel multi-engine execution:
	// 0 picks min(engines, GOMAXPROCS), 1 is equivalent to Sequential.
	Workers int
	// Quantum caps the quantum length in cycles for multi-engine machines.
	// 0 uses the topology lookahead (the minimum cross-engine round trip
	// through the NoC/L2 path); larger values are clamped to it.
	Quantum int
	// Sample configures sampled execution (functional warming + detailed
	// measurement windows). Zero value / Enabled=false keeps the exact,
	// fully detailed mode, which remains the default.
	Sample SampleParams
}

// DefaultParams returns the paper's base configuration for a VCore of n
// Slices and cacheKB of L2.
func DefaultParams(n, cacheKB int) Params {
	return Params{
		VCore:           vcore.DefaultConfig(n),
		CacheKB:         cacheKB,
		OperandNetWidth: 1,
		SortNetWidth:    1,
		MemNetWidth:     1,
		BankPortWidth:   2,
		Mem:             mem.DefaultConfig(),
	}
}

// Validate checks the parameters.
func (p *Params) Validate() error {
	if err := p.VCore.Validate(); err != nil {
		return err
	}
	if p.CacheKB < 0 || p.CacheKB%hypervisor.BankKB != 0 {
		return fmt.Errorf("sim: CacheKB %d must be a non-negative multiple of %d", p.CacheKB, hypervisor.BankKB)
	}
	if p.OperandNetWidth < 1 || p.SortNetWidth < 1 || p.MemNetWidth < 1 || p.BankPortWidth < 1 {
		return fmt.Errorf("sim: network/port widths must be >= 1")
	}
	if p.Mem.Latency < 1 {
		return fmt.Errorf("sim: memory latency must be >= 1")
	}
	if p.Workers < 0 {
		return fmt.Errorf("sim: Workers %d must be >= 0", p.Workers)
	}
	if p.Quantum < 0 {
		return fmt.Errorf("sim: Quantum %d must be >= 0", p.Quantum)
	}
	if err := p.Sample.validate(); err != nil {
		return err
	}
	return nil
}

// Result is the outcome of one simulation.
type Result struct {
	// Cycles is the total execution time (all threads complete).
	Cycles int64
	// Instructions is the total committed instruction count.
	Instructions uint64
	// VCores holds per-VCore statistics.
	VCores []vcore.Stats
	// OpNet, SortNet, MemNet are network statistics.
	OpNet, SortNet, MemNet noc.Stats
	// L2Hits/L2Misses aggregate bank behaviour.
	L2Hits, L2Misses uint64
	// Invalidations counts directory-driven L1 invalidations.
	Invalidations uint64
	// MemReads/MemWrites count main-memory accesses.
	MemReads, MemWrites uint64
	// Sample is set only for sampled runs: Cycles is then an extrapolated
	// estimate and Sample carries the measurement windows' statistics and
	// the CLT confidence interval. Nil for exact runs.
	Sample *SampleStats
}

// IPC returns aggregate committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Performance returns the throughput metric used across the evaluation:
// committed instructions per cycle for the whole VM. For a fixed workload,
// performance ratios equal inverse cycle-count ratios.
func (r *Result) Performance() float64 { return r.IPC() }

// AggregateVCore folds the per-VCore statistics into one whole-VM view
// (counters sum; Cycles is the slowest VCore's).
func (r *Result) AggregateVCore() vcore.Stats {
	var agg vcore.Stats
	for i := range r.VCores {
		agg.Add(&r.VCores[i])
	}
	return agg
}

// machine wires the uncore shared by all VCores of the VM.
type machine struct {
	home     *cache.HomeMap
	memNet   *noc.Network
	memory   *mem.Memory
	bankPort []*noc.Meter // per bank slot: bankPort[bankSlot(line)] serves Home(line)
	engines  []*vcore.Engine
	multiVC  bool
	ctrls    []noc.Coord

	// Fast bank math for power-of-two bank counts (the common case):
	// bankIndex/bankSlot shift and mask instead of dividing by NumBanks.
	// These run on every L2 access in both detailed and warming paths.
	bankPow   bool
	bankMask  uint64
	bankShift uint

	invalidations uint64
	l2Hits        uint64
	l2Misses      uint64
}

// nearestCtrl returns the closest memory controller tile.
func (m *machine) nearestCtrl(from noc.Coord) noc.Coord {
	best := m.ctrls[0]
	bd := noc.Manhattan(from, best)
	for _, c := range m.ctrls[1:] {
		if d := noc.Manhattan(from, c); d < bd {
			best, bd = c, d
		}
	}
	return best
}

// uncoreFor binds the shared machine to one VCore.
type uncoreFor struct {
	m  *machine
	vc int
}

// bankIndex strips the bank-interleave bits from a line address before it
// indexes a bank's tag array (lines are low-order interleaved across the
// VM's banks, so within one bank every resident line shares the same
// residue; indexing on the raw address would leave most sets unused). The
// mapping is bijective per bank.
func (m *machine) bankIndex(line uint64) uint64 {
	if m.bankPow {
		return (line >> 6 >> m.bankShift) << 6
	}
	return (line >> 6) / uint64(m.home.NumBanks()) << 6
}

// bankSlot is the bank-interleave residue of a line address (which bank slot
// the line maps to); the inverse pair of bankIndex.
func (m *machine) bankSlot(line uint64) uint64 {
	if m.bankPow {
		return (line >> 6) & m.bankMask
	}
	return (line >> 6) % uint64(m.home.NumBanks())
}

// bankReal reconstructs the real line address from a bank's index space.
func (m *machine) bankReal(idx, slot uint64) uint64 {
	return ((idx>>6)*uint64(m.home.NumBanks()) + slot) << 6
}

// L2Load implements vcore.Uncore. The round-trip cost to a bank at h hops is
// 2h + 4 cycles on a hit (Table 3: hit delay distance*2+4).
//
//ssim:hotpath
func (u *uncoreFor) L2Load(now int64, from noc.Coord, addr uint64) int64 {
	m := u.m
	line := addr &^ 63
	bank := m.home.Home(line)
	if bank == nil {
		// No L2 allocated: the miss goes straight to memory over the
		// on-chip network (flat cost, matching Table 2's flat 100-cycle
		// memory delay plus a small on-chip overhead).
		return m.memory.Access(now+2, false) + 2
	}
	slot := m.bankSlot(line)
	req := m.memNet.Send(now, from, bank.Pos)
	acc := m.bankPort[slot].Reserve(req) + 2
	if m.multiVC {
		bank.AddSharer(line, u.vc)
	}
	idx := m.bankIndex(line)
	if bank.Tags.Lookup(idx, false) {
		m.l2Hits++
		return m.memNet.Send(acc, bank.Pos, from)
	}
	m.l2Misses++
	done := m.memory.Access(acc, false)
	if victim, dirty, evicted := bank.Tags.Fill(idx, false); evicted {
		bank.DropLine(m.bankReal(victim, slot))
		if dirty {
			m.memory.Access(done, true)
		}
	}
	return m.memNet.Send(done, bank.Pos, from)
}

// StoreVisible implements vcore.Uncore: directory-driven invalidation of
// remote VCores' L1 copies when a committed store drains (§3.5).
//
//ssim:hotpath
func (u *uncoreFor) StoreVisible(now int64, from noc.Coord, addr uint64) int64 {
	m := u.m
	if !m.multiVC {
		return 0
	}
	line := addr &^ 63
	bank := m.home.Home(line)
	if bank == nil {
		return 0
	}
	others := bank.Sharers(line) &^ (1 << uint(u.vc))
	if others == 0 {
		bank.AddSharer(line, u.vc)
		return 0
	}
	bank.ClearSharersExcept(line, u.vc)
	// Invalidate each remote VCore's copy and charge the round trips:
	// requester -> home bank, bank -> sharers -> acks -> bank -> requester.
	maxHop := 0
	for vc2 := range m.engines {
		if vc2 == u.vc || others&(1<<uint(vc2)) == 0 {
			continue
		}
		m.engines[vc2].InvalidateL1(line)
		m.invalidations++
		if h := noc.Manhattan(bank.Pos, from); h > maxHop {
			maxHop = h
		}
	}
	toBank := noc.Manhattan(from, bank.Pos)
	return int64(2*(1+toBank) + 2*(1+maxHop))
}

// StoreVisiblePeek implements vcore.StoreVisiblePeeker: the read-only twin
// of StoreVisible. It computes the same coherence delay from the directory
// state as currently visible — under quantum execution, the state frozen at
// the last quantum barrier — without touching the sharer sets, any remote
// L1, or the invalidation counters. Engines call it concurrently during
// private phases; everything it reads is only written between quanta.
//
//ssim:hotpath
func (u *uncoreFor) StoreVisiblePeek(now int64, from noc.Coord, addr uint64) int64 {
	m := u.m
	if !m.multiVC {
		return 0
	}
	line := addr &^ 63
	bank := m.home.Home(line)
	if bank == nil {
		return 0
	}
	others := bank.Sharers(line) &^ (1 << uint(u.vc))
	if others == 0 {
		return 0
	}
	maxHop := 0
	for vc2 := range m.engines {
		if vc2 == u.vc || others&(1<<uint(vc2)) == 0 {
			continue
		}
		if h := noc.Manhattan(bank.Pos, from); h > maxHop {
			maxHop = h
		}
	}
	toBank := noc.Manhattan(from, bank.Pos)
	return int64(2*(1+toBank) + 2*(1+maxHop))
}

// WritebackDirty implements vcore.Uncore.
//
//ssim:hotpath
func (u *uncoreFor) WritebackDirty(now int64, from noc.Coord, addr uint64) {
	m := u.m
	line := addr &^ 63
	bank := m.home.Home(line)
	if bank == nil {
		m.memory.Access(now, true)
		return
	}
	at := m.memNet.Send(now, from, bank.Pos)
	idx := m.bankIndex(line)
	slot := m.bankSlot(line)
	if victim, dirty, evicted := bank.Tags.Fill(idx, true); evicted {
		bank.DropLine(m.bankReal(victim, slot))
		if dirty {
			m.memory.Access(at, true)
		}
	}
}

// WarmLoad implements vcore.WarmUncore: the timing-free twin of L2Load.
// It updates the home bank's tag/LRU/dirty state, the directory sharer set,
// and victim drop exactly as a detailed load would, but models no network,
// port, or memory timing and counts no hits or misses — functional warming
// must leave the measured windows' statistics untouched.
//
//ssim:hotpath
func (u *uncoreFor) WarmLoad(addr uint64) {
	m := u.m
	line := addr &^ 63
	bank := m.home.Home(line)
	if bank == nil {
		return
	}
	if m.multiVC {
		bank.AddSharer(line, u.vc)
	}
	idx := m.bankIndex(line)
	slot := m.bankSlot(line)
	if hit, victim, _, evicted := bank.Tags.Warm(idx, false); !hit && evicted {
		bank.DropLine(m.bankReal(victim, slot))
	}
}

// WarmStore implements vcore.WarmUncore: the timing-free twin of
// StoreVisible (directory-driven invalidation of remote VCores' L1 copies).
//
//ssim:hotpath
func (u *uncoreFor) WarmStore(addr uint64) {
	m := u.m
	if !m.multiVC {
		return
	}
	line := addr &^ 63
	bank := m.home.Home(line)
	if bank == nil {
		return
	}
	others := bank.Sharers(line) &^ (1 << uint(u.vc))
	if others == 0 {
		bank.AddSharer(line, u.vc)
		return
	}
	bank.ClearSharersExcept(line, u.vc)
	for vc2 := range m.engines {
		if vc2 == u.vc || others&(1<<uint(vc2)) == 0 {
			continue
		}
		m.engines[vc2].InvalidateL1(line)
	}
}

// WarmWriteback implements vcore.WarmUncore: the timing-free twin of
// WritebackDirty (a dirty L1 victim installed in its home bank).
//
//ssim:hotpath
func (u *uncoreFor) WarmWriteback(addr uint64) {
	m := u.m
	line := addr &^ 63
	bank := m.home.Home(line)
	if bank == nil {
		return
	}
	idx := m.bankIndex(line)
	slot := m.bankSlot(line)
	if hit, victim, _, evicted := bank.Tags.Warm(idx, true); !hit && evicted {
		bank.DropLine(m.bankReal(victim, slot))
	}
}

// Machine is one fully wired simulation instance: a VM placed on the
// fabric, one VCore engine per thread, shared networks, banks and memory.
//
// Multi-engine machines run the quantum-phased loop (parallel.go): engines
// advance privately through quanta of mc.quantum cycles and the shared
// fabric traffic is merged at the quantum barriers. The operand and sort
// networks are strictly VCore-internal (every message stays between one
// engine's Slices), so each engine gets its own instance — their statistics
// sum to the shared-network values and the private phases stay race-free.
type Machine struct {
	p        Params
	m        *machine
	opNets   []*noc.Network
	sortNets []*noc.Network
	memNet   *noc.Network
	uncores  []*uncoreFor
	quantum  int64

	// Quantum-merge scratch (reused across barriers, see mergeFabric).
	opLists [][]vcore.FabricOp
	opPos   []int

	// wake[i] is engine i's NextWake as last computed in runEngineQuantum
	// when it lay beyond the quantum edge: until then the engine is idle
	// unless something outside it changes, so later quanta charge the idle
	// span without stepping. Only the merge and the barrier release change
	// an engine from outside, so mergeFabric lowers wake[i] to a delivered
	// fill's cycle and a barrier release clears every wake, as does each
	// runQuanta entry. A wake at or before a quantum's start is spent and
	// ignored; 0 is the empty value. StrictTick never records one. Engine i
	// owns index i during the private phases.
	wake []int64
}

// Engines exposes the per-thread VCore engines (for golden-model checks).
func (mc *Machine) Engines() []*vcore.Engine { return mc.m.engines }

// Quantum returns the quantum length (in cycles) the machine uses for
// multi-engine quantum-phased execution: the topology lookahead, capped by
// Params.Quantum. Single-engine machines do not use it.
func (mc *Machine) Quantum() int64 { return mc.quantum }

// NewMachine builds a simulation instance for mt under p. One VCore is built
// per thread; all VCores share the VM's L2 banks (with directory coherence
// when there is more than one VCore).
func NewMachine(p Params, mt *trace.MultiTrace) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := mt.Validate(); err != nil {
		return nil, err
	}
	w, h := p.FabricW, p.FabricH
	if w == 0 {
		w, h = 64, 32
	}
	fabric, err := hypervisor.NewFabric(w, h)
	if err != nil {
		return nil, err
	}
	vm, err := fabric.AllocVM(len(mt.Threads), p.VCore.NumSlices, p.CacheKB/hypervisor.BankKB)
	if err != nil {
		return nil, err
	}
	memNet := noc.New("memory", w, h, p.MemNetWidth)
	m := &machine{
		home:     cache.NewHomeMap(vm.Banks),
		memNet:   memNet,
		memory:   mem.New(p.Mem),
		bankPort: make([]*noc.Meter, len(vm.Banks)),
		multiVC:  len(mt.Threads) > 1,
		ctrls: []noc.Coord{
			{X: 0, Y: h / 2}, {X: w - 1, Y: h / 2}, {X: w / 2, Y: 0}, {X: w / 2, Y: h - 1},
		},
	}
	if nb := m.home.NumBanks(); nb > 0 && nb&(nb-1) == 0 {
		m.bankPow = true
		m.bankMask = uint64(nb - 1)
		for 1<<m.bankShift < nb {
			m.bankShift++
		}
	}
	for i := range m.bankPort {
		m.bankPort[i] = noc.NewMeter(p.BankPortWidth)
	}
	mc := &Machine{p: p, m: m, memNet: memNet}
	for ti, th := range mt.Threads {
		// The operand and sort networks carry only intra-VCore traffic, so
		// each engine owns a private instance (identical timing and summed
		// statistics; see the Machine doc comment).
		opNet := noc.New("operand", w, h, p.OperandNetWidth)
		sortNet := noc.New("lssort", w, h, p.SortNetWidth)
		u := &uncoreFor{m: m, vc: ti}
		eng, err := vcore.New(p.VCore, th, vm.VCores[ti].Slices, opNet, sortNet, u)
		if err != nil {
			return nil, err
		}
		if len(mt.Barriers) > 0 {
			at := make([]int, len(mt.Barriers))
			for bi, b := range mt.Barriers {
				at[bi] = b.At[ti]
			}
			eng.SetBarriers(at)
		}
		m.engines = append(m.engines, eng)
		mc.opNets = append(mc.opNets, opNet)
		mc.sortNets = append(mc.sortNets, sortNet)
		mc.uncores = append(mc.uncores, u)
	}
	if len(m.engines) > 1 {
		mc.quantum = quantumFor(p, vm)
		for _, e := range m.engines {
			if err := e.SetFabricBuffering(true); err != nil {
				return nil, err
			}
		}
		mc.opLists = make([][]vcore.FabricOp, len(m.engines))
		mc.opPos = make([]int, len(m.engines))
		mc.wake = make([]int64, len(m.engines))
	}
	return mc, nil
}

// quantumFor derives the machine's quantum length from its topology: the
// NoC lookahead, i.e. the minimum cycles between any engine issuing a
// fabric request and the earliest cycle the response can land back at a
// Slice. An L2 hit at Manhattan distance d returns no earlier than
// request+2d+4 (one cycle each way of link injection plus d hops, plus the
// two-cycle bank access); with no L2 allocated, a request goes straight to
// memory and returns no earlier than request+4+Mem.Latency. Quanta no
// longer than the lookahead mean every buffered response lands at or after
// the next quantum barrier, so deferring the shared-fabric traffic to the
// barrier preserves the request/response timing of the inline path (up to
// the barrier-granular directory visibility documented in DESIGN.md).
func quantumFor(p Params, vm *hypervisor.VMAlloc) int64 {
	la := int64(4) + int64(p.Mem.Latency)
	if len(vm.Banks) > 0 {
		la = 1 << 30
		for _, vc := range vm.VCores {
			for _, s := range vc.Slices {
				for _, b := range vm.Banks {
					if rt := int64(2*noc.Manhattan(s, b.Pos) + 4); rt < la {
						la = rt
					}
				}
			}
		}
	}
	if p.Quantum > 0 && int64(p.Quantum) < la {
		la = int64(p.Quantum)
	}
	if la < 1 {
		la = 1
	}
	return la
}

// Run executes the machine to completion.
//
// Single-engine machines use the direct event-driven loop (runUntil):
// every cycle with work steps the engine, and idle spans are skipped to
// NextWake with their stall statistics charged via AccountIdle, so results
// are bit-identical to the strict per-cycle loop (Params.StrictTick).
// Multi-engine machines use the quantum-phased loop (runQuanta), on the
// worker pool unless Params.Sequential — byte-identical either way.
func (mc *Machine) Run() (*Result, error) {
	var t int64
	if err := mc.runLoop(&t, nil); err != nil {
		return nil, err
	}
	return mc.result(t + 1), nil
}

// runLoop dispatches to the machine's main loop: the quantum-phased loop
// for multi-engine machines, the direct loop otherwise.
func (mc *Machine) runLoop(t *int64, stop *windowStop) error {
	if len(mc.m.engines) > 1 {
		return mc.runQuanta(t, stop)
	}
	return mc.runUntil(t, stop)
}

// addNet accumulates per-engine network statistics into a whole-VM view.
func addNet(dst *noc.Stats, s noc.Stats) {
	dst.Messages += s.Messages
	dst.TotalHops += s.TotalHops
	dst.StallCycles += s.StallCycles
}

// runUntil drives the event-driven main loop from *t until every engine is
// done or, when stop is non-nil, until stop reports the current measurement
// window complete. *t is left at the last cycle executed, so a sampled
// caller resumes at *t+1. The loop is shared verbatim between exact runs
// (stop == nil) and the detailed windows of sampled runs, which keeps the
// exact mode byte-identical by construction.
//
//ssim:hotpath
func (mc *Machine) runUntil(t *int64, stop *windowStop) error {
	p, m := mc.p, mc.m
	maxCycles := p.MaxCycles
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}
	for {
		now := *t
		anyActive := false
		done := true
		for _, e := range m.engines {
			if e.Step(now) {
				anyActive = true
			}
			if err := e.Err(); err != nil {
				return err
			}
			if !e.Done() {
				done = false
			}
		}
		if done {
			return nil
		}
		if stop != nil && stop.check(now) {
			return nil
		}
		// Barrier rendezvous: release when every unfinished engine waits.
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
				e.ReleaseBarrier(now)
			}
			anyActive = true
		}
		next := now + 1
		if !anyActive && !p.StrictTick {
			next = vcore.NeverWake
			for _, e := range m.engines {
				if w := e.NextWake(now); w < next {
					next = w
				}
			}
			if next >= vcore.NeverWake {
				//ssim:nolint hotalloc: deadlock error path, taken at most once per run
				return fmt.Errorf("sim: deadlock at cycle %d: all engines quiescent with no pending events", now)
			}
			for _, e := range m.engines {
				e.AccountIdle(next-now-1, now)
			}
		}
		*t = next
		if *t > maxCycles {
			//ssim:nolint hotalloc: runaway-simulation error path, taken at most once per run
			return fmt.Errorf("sim: exceeded %d cycles (deadlock?)", maxCycles)
		}
	}
}

// result assembles the Result after the main loop finished at the given
// total cycle count.
func (mc *Machine) result(cycles int64) *Result {
	m := mc.m
	res := &Result{Cycles: cycles, MemNet: mc.memNet.Stats()}
	for i := range m.engines {
		addNet(&res.OpNet, mc.opNets[i].Stats())
		addNet(&res.SortNet, mc.sortNets[i].Stats())
	}
	for _, e := range m.engines {
		res.Instructions += e.Committed()
		res.VCores = append(res.VCores, *e.Stats())
	}
	res.L2Hits, res.L2Misses = m.l2Hits, m.l2Misses
	res.Invalidations = m.invalidations
	res.MemReads, res.MemWrites = m.memory.Reads, m.memory.Writes
	return res
}

// Run builds a Machine for mt under p and executes it to completion, in
// exact mode or, when p.Sample.Enabled, in sampled mode.
func Run(p Params, mt *trace.MultiTrace) (*Result, error) {
	mc, err := NewMachine(p, mt)
	if err != nil {
		return nil, err
	}
	if p.Sample.Enabled {
		return mc.RunSampled()
	}
	return mc.Run()
}
