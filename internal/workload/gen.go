package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"sharing/internal/isa"
	"sharing/internal/trace"
)

// Address-space layout for generated traces. Regions are spaced far apart so
// they can never alias; per-thread private regions are disjoint by thread id
// so multi-threaded traces stay value-deterministic under any interleaving.
const (
	codeBase    = 0x0040_0000        // static code, per phase at codeBase + phase<<24
	privateBase = 0x1000_0000_0000   // + tid<<40 + tier<<34
	streamBase  = 0x2000_0000_0000   // + tid<<40
	sharedBase  = 0x4000_0000_0000   // read-only region shared by all threads
	fsBase      = 0x4100_0000_0000   // false-shared lines, written per-thread words
	sharedSize  = 1 * MB             // size of the shared read-only region
	fsLines     = 512                // number of falsely-shared cache lines
	maxDepDist  = 24                 // clamp for dependency distances
	numDataRegs = 27                 // r1..r27 hold data; r28-r31 reserved
	constOneReg = isa.Reg(30)        // preamble sets r30 = 1
	seedValReg  = isa.Reg(29)        // preamble sets r29 = golden ratio constant
	seedVal     = 0x9e3779b97f4a7c15 // initial value for seedValReg
)

// staticInst is one instruction of the synthetic static code image.
type staticInst struct {
	op               isa.Op
	dest, src1, src2 isa.Reg
	imm              int64 // static immediate for AddI
}

// termKind classifies a block's terminator.
type termKind uint8

const (
	// termLoop is a backward conditional branch to the block's own start: a
	// natural loop. Taken while iterating, not-taken once on exit, so a
	// bimodal predictor mispredicts roughly once per loop visit.
	termLoop termKind = iota
	// termNoisy is a data-dependent conditional self-branch with erratic
	// iteration counts (1-3), which defeats the bimodal predictor.
	termNoisy
	// termJmp is an unconditional forward jump (call-like control transfer).
	termJmp
)

// basicBlock is one block of static code. The program is a sequence of
// blocks executed in order (wrapping at the end); each block loops on itself
// per its terminator before control falls through to the next block. This
// structured shape guarantees the dynamic walk covers the whole code image
// while still producing realistic loop/branch behaviour.
type basicBlock struct {
	pc        uint64 // PC of first instruction
	body      []staticInst
	termPC    uint64
	kind      termKind
	meanIters float64 // termLoop: mean iterations per visit
	pExtra    float64 // termNoisy: probability of each extra iteration
	jmpSkip   int     // termJmp: forward skip distance in blocks
}

// phaseCode is the static code image for one phase.
type phaseCode struct {
	blocks []basicBlock
}

// buildPhaseCode lays out the static code for one phase deterministically
// from rng. Register destinations are allocated round-robin over the data
// registers so that "the register written d instructions ago" is unique for
// d <= numDataRegs, giving direct control over dependency distances.
func buildPhaseCode(ph *Phase, phaseIdx int, rng *rand.Rand) *phaseCode {
	nBlocks := ph.CodeBlocks
	code := &phaseCode{blocks: make([]basicBlock, nBlocks)}
	pc := uint64(codeBase + phaseIdx<<24)
	destCnt := 0
	nextDest := func() isa.Reg {
		destCnt++
		return isa.Reg(1 + (destCnt-1)%numDataRegs)
	}
	// srcAt returns the register that was written d destination-writes ago.
	srcAt := func(d int) isa.Reg {
		if destCnt == 0 {
			return seedValReg
		}
		if d > destCnt {
			d = destCnt
		}
		return isa.Reg(1 + (destCnt-d)%numDataRegs)
	}
	sampleDep := func() int {
		if ph.MeanDep <= 1 {
			return 1
		}
		d := 1 + int(rng.ExpFloat64()*(ph.MeanDep-1))
		if d < 1 {
			d = 1
		}
		if d > maxDepDist {
			d = maxDepDist
		}
		return d
	}
	aluOps := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpAnd, isa.OpOr, isa.OpAddI, isa.OpAdd, isa.OpSub, isa.OpShl, isa.OpShr}
	var lastLoadDest isa.Reg
	for b := 0; b < nBlocks; b++ {
		blk := &code.blocks[b]
		blk.pc = pc
		// Block length: AvgBlockLen +/- up to half, minimum 3 (incl. term).
		bl := ph.AvgBlockLen
		span := bl / 2
		if span > 0 {
			bl += rng.Intn(2*span+1) - span
		}
		if bl < 3 {
			bl = 3
		}
		blk.body = make([]staticInst, 0, bl-1)
		for k := 0; k < bl-1; k++ {
			var si staticInst
			r := rng.Float64()
			m := ph.Mix
			switch {
			case r < m.Load:
				si.op = isa.OpLoad
				si.dest = nextDest()
				si.src1 = srcAt(sampleDep())
				if lastLoadDest != isa.Zero && rng.Float64() < ph.PointerChase {
					si.src1 = lastLoadDest
				}
				lastLoadDest = si.dest
			case r < m.Load+m.Store:
				si.op = isa.OpStore
				si.src1 = srcAt(sampleDep())
				si.src2 = srcAt(sampleDep())
			case r < m.Load+m.Store+m.Mul:
				si.op = isa.OpMul
				si.dest = nextDest()
				si.src1 = srcAt(sampleDep())
				si.src2 = srcAt(sampleDep())
			case r < m.Load+m.Store+m.Mul+m.Div:
				si.op = isa.OpDiv
				si.dest = nextDest()
				si.src1 = srcAt(sampleDep())
				si.src2 = srcAt(sampleDep())
			default:
				si.op = aluOps[rng.Intn(len(aluOps))]
				si.dest = nextDest()
				si.src1 = srcAt(sampleDep())
				if si.op == isa.OpAddI {
					si.imm = int64(rng.Intn(4096) - 2048)
				} else {
					si.src2 = srcAt(sampleDep())
				}
			}
			blk.body = append(blk.body, si)
			pc += 4
		}
		blk.termPC = pc
		pc += 4
		// Terminator selection: ~10% unconditional forward jumps
		// (call-like transfers); of the conditional sites, PredictableFrac
		// are well-behaved loops and the rest are erratic data-dependent
		// branches that defeat the bimodal predictor.
		switch {
		case b != nBlocks-1 && rng.Float64() < 0.10:
			blk.kind = termJmp
			blk.jmpSkip = 1 + rng.Intn(3)
		case rng.Float64() < ph.PredictableFrac:
			blk.kind = termLoop
			blk.meanIters = 5 + rng.ExpFloat64()*12
		default:
			blk.kind = termNoisy
			blk.pExtra = 0.30 + 0.30*rng.Float64()
		}
	}
	return code
}

// genChunk is how many instructions the walk emits before it hands them to
// the value pass.
const genChunk = 4096

// walker holds the walk state of one thread: the rng stream, the
// control-flow position and the address model. It holds no register and no
// memory word, so the walk cannot read a value; that is what lets the value
// pass run behind it.
type walker struct {
	rng       *rand.Rand
	streamPtr uint64
	tid       int
	out       []isa.Inst   // skeleton instructions; cap n, never reallocated
	chunks    chan<- int   // len(out) at each chunk boundary and at the end
	tierZipf  []*rand.Zipf // per-tier line-popularity samplers (current phase)
	tierBase  []uint64     // per-tier skewed base addresses (current phase)
	tierScan  []uint64     // per-tier cyclic scan cursors (line index)
	phaseIdx  int
}

// setPhase rebuilds the per-tier Zipf samplers for a phase. Line popularity
// within a working-set tier follows a Zipf distribution (s=1.1), giving the
// strong reuse real working sets exhibit: caches smaller than the tier catch
// the hot head, and hit rate keeps improving until the whole tier fits -
// which is what produces the paper's smooth cache-sensitivity curves.
func (g *walker) setPhase(ph *Phase) {
	g.tierZipf = g.tierZipf[:0]
	g.tierBase = g.tierBase[:0]
	g.tierScan = make([]uint64, len(ph.Tiers))
	for ti, t := range ph.Tiers {
		lines := t.Size / 64
		if lines < 1 {
			lines = 1
		}
		g.tierZipf = append(g.tierZipf, rand.NewZipf(g.rng, 1.1, 8, lines-1))
		// Skew each tier's base by a deterministic sub-megabyte offset so
		// regions are not power-of-two aligned (real heaps are not); perfect
		// alignment would make distinct working sets collide in the same
		// cache sets for every power-of-two Slice count.
		skew := (uint64(ti)*2654435761 + uint64(g.tid)*40503 + uint64(g.phaseIdx)*975313579) & 0xf_ffc0
		base := uint64(privateBase) + uint64(g.tid)<<40 + uint64(ti)<<34 + skew
		g.tierBase = append(g.tierBase, base)
	}
}

// emit appends a skeleton instruction and hands each completed chunk to
// the value pass.
func (g *walker) emit(in isa.Inst) {
	g.out = append(g.out, in)
	if len(g.out)%genChunk == 0 {
		g.chunks <- len(g.out)
	}
}

// pickAddr chooses a data address according to the phase's memory model.
func (g *walker) pickAddr(p *Profile, ph *Phase, isLoad bool) uint64 {
	if p.Threads > 1 {
		if isLoad && g.rng.Float64() < p.SharedReadFrac {
			return sharedBase + uint64(g.rng.Int63n(sharedSize))&^7
		}
		if !isLoad && g.rng.Float64() < p.FalseShareFrac {
			line := uint64(g.rng.Intn(fsLines))
			return fsBase + line*64 + uint64(g.tid%8)*8
		}
	}
	if g.rng.Float64() < ph.StreamFrac {
		a := streamBase + uint64(g.tid)<<40 + g.streamPtr
		g.streamPtr += 8
		return a
	}
	// Weighted tier pick; line popularity within a tier is Zipfian.
	w := g.rng.Float64()
	var acc float64
	for ti, t := range ph.Tiers {
		acc += t.Weight
		if w <= acc || ti == len(ph.Tiers)-1 {
			var line uint64
			if t.Scan {
				line = g.tierScan[ti]
				g.tierScan[ti]++
				if g.tierScan[ti] >= t.Size/64 {
					g.tierScan[ti] = 0
				}
			} else {
				line = g.tierZipf[ti].Uint64()
			}
			return g.tierBase[ti] + line*64 + uint64(g.rng.Intn(8))*8
		}
	}
	// No tiers declared: fall back to a tiny private scratch region.
	return uint64(privateBase) + uint64(g.tid)<<40 + uint64(g.rng.Int63n(4*KB))&^7
}

// valuePass holds the architectural state of one thread. It follows the
// walk and fills in the fields that depend on values: a load's or store's
// Imm (Addr minus the base register's value) and a conditional branch's
// source registers.
type valuePass struct {
	regs     [isa.NumArchRegs]uint64
	mem      isa.MemImage
	lastDest isa.Reg
}

func (v *valuePass) write(r isa.Reg, val uint64) {
	if r != isa.Zero {
		v.regs[r] = val
	}
}

func (v *valuePass) read(r isa.Reg) uint64 {
	if r == isa.Zero {
		return 0
	}
	return v.regs[r]
}

// run fills each chunk of insts the walk hands over on chunks, in place and
// in order, until the walk closes chunks.
func (v *valuePass) run(insts []isa.Inst, chunks <-chan int) {
	done := 0
	for end := range chunks {
		for i := done; i < end; i++ {
			v.fill(&insts[i])
		}
		done = end
	}
}

// fill completes one skeleton instruction and applies its architectural
// effect.
func (v *valuePass) fill(in *isa.Inst) {
	switch in.Op {
	case isa.OpLoad:
		in.Imm = int64(in.Addr - v.read(in.Src1))
		v.write(in.Dest, v.mem.Load(in.Addr&^7))
	case isa.OpStore:
		in.Imm = int64(in.Addr - v.read(in.Src1))
		v.mem.Store(in.Addr&^7, v.read(in.Src2))
	case isa.OpBr:
		in.Src1, in.Src2 = v.branchRegs(in.Taken)
	case isa.OpJmp, isa.OpNop:
	default:
		v.write(in.Dest, in.Eval(v.read(in.Src1), v.read(in.Src2)))
	}
	if in.Op.HasDest() {
		v.lastDest = in.Dest
	}
}

// branchRegs picks source registers so the condition (src1 != src2) matches
// the desired direction given current register values.
func (v *valuePass) branchRegs(taken bool) (isa.Reg, isa.Reg) {
	ld := v.lastDest
	if ld == isa.Zero {
		ld = seedValReg
	}
	if !taken {
		return ld, ld
	}
	val := v.read(ld)
	switch {
	case val != 0:
		return ld, isa.Zero
	case val != 1:
		return ld, constOneReg
	default:
		return constOneReg, isa.Zero
	}
}

// Generate synthesizes n dynamic instructions per thread, deterministically
// from seed. The result is fully value-consistent (see package comment).
//
// Threads are independent (each has its own rng, memory image and output),
// so a pool of min(GOMAXPROCS, Threads) goroutines generates them, thread
// tid on worker tid mod width; each result lands in slot tid, and the
// lowest tid's error is reported.
func (p *Profile) Generate(n int, seed int64) (*trace.MultiTrace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 16 {
		return nil, fmt.Errorf("workload: trace length %d too short", n)
	}
	// Static code is shared by all threads and deterministic in seed.
	layoutRng := rand.New(rand.NewSource(seed*1000003 + int64(len(p.Name))*7919))
	codes := make([]*phaseCode, len(p.Phases))
	for i := range p.Phases {
		codes[i] = buildPhaseCode(&p.Phases[i], i, layoutRng)
	}
	//ssim:nolint detrand: pool width affects wall-clock only, traces are byte-identical for any value
	width := min(runtime.GOMAXPROCS(0), p.Threads)
	m := &trace.MultiTrace{Name: p.Name, Threads: make([]*trace.Trace, p.Threads)}
	errs := make([]error, p.Threads)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tid := w; tid < p.Threads; tid += width {
				insts, err := p.generateThread(codes, n, seed, tid)
				m.Threads[tid], errs[tid] = &trace.Trace{Name: p.Name, Insts: insts}, err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if p.Threads > 1 {
		// Barrier every n/8 instructions, pacing threads like the pthread
		// barriers in PARSEC kernels.
		for k := 1; k < 8; k++ {
			at := make([]int, p.Threads)
			for i := range at {
				at[i] = k * n / 8
			}
			m.Barriers = append(m.Barriers, trace.BarrierSet{At: at})
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// generateThread synthesizes thread tid's n instructions: the walk runs on
// the calling goroutine and emits skeletons into the output slice, and the
// value pass runs on a second goroutine, filling each chunk in place once
// the walk has handed it over.
func (p *Profile) generateThread(codes []*phaseCode, n int, seed int64, tid int) ([]isa.Inst, error) {
	out := make([]isa.Inst, 0, n)
	chunks := make(chan int, n/genChunk+1) // the walk never blocks on a send
	filled := make(chan struct{})
	go func() {
		var v valuePass
		v.run(out[:n], chunks)
		close(filled)
	}()
	g := &walker{
		rng:    rand.New(rand.NewSource(seed + int64(tid)*1_000_000_007)),
		tid:    tid,
		out:    out,
		chunks: chunks,
	}
	g.walk(p, codes, n)
	<-filled
	if len(g.out) != n {
		return nil, fmt.Errorf("workload: internal error: generated %d insts, want %d", len(g.out), n)
	}
	return g.out, nil
}

// walk emits exactly n skeleton instructions by walking the synthetic CFG,
// then hands the last partial chunk to the value pass and closes chunks.
func (g *walker) walk(p *Profile, codes []*phaseCode, n int) {
	defer close(g.chunks)
	// Preamble: materialize the reserved constants. These two instructions
	// live just below the first phase's code.
	pre := uint64(codeBase - 16)
	g.emit(isa.Inst{PC: pre, Op: isa.OpAddI, Dest: constOneReg, Src1: isa.Zero, Imm: 1})
	g.emit(isa.Inst{PC: pre + 4, Op: isa.OpAddI, Dest: seedValReg, Src1: isa.Zero, Imm: seedVal & 0x7fff_ffff_ffff})
	nPhases := len(p.Phases)
	for phi := 0; phi < nPhases; phi++ {
		limit := (phi + 1) * n / nPhases
		if phi == nPhases-1 {
			limit = n
		}
		g.phaseIdx = phi
		g.setPhase(&p.Phases[phi])
		g.walkPhase(p, &p.Phases[phi], codes[phi], limit)
	}
	if len(g.out)%genChunk != 0 {
		g.chunks <- len(g.out)
	}
}

// emitBody emits one pass over a block's body, stopping at limit.
func (g *walker) emitBody(p *Profile, ph *Phase, blk *basicBlock, limit int) {
	pc := blk.pc
	for i := range blk.body {
		if len(g.out) >= limit {
			return
		}
		si := &blk.body[i]
		in := isa.Inst{PC: pc, Op: si.op, Dest: si.dest, Src1: si.src1, Src2: si.src2, Imm: si.imm}
		switch si.op {
		case isa.OpLoad:
			in.Addr = g.pickAddr(p, ph, true)
		case isa.OpStore:
			in.Addr = g.pickAddr(p, ph, false)
		}
		g.emit(in)
		pc += 4
	}
}

// walkPhase executes the phase's block sequence until the thread has emitted
// limit instructions in total. Each visited block iterates per its
// terminator kind, then control moves to the following block (wrapping).
// A conditional branch leaves the walk with its direction only; the value
// pass picks the source registers that produce it.
func (g *walker) walkPhase(p *Profile, ph *Phase, code *phaseCode, limit int) {
	nBlocks := len(code.blocks)
	bi := 0
	for len(g.out) < limit {
		blk := &code.blocks[bi]
		next := (bi + 1) % nBlocks
		var iters int
		switch blk.kind {
		case termJmp:
			iters = 1
			next = (bi + blk.jmpSkip) % nBlocks
		case termLoop:
			iters = 1 + int(g.rng.ExpFloat64()*(blk.meanIters-1))
			if iters > 64 {
				iters = 64
			}
		case termNoisy:
			iters = 1
			for iters < 4 && g.rng.Float64() < blk.pExtra {
				iters++
			}
		}
		for it := 0; it < iters && len(g.out) < limit; it++ {
			g.emitBody(p, ph, blk, limit)
			if len(g.out) >= limit {
				return
			}
			in := isa.Inst{PC: blk.termPC, Target: blk.pc}
			if blk.kind == termJmp {
				in.Op = isa.OpJmp
				in.Taken = true
				in.Target = code.blocks[next].pc
			} else {
				in.Op = isa.OpBr
				in.Taken = it < iters-1 // taken loops back, not-taken exits
			}
			g.emit(in)
		}
		bi = next
	}
}

// GeneratePhase synthesizes a single-threaded trace of n instructions using
// only phase index pi of the profile. Used by the dynamic-phase experiment
// (Table 7), which simulates each gcc phase independently.
func (p *Profile) GeneratePhase(pi, n int, seed int64) (*trace.Trace, error) {
	if pi < 0 || pi >= len(p.Phases) {
		return nil, fmt.Errorf("workload: %s has %d phases, no phase %d", p.Name, len(p.Phases), pi)
	}
	sub := *p
	sub.Name = fmt.Sprintf("%s.phase%d", p.Name, pi+1)
	sub.Threads = 1
	sub.Phases = []Phase{p.Phases[pi]}
	// Distinct seed per phase so phases do not share dynamic randomness,
	// while remaining deterministic.
	mt, err := sub.Generate(n, seed+int64(pi)*37)
	if err != nil {
		return nil, err
	}
	return mt.Threads[0], nil
}
