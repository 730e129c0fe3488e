package sim

import (
	"fmt"
	"math"

	"sharing/internal/vcore"
)

// This file implements sampled execution: SMARTS-style interval sampling
// over the trace. The run alternates functional warming (vcore.FastForward:
// architectural state only, no timing) with short fully detailed windows,
// and extrapolates whole-trace IPC from the windows with a CLT confidence
// interval. The schedule is systematic sampling with a per-period
// pseudo-random offset derived purely from SampleParams.Seed, so a sampled
// run is exactly reproducible and never consults wall-clock or global
// randomness.

// Default sampling geometry: with a 1000-instruction measured window, a
// 400-instruction detailed pipeline-warmup prefix, and a 15000-instruction
// period, ~9% of the trace runs detailed — enough windows for tight
// confidence intervals on multi-million-instruction sweep traces while
// clearing an order-of-magnitude class speedup.
const (
	DefaultSampleWindow = 1000
	DefaultSamplePeriod = 15000
	DefaultSampleWarmup = 400
)

// SampleParams configures sampled execution.
type SampleParams struct {
	// Enabled turns sampling on; false (the zero value) is exact mode.
	Enabled bool
	// WindowInsts is the number of instructions measured per detailed
	// window (DefaultSampleWindow if 0).
	WindowInsts int
	// PeriodInsts is the sampling period: one window is measured per
	// period (DefaultSamplePeriod if 0). Must be at least WindowInsts +
	// WarmupInsts.
	PeriodInsts int
	// WarmupInsts is the detailed pipeline-warmup prefix executed before
	// each window's measurement begins, so windows do not observe the
	// artificial ramp-up of an empty pipeline (DefaultSampleWarmup if 0;
	// use -1 for an explicit zero-length warmup).
	WarmupInsts int
	// Seed derives the per-period window offsets. The schedule is a pure
	// function of (Seed, PeriodInsts, WindowInsts, WarmupInsts, trace
	// length); equal seeds give identical window placement.
	Seed int64
}

// Normalized returns the parameters with every zero field resolved to the
// default sampling geometry — the values a run will actually use. Callers
// that key caches or reports by sampling configuration should normalize
// first so that "0 = default" and the explicit default coincide.
func (sp SampleParams) Normalized() SampleParams { return sp.withDefaults() }

// withDefaults resolves zero fields to the default sampling geometry.
func (sp SampleParams) withDefaults() SampleParams {
	if sp.WindowInsts == 0 {
		sp.WindowInsts = DefaultSampleWindow
	}
	if sp.PeriodInsts == 0 {
		sp.PeriodInsts = DefaultSamplePeriod
	}
	switch {
	case sp.WarmupInsts == 0:
		sp.WarmupInsts = DefaultSampleWarmup
	case sp.WarmupInsts < 0:
		sp.WarmupInsts = 0
	}
	return sp
}

// validate checks the (resolved) sampling parameters.
func (sp SampleParams) validate() error {
	if !sp.Enabled {
		return nil
	}
	r := sp.withDefaults()
	if r.WindowInsts < 1 {
		return fmt.Errorf("sim: sample window %d must be >= 1 instruction", r.WindowInsts)
	}
	if r.PeriodInsts < r.WindowInsts+r.WarmupInsts {
		return fmt.Errorf("sim: sample period %d must be >= window %d + warmup %d",
			r.PeriodInsts, r.WindowInsts, r.WarmupInsts)
	}
	return nil
}

// SampleWindow is one planned measurement interval of a sampled run:
// functional warming runs to WarmTo, detailed execution from WarmTo, and
// measurement covers committed instructions [Start, End).
type SampleWindow struct {
	WarmTo, Start, End uint64
}

// splitmix64 is the SplitMix64 finalizer: a deterministic, seed-derived
// hash used to place windows pseudo-randomly within their periods.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SampleSchedule returns the deterministic window placement for a trace of
// traceLen instructions under sp: systematic sampling with one window per
// PeriodInsts, offset within each period by a SplitMix64 hash of (Seed,
// period index). Offsets range over [0, Period-Window-Warmup], which
// guarantees windows never overlap and warming targets are monotonic.
func SampleSchedule(sp SampleParams, traceLen int) []SampleWindow {
	sp = sp.withDefaults()
	if traceLen <= 0 || sp.WindowInsts < 1 || sp.PeriodInsts < sp.WindowInsts+sp.WarmupInsts {
		return nil
	}
	period := uint64(sp.PeriodInsts)
	window := uint64(sp.WindowInsts)
	warmup := uint64(sp.WarmupInsts)
	span := period - window - warmup // offset range, inclusive
	var sched []SampleWindow
	for p := uint64(0); ; p++ {
		off := uint64(0)
		if span > 0 {
			off = splitmix64(uint64(sp.Seed)+0x9e3779b97f4a7c15*(p+1)) % (span + 1)
		}
		start := p*period + warmup + off
		if start >= uint64(traceLen) {
			return sched
		}
		end := start + window
		if end > uint64(traceLen) {
			end = uint64(traceLen)
		}
		sched = append(sched, SampleWindow{WarmTo: start - warmup, Start: start, End: end})
	}
}

// SampleStats reports what a sampled run measured and how confident the
// extrapolation is.
type SampleStats struct {
	// Windows is the number of detailed windows that contributed.
	Windows int
	// MeasuredInsts / MeasuredCycles are the totals over all windows.
	MeasuredInsts  uint64
	MeasuredCycles int64
	// CPI is the whole-trace estimate used to extrapolate Result.Cycles:
	// the instruction-weighted mean of per-window CPI applied to the
	// unmeasured regions, plus (for multithreaded traces) the modeled
	// barrier serialization cost.
	CPI float64
	// CPIStdDev is the sample standard deviation of per-window CPI.
	CPIStdDev float64
	// RelCI95 is the half-width of the CLT 95% confidence interval on CPI
	// (and hence on IPC), relative to the estimate: the true exact-mode
	// IPC is expected within IPC*(1 ± RelCI95). Zero when fewer than two
	// windows were measured. Systematic sampling stratifies the trace, so
	// for phase-structured workloads this bound is conservative.
	RelCI95 float64
}

// winRec is one measured window's contribution to the extrapolation.
type winRec struct {
	cycles      float64 // mean per-thread span: the window's work cost
	insts       float64 // scheduled window instructions across threads
	warmupInsts float64 // detailed-warmup instructions preceding the window
	cpi         float64 // cycles / insts
	perLen      float64 // mean per-thread window instructions
	perVar      float64 // between-thread variance of the window spans
}

// windowStop is the per-window stop predicate for the detailed main loops
// (runUntil and runQuanta). For each engine
// it records the cycles at which the commit head crossed the window start
// and end (tS/tE: the engine's span over its measured interval); t0 is the
// first cycle at which every engine had crossed its start, with c0
// snapshotting the commit counts there so the detailed-warmup overrun can
// be accounted. The loop stops on the first cycle at which every engine has
// crossed its window end.
type windowStop struct {
	engines []*vcore.Engine
	winS    []uint64 // per-engine measurement start (committed instructions)
	winE    []uint64 // per-engine measurement end
	tS      []int64  // cycle the commit head crossed winS, -1 until then
	tE      []int64  // cycle the commit head crossed winE, -1 until then
	t0      int64    // cycle every commit head had crossed winS, -1 until then
	c0      []uint64 // per-engine committed-instruction count at t0
}

// checkEngine records engine i's window crossings at cycle now: the
// per-engine half of check, used by the quantum-phased loop, where each
// engine observes its own commits during its private phase (the crossing
// cycles tS/tE are exact; only the whole-window stop decision and t0/c0
// snapshot wait for the quantum barrier).
//
//ssim:hotpath
func (w *windowStop) checkEngine(i int, now int64) {
	c := w.engines[i].Committed()
	if w.tS[i] < 0 && c >= w.winS[i] {
		w.tS[i] = now
	}
	if w.tE[i] < 0 && c >= w.winE[i] {
		w.tE[i] = now
	}
}

// quantumBarrier is the quantum-barrier half of check: it reports whether
// every engine has crossed its window end, and on the first barrier at
// which every engine has crossed its window start it fixes t0 (the exact
// cycle the last engine crossed, from the recorded tS) and snapshots c0.
// The c0 snapshot is taken at the barrier rather than at t0 itself — up to
// one quantum of extra commits — which only shifts the detailed-warmup
// overrun accounting, deterministically.
func (w *windowStop) quantumBarrier() bool {
	all, started := true, true
	for i := range w.engines {
		if w.tS[i] < 0 {
			started = false
		}
		if w.tE[i] < 0 {
			all = false
		}
	}
	if started && w.t0 < 0 {
		t0 := int64(0)
		for _, v := range w.tS {
			if v > t0 {
				t0 = v
			}
		}
		w.t0 = t0
		for i, e := range w.engines {
			w.c0[i] = e.Committed()
		}
	}
	return all
}

//ssim:hotpath
func (w *windowStop) check(now int64) bool {
	all := true
	started := true
	for i, e := range w.engines {
		c := e.Committed()
		if w.tS[i] < 0 {
			if c >= w.winS[i] {
				w.tS[i] = now
			} else {
				started = false
			}
		}
		if w.tE[i] < 0 {
			if c >= w.winE[i] {
				w.tE[i] = now
			} else {
				all = false
			}
		}
	}
	if started && w.t0 < 0 {
		w.t0 = now
		for i, e := range w.engines {
			w.c0[i] = e.Committed()
		}
	}
	return all
}

// RunSampled executes the machine in sampled mode: functional warming
// interleaved with detailed measurement windows per SampleSchedule, then
// whole-trace extrapolation. The returned Result has estimated Cycles, the
// full trace's Instructions, and Result.Sample set; all other counters
// (cache misses, network traffic, stall taxonomy) cover only the detailed
// windows, since warming is deliberately invisible to them. Traces shorter
// than one sampling period fall back to an exact run (Sample stays nil).
//
// The extrapolation is the systematic-sampling (stratified) estimator: each
// window's work cost is its mean per-thread span, unmeasured instructions
// are priced at the instruction-weighted mean window CPI, detailed-warmup
// instructions at their own window's CPI, and — for multithreaded traces —
// skewCycles adds back the barrier serialization cost that re-aligning the
// threads at every warming stretch would otherwise erase.
//
// The orchestration here is cold (once per period); the hot loops are
// vcore.FastForward, the detailed main loop (Machine.runUntil for
// single-engine machines, Machine.runQuanta for multi-engine ones), and
// the windowStop crossing checks.
func (mc *Machine) RunSampled() (*Result, error) {
	sp := mc.p.Sample.withDefaults()
	if err := sp.validate(); err != nil {
		return nil, err
	}
	engines := mc.m.engines
	var totalInsts, maxLen uint64
	for _, e := range engines {
		l := e.TraceLen()
		totalInsts += l
		if l > maxLen {
			maxLen = l
		}
	}
	sched := SampleSchedule(sp, int(maxLen))
	if len(sched) == 0 {
		// Trace shorter than the first window placement: nothing to
		// extrapolate from, so run it exactly.
		return mc.Run()
	}
	ne := len(engines)
	ws := &windowStop{
		engines: engines,
		winS:    make([]uint64, ne), winE: make([]uint64, ne),
		tS: make([]int64, ne), tE: make([]int64, ne),
		c0: make([]uint64, ne),
	}
	wins := make([]winRec, 0, len(sched))
	deltaSum := make([]float64, ne)
	var deltaLen float64
	var measCycles int64
	var measInsts uint64
	var t int64
	for _, w := range sched {
		// Functional warming up to the detailed pipeline-warmup start.
		allDone := true
		for i, e := range engines {
			l := e.TraceLen()
			tgt := w.WarmTo
			if tgt > l {
				tgt = l
			}
			if err := e.FastForward(tgt, t); err != nil {
				return nil, err
			}
			s, en := w.Start, w.End
			if s > l {
				s = l
			}
			if en > l {
				en = l
			}
			ws.winS[i], ws.winE[i] = s, en
			ws.tS[i], ws.tE[i], ws.t0 = -1, -1, -1
			if !e.Done() {
				allDone = false
			}
		}
		if allDone {
			break
		}
		var cFF uint64
		for _, e := range engines {
			cFF += e.Committed()
		}
		// Detailed execution: warmup prefix ramps the pipeline, then the
		// measurement interval [Start, End) per engine. Multi-engine
		// machines run the window under the quantum-phased loop, parallel
		// when the machine is.
		if err := mc.runLoop(&t, ws); err != nil {
			return nil, err
		}
		ws.check(t) // capture crossings on the final executed cycle
		// Measure the window. The work cost is the mean per-thread span
		// (cycles each thread took to commit its window instructions):
		// threads run concurrently, and the serialization their relative
		// drift causes is priced separately by skewCycles, at
		// barrier-segment scale, from the deviations recorded here.
		if ws.t0 >= 0 && t >= ws.t0 {
			var insts, c0Sum uint64
			var spanSum, spanSq float64
			na := 0
			for i := range engines {
				c0Sum += ws.c0[i]
				if ws.winE[i] > ws.winS[i] && ws.tS[i] >= 0 && ws.tE[i] >= ws.tS[i] {
					insts += ws.winE[i] - ws.winS[i]
					span := float64(ws.tE[i] - ws.tS[i] + 1)
					spanSum += span
					spanSq += span * span
					na++
				}
			}
			if insts > 0 && na > 0 {
				mean := spanSum / float64(na)
				if na == ne {
					for i := range engines {
						deltaSum[i] += float64(ws.tE[i]-ws.tS[i]+1) - mean
					}
					deltaLen += float64(insts) / float64(na)
				}
				measCycles += int64(mean + 0.5)
				measInsts += insts
				r := winRec{
					cycles: mean,
					insts:  float64(insts),
					cpi:    mean / float64(insts),
					perLen: float64(insts) / float64(na),
				}
				if na > 1 {
					if v := (spanSq - spanSum*mean) / float64(na-1); v > 0 {
						r.perVar = v
					}
				}
				if c0Sum > cFF {
					r.warmupInsts = float64(c0Sum - cFF)
				}
				wins = append(wins, r)
			}
		}
		// Drain in-flight overrun so the next warming starts clean.
		for _, e := range engines {
			if !e.Done() {
				e.FlushInFlight(t)
			}
		}
		t++
	}
	// Warm the tail so the final architectural state (registers, memory
	// image) is complete and golden-checkable.
	for _, e := range engines {
		if err := e.FastForward(e.TraceLen(), t); err != nil {
			return nil, err
		}
	}
	if measInsts == 0 {
		// Cannot happen with a non-empty schedule, but never divide by it.
		return mc.Run()
	}
	// Stratified-mean extrapolation.
	var winCycles, warmCost, wSum, wCPISum float64
	for _, w := range wins {
		winCycles += w.cycles
		warmCost += w.warmupInsts * w.cpi
		wSum += w.insts
		wCPISum += w.insts * w.cpi
	}
	meanCPI := wCPISum / wSum
	var warmInsts float64
	for _, w := range wins {
		warmInsts += w.warmupInsts
	}
	ffInsts := float64(totalInsts) - wSum - warmInsts
	if ffInsts < 0 {
		ffInsts = 0
	}
	cycles := winCycles + warmCost + meanCPI*ffInsts + skewCycles(engines, wins, deltaSum, deltaLen, maxLen)
	cpi := cycles / float64(totalInsts)
	st := &SampleStats{
		Windows:        len(wins),
		MeasuredInsts:  measInsts,
		MeasuredCycles: measCycles,
		CPI:            cpi,
	}
	if n := len(wins); n >= 2 {
		mean := 0.0
		for _, w := range wins {
			mean += w.cpi
		}
		mean /= float64(n)
		varsum := 0.0
		for _, w := range wins {
			d := w.cpi - mean
			varsum += d * d
		}
		st.CPIStdDev = math.Sqrt(varsum / float64(n-1))
		if mean > 0 {
			st.RelCI95 = 1.96 * st.CPIStdDev / math.Sqrt(float64(n)) / mean
		}
	}
	res := mc.result(int64(cpi*float64(totalInsts) + 0.5))
	res.Sample = st
	return res, nil
}

// expMaxNorm is E[max of n independent standard normals]: the factor that
// converts per-segment drift deviation into the expected serialization
// cost the segment's slowest thread imposes at the next barrier.
func expMaxNorm(n int) float64 {
	table := [...]float64{0, 0, 0.5642, 0.8463, 1.0294, 1.1630, 1.2672, 1.3522, 1.4236}
	if n < len(table) {
		return table[n]
	}
	return math.Sqrt(2 * math.Log(float64(n)))
}

// skewCycles estimates the barrier serialization cost that sampling
// destroys. Exact multithreaded execution accumulates inter-thread drift
// between consecutive barriers and pays for it at every rendezvous — the
// machine advances at the pace of each segment's slowest thread — but
// functional warming re-aligns the threads every period, so the measured
// windows only observe drift at window scale. The drift has two parts,
// both measurable inside windows:
//
//   - a persistent part: thread roles (and hence per-thread CPI) differ for
//     the whole trace, so the slowest thread's mean per-instruction span
//     excess maxd — estimated from the per-thread span deviations summed
//     over all complete windows — accrues linearly over a segment;
//   - a random-walk part: the residual per-instruction drift variance v,
//     estimated from the between-thread span variance within windows, for
//     which a segment of per-thread length m costs an expected
//     E[max of n normals]·sqrt(v·m) cycles.
//
// Segments are delimited by the trace's barriers (plus the trace ends).
// Single-threaded machines drift against nobody: the cost is zero.
func skewCycles(engines []*vcore.Engine, wins []winRec, deltaSum []float64, deltaLen float64, maxLen uint64) float64 {
	ne := len(engines)
	if ne < 2 {
		return 0
	}
	var vsum, wsum float64
	for _, w := range wins {
		if w.perVar > 0 && w.perLen > 0 {
			vsum += w.insts * w.perVar / w.perLen
			wsum += w.insts
		}
	}
	if wsum <= 0 {
		return 0
	}
	v := vsum / wsum
	maxd := 0.0
	if deltaLen > 0 {
		for _, d := range deltaSum {
			if r := d / deltaLen; r > maxd {
				maxd = r
			}
		}
	}
	cmax := expMaxNorm(ne)
	extra := 0.0
	prev := 0
	for _, b := range engines[0].Barriers() {
		if b > prev && b <= int(maxLen) {
			m := float64(b - prev)
			extra += cmax*math.Sqrt(v*m) + maxd*m
			prev = b
		}
	}
	if int(maxLen) > prev {
		m := float64(int(maxLen) - prev)
		extra += cmax*math.Sqrt(v*m) + maxd*m
	}
	return extra
}
