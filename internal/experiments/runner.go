// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). A Runner measures P(c,s) performance grids with SSim —
// in parallel, memoized, and optionally persisted to a JSON results file so
// that regenerating one table does not rerun the whole sweep — and the
// drivers in figures.go turn those measurements into the paper's tables and
// figures via the economic model.
//
// Simulations run in this process, at most Workers at once (see DESIGN.md,
// "Execution and checkpoint/resume"). Completed measurements are journaled
// to a write-ahead file next to the results cache, so a killed sweep resumes
// without re-executing any completed simulation.
package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sharing/internal/distrib"
	"sharing/internal/econ"
	"sharing/internal/sim"
	"sharing/internal/trace"
	"sharing/internal/workload"
)

// DefaultTraceLen is the dynamic instruction count per thread used by the
// official experiment runs: long enough for the multi-megabyte scan working
// sets to establish reuse (several laps).
const DefaultTraceLen = 500_000

// DefaultSeed fixes the workload seed for reproducibility.
const DefaultSeed = 2014 // ASPLOS year

// StdSlices and StdCaches form the configuration grid used across the
// evaluation (Equation 3: 1..8 Slices, 0..8 MB of L2).
var (
	StdSlices = []int{1, 2, 3, 4, 5, 6, 7, 8}
	StdCaches = []int{0, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
)

// ErrStopped is returned by measurements refused after Stop: the runner is
// draining for a graceful shutdown and will not dispatch new simulations.
var ErrStopped = errors.New("experiments: runner stopped")

// Measurement is one simulation outcome.
type Measurement struct {
	Cycles int64  `json:"cycles"`
	Insts  uint64 `json:"insts"`
	// Sampled marks a measurement produced by sampled simulation; Cycles
	// is then an extrapolated estimate, Windows counts the detailed
	// measurement windows behind it, and RelCI95 is the relative half-width
	// of the CLT 95% confidence interval on IPC (see sim.SampleStats).
	Sampled bool    `json:"sampled,omitempty"`
	Windows int     `json:"windows,omitempty"`
	RelCI95 float64 `json:"relCI95,omitempty"`
}

// IPC returns instructions per cycle.
func (m Measurement) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Insts) / float64(m.Cycles)
}

// key identifies one measurement.
type key struct {
	Bench   string `json:"bench"`
	Slices  int    `json:"slices"`
	CacheKB int    `json:"cacheKB"`
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`
	Phase   int    `json:"phase"` // -1 = whole benchmark
	OpNetW  int    `json:"opnetw"`
	// Quantum is a non-default synchronization quantum (0 = topology
	// lookahead). Part of the key because the quantum is part of the
	// machine's timing semantics; default-quantum runs keep their
	// historical, suffix-free keys.
	Quantum int `json:"quantum,omitempty"`
	// Sample is the sampled-execution configuration (zero value = exact).
	// It is part of the key, so sampled results are cached separately from
	// exact ones and from runs with a different sampling geometry.
	Sample sim.SampleParams `json:"sample"`
}

func (k key) String() string {
	s := fmt.Sprintf("%s/s%d/c%d/n%d/seed%d/ph%d/w%d", k.Bench, k.Slices, k.CacheKB, k.N, k.Seed, k.Phase, k.OpNetW)
	if k.Quantum > 0 {
		s += fmt.Sprintf("/q%d", k.Quantum)
	}
	if k.Sample.Enabled {
		// Normalized, so "defaults by zero" and explicit defaults share an
		// entry. Exact measurements keep their historical, suffix-free keys.
		sp := k.Sample.Normalized()
		s += fmt.Sprintf("/sampled.w%d.p%d.u%d.seed%d", sp.WindowInsts, sp.PeriodInsts, sp.WarmupInsts, sp.Seed)
	}
	return s
}

// request maps the key onto the simulation request a plugged Backend
// executes: the full content-addressed identity of the measurement, nothing
// else. Sample fields stay raw (not normalized), so the backend resolves
// their defaults as a local run would.
func (k key) request() trace.SimRequest {
	req := trace.SimRequest{
		Bench:    k.Bench,
		Phase:    k.Phase,
		Slices:   k.Slices,
		CacheKB:  k.CacheKB,
		TraceLen: k.N,
		Seed:     k.Seed,
		OpNetW:   k.OpNetW,
		Quantum:  k.Quantum,
	}
	if k.Sample.Enabled {
		req.SampleEnabled = true
		req.SampleWindow = k.Sample.WindowInsts
		req.SamplePeriod = k.Sample.PeriodInsts
		req.SampleWarmup = k.Sample.WarmupInsts
		req.SampleSeed = k.Sample.Seed
	}
	return req
}

// Backend executes simulation requests in place of the runner's built-in
// path, which generates the trace and calls sim.Run in this process. The
// benchmark harness plugs one in to time trace generation and simulation
// separately. Execute must be safe for concurrent calls; the runner bounds
// them at Workers. A simulation-level failure may travel in SimResult.Err.
type Backend interface {
	Execute(req trace.SimRequest) (trace.SimResult, error)
}

// Runner measures performance grids.
type Runner struct {
	// TraceLen is instructions per thread (DefaultTraceLen if 0).
	TraceLen int
	// Seed seeds workload generation (DefaultSeed if 0).
	Seed int64
	// Workers bounds the number of concurrent simulations (NumCPU if 0),
	// on the built-in path and through a plugged Backend alike.
	Workers int
	// MachineQuantum overrides the synchronization quantum for multi-engine
	// machines (sim.Params.Quantum; 0 = the topology's NoC lookahead).
	// The quantum is part of the machine's deterministic timing semantics,
	// so overridden runs are cached under distinct keys.
	MachineQuantum int
	// Backend, when set, executes simulation requests instead of the
	// built-in path and generates its own traces. The runner's memoization,
	// singleflight, worker bound, drain and persistence wrap it exactly as
	// they wrap the built-in path.
	Backend Backend
	// ResultsPath, when set, persists measurements as JSON across runs.
	// Alongside it, completed measurements are journaled incrementally to
	// ResultsPath+".wal" (append-only, one JSON line each), so a killed
	// sweep loses at most the measurement whose append was interrupted;
	// Load replays the journal and Save folds it into the main file
	// atomically (temp file + rename).
	ResultsPath string
	// Progress, when set, receives one line per completed measurement.
	Progress func(string)
	// Sample, when Enabled, runs every measurement in sampled mode with
	// this geometry (see sim.SampleParams). Sampled measurements are cached
	// under distinct keys, so exact and sampled results never mix.
	Sample sim.SampleParams

	mu        sync.Mutex
	cache     map[string]Measurement
	inflight  map[string]chan struct{}
	dirty     bool
	journal   *distrib.Journal
	recovered int
	simRuns   atomic.Int64 // executed simulations (cache misses that ran)
	stopping  atomic.Bool

	// sem bounds concurrent simulations. It is created lazily from
	// workers() and shared by every caller, so simultaneous
	// Grid/SuiteGrids calls cannot multiply the parallelism beyond Workers.
	semOnce sync.Once
	sem     chan struct{}
	// simRun is sim.Run unless a test substitutes it.
	simRun func(sim.Params, *trace.MultiTrace) (*sim.Result, error)

	traceMu sync.Mutex
	traceK  key
	traceV  *trace.MultiTrace
}

// NewRunner builds a Runner with defaults.
func NewRunner() *Runner {
	return &Runner{cache: make(map[string]Measurement)}
}

// SimRuns returns the number of simulations executed so far — measurements
// that missed both the in-memory and the persisted results cache (including
// the replayed checkpoint journal) and were not shed by Stop. It is the simulator
// cost beneath the churn scenario's probe economy, and the resume
// contract's witness: a fully checkpointed sweep restarts with SimRuns
// staying at zero.
func (r *Runner) SimRuns() int64 { return r.simRuns.Load() }

// Recovered returns how many measurements the last Load recovered from the
// checkpoint journal beyond the main results file — the work a killed run
// banked between saves.
func (r *Runner) Recovered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recovered
}

// Stop makes the runner refuse to start new simulations: subsequent cache
// misses fail with ErrStopped, and so do measurements already queued for a
// worker slot — a sweep enqueues entire grids at once, so gating only new
// measure calls would leave the whole figure draining. Simulations already
// running finish and are journaled. Used by the commands' SIGINT handlers
// to turn an interrupt into a resumable checkpoint.
func (r *Runner) Stop() { r.stopping.Store(true) }

func (r *Runner) traceLen() int {
	if r.TraceLen <= 0 {
		return DefaultTraceLen
	}
	return r.TraceLen
}

func (r *Runner) seed() int64 {
	if r.Seed == 0 {
		return DefaultSeed
	}
	return r.Seed
}

func (r *Runner) workers() int {
	w := r.Workers
	if w <= 0 {
		//ssim:nolint detrand: pool width affects wall-clock only, results are byte-identical for any value
		w = runtime.NumCPU()
	}
	return w
}

// warnf reports a non-fatal condition (corrupt cache file, failed journal
// append) through the progress channel when wired, else to stderr.
func (r *Runner) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if r.Progress != nil {
		r.Progress(msg)
		return
	}
	fmt.Fprintln(os.Stderr, msg)
}

// walPath is the checkpoint journal's location: next to the results file.
func (r *Runner) walPath() string { return r.ResultsPath + ".wal" }

// Load reads the persisted results file, if configured and present, then
// replays the checkpoint journal of any earlier killed run and opens the
// journal for appending. A corrupt or truncated results-cache JSON is a
// cache miss with a warning, not a hard error: the sweep re-measures and
// rewrites it.
func (r *Runner) Load() error {
	if r.ResultsPath == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		r.cache = make(map[string]Measurement)
	}
	b, err := os.ReadFile(r.ResultsPath)
	switch {
	case os.IsNotExist(err):
		// Nothing persisted yet.
	case err != nil:
		return err
	default:
		loaded := make(map[string]Measurement)
		if uerr := json.Unmarshal(b, &loaded); uerr != nil {
			r.warnf("experiments: results cache %s is corrupt (%v); treating as empty, it will be rebuilt and rewritten", r.ResultsPath, uerr)
		} else {
			for k, m := range loaded {
				r.cache[k] = m
			}
		}
	}
	// Replay the write-ahead journal: measurements a previous invocation
	// completed after its last successful Save.
	r.recovered = 0
	_, err = distrib.ReplayJournal(r.walPath(), func(k string, raw json.RawMessage) {
		var m Measurement
		if json.Unmarshal(raw, &m) != nil {
			return
		}
		if _, ok := r.cache[k]; !ok {
			r.cache[k] = m
			r.recovered++
			r.dirty = true
		}
	})
	if err != nil {
		return err
	}
	if r.journal != nil {
		r.journal.Close()
	}
	r.journal, err = distrib.OpenJournal(r.walPath())
	if err != nil {
		return err
	}
	return nil
}

// Save writes the results cache if it changed: to a temp file first, then
// an atomic rename, so a kill mid-save can never leave a torn cache behind.
// On success the checkpoint journal — now folded into the main file — is
// reset.
func (r *Runner) Save() error {
	if r.ResultsPath == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.dirty {
		return nil
	}
	b, err := json.MarshalIndent(r.cache, "", " ")
	if err != nil {
		return err
	}
	if err := distrib.WriteFileAtomic(r.ResultsPath, b, 0o644); err != nil {
		return err
	}
	r.dirty = false
	if r.journal != nil {
		// A failed reset only leaves entries that replay idempotently
		// against the now-complete main file.
		if err := r.journal.Reset(); err != nil {
			r.warnf("experiments: resetting checkpoint journal: %v", err)
		}
	}
	return nil
}

// traceFor returns the trace for a benchmark or a single phase of it, at an
// explicit length and seed. The most recent trace is memoized in memory (grid
// sweeps reuse one trace across all configurations); a memo miss
// regenerates, since generation is a pure function of the key and faster
// than decoding a stored copy would be.
func (r *Runner) traceFor(bench string, phase, n int, seed int64) (*trace.MultiTrace, error) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	k := key{Bench: bench, N: n, Seed: seed, Phase: phase}
	if r.traceV != nil && r.traceK == k {
		return r.traceV, nil
	}
	prof, err := workload.Lookup(bench)
	if err != nil {
		return nil, err
	}
	var mt *trace.MultiTrace
	if phase < 0 {
		mt, err = prof.Generate(n, seed)
	} else {
		var tr *trace.Trace
		tr, err = prof.GeneratePhase(phase, n, seed)
		if err == nil {
			mt = trace.Single(tr)
		}
	}
	if err != nil {
		return nil, err
	}
	r.traceK, r.traceV = k, mt
	return mt, nil
}

// execute runs one simulation once a worker slot is free, on the plugged
// Backend or locally, and counts it in SimRuns.
func (r *Runner) execute(k key) (trace.SimResult, error) {
	r.semOnce.Do(func() { r.sem = make(chan struct{}, r.workers()) })
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	// The drain gate sits after the semaphore: an entire grid may be queued
	// here, and Stop must shed the queue, not just new arrivals.
	if r.stopping.Load() {
		return trace.SimResult{}, ErrStopped
	}
	r.simRuns.Add(1)
	if r.Backend != nil {
		return r.Backend.Execute(k.request())
	}
	return r.runLocal(k)
}

// runLocal performs one simulation in this process. It is a pure function
// of the key.
func (r *Runner) runLocal(k key) (trace.SimResult, error) {
	mt, err := r.traceFor(k.Bench, k.Phase, k.N, k.Seed)
	if err != nil {
		return trace.SimResult{}, err
	}
	p := sim.DefaultParams(k.Slices, k.CacheKB)
	if k.OpNetW > 0 {
		p.OperandNetWidth = k.OpNetW
	}
	if k.Sample.Enabled {
		p.Sample = k.Sample
	}
	p.Quantum = k.Quantum
	run := sim.Run
	if r.simRun != nil {
		run = r.simRun
	}
	res, err := run(p, mt)
	if err != nil {
		return trace.SimResult{}, err
	}
	out := trace.SimResult{Cycles: res.Cycles, Insts: res.Instructions}
	if res.Sample != nil {
		out.Sampled = true
		out.Windows = res.Sample.Windows
		out.RelCI95 = res.Sample.RelCI95
	}
	return out, nil
}

// measure runs (or recalls) one simulation. Concurrent callers asking for
// the same key are collapsed onto a single dispatch (singleflight): the
// first becomes the leader and executes it, the rest wait on the leader's
// done channel and then read the cache. Without this, a grid sweep racing a
// figure driver over overlapping configurations would burn a worker slot
// per duplicate on identical multi-second simulations. Search probes and
// grid sweeps both land here, so every measurement shares one execution
// path.
func (r *Runner) measure(k key) (Measurement, error) {
	ks := k.String()
	for {
		r.mu.Lock()
		if m, ok := r.cache[ks]; ok {
			r.mu.Unlock()
			return m, nil
		}
		if r.stopping.Load() {
			r.mu.Unlock()
			return Measurement{}, fmt.Errorf("%s: %w", ks, ErrStopped)
		}
		ch, busy := r.inflight[ks]
		if !busy {
			break // leader; r.mu still held
		}
		r.mu.Unlock()
		<-ch
		// The leader finished: its result is in the cache now, or it
		// failed, in which case the next loop iteration elects a new
		// leader to retry.
	}
	if r.inflight == nil {
		r.inflight = make(map[string]chan struct{})
	}
	done := make(chan struct{})
	r.inflight[ks] = done
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.inflight, ks)
		r.mu.Unlock()
		close(done)
	}()
	res, err := r.execute(k)
	if err != nil {
		if errors.Is(err, ErrStopped) {
			return Measurement{}, fmt.Errorf("%s: %w", ks, ErrStopped)
		}
		return Measurement{}, fmt.Errorf("experiments: %s: %w", ks, err)
	}
	if res.Err != "" {
		return Measurement{}, fmt.Errorf("experiments: %s: %s", ks, res.Err)
	}
	m := Measurement{Cycles: res.Cycles, Insts: res.Insts, Sampled: res.Sampled, Windows: res.Windows, RelCI95: res.RelCI95}
	r.mu.Lock()
	r.cache[ks] = m
	r.dirty = true
	journal := r.journal
	r.mu.Unlock()
	if journal != nil {
		// The append is the checkpoint: after it lands, a killed run will
		// never re-execute this measurement. Failure degrades to the old
		// save-at-barriers durability, so warn and continue.
		if err := journal.Append(ks, m); err != nil {
			r.warnf("experiments: checkpoint append for %s: %v", ks, err)
		}
	}
	if r.Progress != nil {
		r.Progress(fmt.Sprintf("%s: cycles=%d ipc=%.3f", ks, m.Cycles, m.IPC()))
	}
	return m, nil
}

// Measure returns the measurement for one benchmark and configuration.
func (r *Runner) Measure(bench string, cfg econ.Config) (Measurement, error) {
	return r.measure(key{Bench: bench, Slices: cfg.Slices, CacheKB: cfg.CacheKB, N: r.traceLen(), Seed: r.seed(), Phase: -1, Quantum: r.MachineQuantum, Sample: r.Sample})
}

// MeasurePhase returns the measurement for one phase of a benchmark.
func (r *Runner) MeasurePhase(bench string, phase int, cfg econ.Config) (Measurement, error) {
	return r.measure(key{Bench: bench, Slices: cfg.Slices, CacheKB: cfg.CacheKB, N: r.traceLen(), Seed: r.seed(), Phase: phase, Quantum: r.MachineQuantum, Sample: r.Sample})
}

// MeasureOpNet measures with an explicit operand-network width (ablation).
func (r *Runner) MeasureOpNet(bench string, cfg econ.Config, width int) (Measurement, error) {
	return r.measure(key{Bench: bench, Slices: cfg.Slices, CacheKB: cfg.CacheKB, N: r.traceLen(), Seed: r.seed(), Phase: -1, OpNetW: width, Quantum: r.MachineQuantum, Sample: r.Sample})
}

// Grid measures a benchmark over the lattice slices x caches, fanning the
// runs across the worker slots. Performance is IPC. Axes NewLattice
// refuses (empty, not strictly ascending, or off Equation 3) are an error
// before any simulation runs.
func (r *Runner) Grid(bench string, slices, caches []int) (*econ.Surface, error) {
	return r.gridPhase(bench, -1, slices, caches)
}

// GridPhase is Grid for a single phase.
func (r *Runner) GridPhase(bench string, phase int, slices, caches []int) (*econ.Surface, error) {
	return r.gridPhase(bench, phase, slices, caches)
}

func (r *Runner) gridPhase(bench string, phase int, slices, caches []int) (*econ.Surface, error) {
	lat, err := econ.NewLattice(slices, caches)
	if err != nil {
		return nil, err
	}
	// Pre-generate the trace once so the local workers share it. A plugged
	// Backend generates its own traces, so warming the memo would be waste.
	if r.Backend == nil {
		if _, err := r.traceFor(bench, phase, r.traceLen(), r.seed()); err != nil {
			return nil, err
		}
	}
	s := econ.NewSurface(lat)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for x := range s.Values {
		wg.Add(1)
		go func(x int) {
			defer wg.Done()
			cfg := lat.Point(x)
			m, err := r.measure(key{Bench: bench, Slices: cfg.Slices, CacheKB: cfg.CacheKB, N: r.traceLen(), Seed: r.seed(), Phase: phase, Quantum: r.MachineQuantum, Sample: r.Sample})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			s.Values[x] = m.IPC() // each goroutine owns its slot
		}(x)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return s, nil
}

// SuiteGrids measures surfaces for the named benchmarks (all benchmarks
// when names is empty).
func (r *Runner) SuiteGrids(names []string, slices, caches []int) (econ.Suite, error) {
	if len(names) == 0 {
		names = workload.Names()
	}
	sort.Strings(names)
	s := make(econ.Suite, len(names))
	for _, n := range names {
		g, err := r.Grid(n, slices, caches)
		if err != nil {
			return nil, err
		}
		s[n] = g
		if err := r.Save(); err != nil {
			return nil, err
		}
	}
	return s, nil
}
