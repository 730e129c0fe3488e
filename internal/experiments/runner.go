// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). A Runner measures P(c,s) performance grids with SSim —
// in parallel, memoized, and optionally persisted to a JSON results file so
// that regenerating one table does not rerun the whole sweep — and the
// drivers in figures.go turn those measurements into the paper's tables and
// figures via the economic model.
//
// Where a measurement actually executes is pluggable (see DESIGN.md,
// "Distributed execution backends"): by default simulations run in-process
// behind a semaphore-bounded pool, but a distrib.Backend — e.g. the
// multi-process procpool — can be plugged in to fan sweep points out to
// worker subprocesses. Completed measurements are additionally journaled to
// a write-ahead file next to the results cache, so a killed sweep resumes
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

// request maps the key onto the wire format dispatched to an execution
// backend: the full content-addressed identity of the measurement, nothing
// else. Sample fields travel raw (not normalized) so a worker resolves
// defaults exactly like a local run would.
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

// requestKey is the inverse of key.request, used by the worker side.
func requestKey(req trace.SimRequest) key {
	k := key{
		Bench:   req.Bench,
		Slices:  req.Slices,
		CacheKB: req.CacheKB,
		N:       req.TraceLen,
		Seed:    req.Seed,
		Phase:   req.Phase,
		OpNetW:  req.OpNetW,
		Quantum: req.Quantum,
	}
	if req.SampleEnabled {
		k.Sample = sim.SampleParams{
			Enabled:     true,
			WindowInsts: req.SampleWindow,
			PeriodInsts: req.SamplePeriod,
			WarmupInsts: req.SampleWarmup,
			Seed:        req.SampleSeed,
		}
	}
	return k
}

// Runner measures performance grids.
type Runner struct {
	// TraceLen is instructions per thread (DefaultTraceLen if 0).
	TraceLen int
	// Seed seeds workload generation (DefaultSeed if 0).
	Seed int64
	// Workers bounds the number of concurrent simulations (NumCPU if 0).
	// The bound applies to the built-in in-process backend; a plugged-in
	// Backend bounds its own parallelism.
	Workers int
	// MachineQuantum overrides the synchronization quantum for multi-engine
	// machines (sim.Params.Quantum; 0 = the topology's NoC lookahead).
	// The quantum is part of the machine's deterministic timing semantics,
	// so overridden runs are cached under distinct keys.
	MachineQuantum int
	// Backend, when set, executes simulation requests instead of the
	// built-in in-process pool — e.g. a distrib.Procpool fanning sweep
	// points out to worker subprocesses. The runner's memoization,
	// singleflight and persistence wrap every backend identically, so
	// backends are interchangeable: same sweep, reflect.DeepEqual-identical
	// measurement sets. The caller owns the backend's lifecycle (Close).
	Backend distrib.Backend
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
	simRuns   atomic.Int64 // dispatched simulator executions (cache misses)
	stopping  atomic.Bool

	// The built-in in-process backend, created lazily from workers() so
	// simultaneous Grid/SuiteGrids calls cannot multiply the simulation
	// parallelism beyond the configured bound.
	beOnce   sync.Once
	inprocBE *distrib.Inproc

	traceMu sync.Mutex
	traceK  key
	traceV  *trace.MultiTrace
}

// NewRunner builds a Runner with defaults.
func NewRunner() *Runner {
	return &Runner{cache: make(map[string]Measurement)}
}

// EffectiveTraceLen returns the instruction count per thread in use.
func (r *Runner) EffectiveTraceLen() int { return r.traceLen() }

// SimRuns returns the number of simulator executions dispatched so far —
// measurements that missed both the in-memory and the persisted results
// cache (including the replayed checkpoint journal). It is the simulator
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

// Stop makes the runner refuse to dispatch new simulations: subsequent
// cache misses fail with ErrStopped while already-running measurements
// drain to completion (and are journaled). The drain propagates into the
// execution backend, which sheds its queued (not yet started) requests —
// a sweep enqueues entire grids at once, so gating only new measure calls
// would leave the whole figure draining. Used by the commands' SIGINT
// handlers to turn an interrupt into a resumable checkpoint.
func (r *Runner) Stop() {
	r.stopping.Store(true)
	if s, ok := r.backend().(distrib.Stopper); ok {
		s.Stop()
	}
}

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

// backend returns the execution backend measurements dispatch to: the
// configured one, or the built-in semaphore-bounded in-process pool.
func (r *Runner) backend() distrib.Backend {
	if r.Backend != nil {
		return r.Backend
	}
	r.beOnce.Do(func() { r.inprocBE = distrib.NewInproc(r.workers(), r.runLocal) })
	return r.inprocBE
}

// remoteBackend reports whether requests leave this process, in which case
// the parent should not pre-generate traces it will never simulate with.
func (r *Runner) remoteBackend() bool {
	rb, ok := r.Backend.(interface{ Remote() bool })
	return ok && rb.Remote()
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
// explicit length and seed (so worker-served requests with differing
// geometry never alias). The most recent trace is memoized in memory (grid
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

// runLocal performs one simulation in this process: the RunFunc behind the
// built-in in-process backend and (via ServeWorker) the procpool workers.
// It is a pure function of the request.
func (r *Runner) runLocal(req trace.SimRequest) (trace.SimResult, error) {
	mt, err := r.traceFor(req.Bench, req.Phase, req.TraceLen, req.Seed)
	if err != nil {
		return trace.SimResult{}, err
	}
	p := sim.DefaultParams(req.Slices, req.CacheKB)
	if req.OpNetW > 0 {
		p.OperandNetWidth = req.OpNetW
	}
	if req.SampleEnabled {
		p.Sample = sim.SampleParams{
			Enabled:     true,
			WindowInsts: req.SampleWindow,
			PeriodInsts: req.SamplePeriod,
			WarmupInsts: req.SampleWarmup,
			Seed:        req.SampleSeed,
		}
	}
	p.Quantum = req.Quantum
	res, err := sim.Run(p, mt)
	if err != nil {
		return trace.SimResult{}, err
	}
	out := trace.SimResult{ID: req.ID, Cycles: res.Cycles, Insts: res.Instructions}
	if res.Sample != nil {
		out.Sampled = true
		out.Windows = res.Sample.Windows
		out.RelCI95 = res.Sample.RelCI95
	}
	return out, nil
}

// measure runs (or recalls) one simulation. Concurrent callers asking for
// the same key are collapsed onto a single dispatch (singleflight): the
// first becomes the leader and dispatches it to the execution backend, the
// rest wait on the leader's done channel and then read the cache. Without
// this, a grid sweep racing a figure driver over overlapping configurations
// would burn a backend slot per duplicate on identical multi-second
// simulations. Search probes and grid sweeps both land here, so every
// execution path shares one backend dispatch seam.
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
	r.simRuns.Add(1)
	res, err := r.backend().Execute(k.request())
	if err != nil {
		if errors.Is(err, distrib.ErrStopped) {
			// The backend's drain gate shed the request before it ran:
			// undo the dispatch count so interrupt accounting reflects
			// simulations actually executed and journaled.
			r.simRuns.Add(-1)
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

// MeasureRequest measures the simulation a wire request describes, through
// the same memoized, singleflighted path as every other measurement. It is
// the worker side of the procpool protocol: every key field comes from the
// request, none from this Runner's sweep configuration.
func (r *Runner) MeasureRequest(req trace.SimRequest) (Measurement, error) {
	return r.measure(requestKey(req))
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

// Grid measures a benchmark over the given configuration grid, fanning the
// runs across the execution backend. Performance is IPC.
func (r *Runner) Grid(bench string, slices, caches []int) (econ.Grid, error) {
	return r.gridPhase(bench, -1, slices, caches)
}

// GridPhase is Grid for a single phase.
func (r *Runner) GridPhase(bench string, phase int, slices, caches []int) (econ.Grid, error) {
	return r.gridPhase(bench, phase, slices, caches)
}

func (r *Runner) gridPhase(bench string, phase int, slices, caches []int) (econ.Grid, error) {
	// Pre-generate the trace once so local workers share it. With a remote
	// backend the subprocesses generate (or disk-cache) their own traces;
	// the parent never simulates, so warming its memo would be pure waste.
	if !r.remoteBackend() {
		if _, err := r.traceFor(bench, phase, r.traceLen(), r.seed()); err != nil {
			return nil, err
		}
	}
	type job struct{ cfg econ.Config }
	jobs := make([]job, 0, len(slices)*len(caches))
	for _, s := range slices {
		for _, c := range caches {
			jobs = append(jobs, job{cfg: econ.Config{Slices: s, CacheKB: c}})
		}
	}
	g := make(econ.Grid, len(jobs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(cfg econ.Config) {
			defer wg.Done()
			m, err := r.measure(key{Bench: bench, Slices: cfg.Slices, CacheKB: cfg.CacheKB, N: r.traceLen(), Seed: r.seed(), Phase: phase, Quantum: r.MachineQuantum, Sample: r.Sample})
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
				return
			}
			if err == nil {
				g[cfg] = m.IPC()
			}
		}(j.cfg)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}

// SuiteGrids measures grids for the named benchmarks (all benchmarks when
// names is empty).
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
