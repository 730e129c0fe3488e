package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharing/internal/econ"
	"sharing/internal/sim"
	"sharing/internal/trace"
)

// TestCheckpointResumeZeroReruns: a run killed before Save loses nothing —
// the journal alone restores every completed measurement, and the restarted
// sweep re-executes zero of them.
func TestCheckpointResumeZeroReruns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res", "perf.json")
	slices, caches := []int{1, 2}, []int{0, 64}

	r := tiny(t)
	r.ResultsPath = path
	if err := r.Load(); err != nil {
		t.Fatal(err)
	}
	// Complete half the grid, then "die": no Save — the main results file
	// never exists, only the journal does.
	done := 0
	for _, c := range caches {
		if _, err := r.Measure("swaptions", econ.Config{Slices: 1, CacheKB: c}); err != nil {
			t.Fatal(err)
		}
		done++
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("results file written before Save: %v", err)
	}

	r2 := tiny(t)
	r2.ResultsPath = path
	if err := r2.Load(); err != nil {
		t.Fatal(err)
	}
	if got := r2.Recovered(); got != done {
		t.Fatalf("recovered %d checkpointed measurements, want %d", got, done)
	}
	if _, err := r2.Grid("swaptions", slices, caches); err != nil {
		t.Fatal(err)
	}
	want := int64(len(slices)*len(caches) - done)
	if got := r2.SimRuns(); got != want {
		t.Fatalf("resumed run executed %d simulations, want %d (zero re-runs of the checkpointed prefix)", got, want)
	}
	if err := r2.Save(); err != nil {
		t.Fatal(err)
	}

	// After the atomic Save folded the journal into the results file, a
	// third run recovers nothing from the journal and re-runs nothing.
	r3 := tiny(t)
	r3.ResultsPath = path
	if err := r3.Load(); err != nil {
		t.Fatal(err)
	}
	if r3.Recovered() != 0 {
		t.Fatalf("journal not reset after Save: recovered %d", r3.Recovered())
	}
	if _, err := r3.Grid("swaptions", slices, caches); err != nil {
		t.Fatal(err)
	}
	if r3.SimRuns() != 0 {
		t.Fatalf("fully-saved grid re-executed %d simulations", r3.SimRuns())
	}
}

// TestSweepCompletesAfterTruncatedResults: a results file truncated
// mid-entry (pre-atomic-write artifact, disk trouble) must not kill the
// sweep — it loads as empty, with a warning, and the sweep regenerates and
// repairs it.
func TestSweepCompletesAfterTruncatedResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	r := tiny(t)
	r.ResultsPath = path
	if err := r.Load(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Grid("swaptions", []int{1, 2}, []int{0, 64}); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-entry: half the file ends inside a JSON object.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := tiny(t)
	r2.ResultsPath = path
	var warned atomic.Bool
	r2.Progress = func(msg string) {
		if len(msg) > 0 {
			warned.Store(true)
		}
	}
	if err := r2.Load(); err != nil {
		t.Fatalf("truncated results file must load as empty, got %v", err)
	}
	if !warned.Load() {
		t.Fatal("no warning for truncated results file")
	}
	g, err := r2.Grid("swaptions", []int{1, 2}, []int{0, 64})
	if err != nil {
		t.Fatalf("sweep after truncation: %v", err)
	}
	if len(g.Values) != 4 {
		t.Fatalf("grid has %d points", len(g.Values))
	}
	if err := r2.Save(); err != nil {
		t.Fatal(err)
	}
	r3 := tiny(t)
	r3.ResultsPath = path
	if err := r3.Load(); err != nil {
		t.Fatalf("repaired file must load cleanly: %v", err)
	}
}

// TestStopShortCircuits: Stop makes pending measurements fail fast with
// ErrStopped while already-cached ones still resolve.
func TestStopShortCircuits(t *testing.T) {
	r := tiny(t)
	cfg := econ.Config{Slices: 1, CacheKB: 0}
	if _, err := r.Measure("swaptions", cfg); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if _, err := r.Measure("swaptions", cfg); err != nil {
		t.Fatalf("cached measurement failed after Stop: %v", err)
	}
	if _, err := r.Measure("swaptions", econ.Config{Slices: 2, CacheKB: 0}); !errors.Is(err, ErrStopped) {
		t.Fatalf("uncached measurement after Stop: err = %v, want ErrStopped", err)
	}
	if got := r.SimRuns(); got != 1 {
		t.Fatalf("Stop still dispatched: %d runs", got)
	}
}

// TestRunnerBoundsAndShedsQueue pins the built-in path's two guarantees on
// a whole Fig. 12 grid: no more than Workers simulations run at once, and
// Stop while the grid is queued sheds every point that has not started,
// leaving SimRuns at the simulations that actually ran.
func TestRunnerBoundsAndShedsQueue(t *testing.T) {
	const workers = 2
	var mu sync.Mutex
	running, peak := 0, 0
	started := make(chan struct{}, len(StdSlices))
	gate := make(chan struct{})
	r := tiny(t)
	r.Workers = workers
	r.simRun = func(p sim.Params, _ *trace.MultiTrace) (*sim.Result, error) {
		mu.Lock()
		running++
		peak = max(peak, running)
		mu.Unlock()
		started <- struct{}{}
		<-gate
		mu.Lock()
		running--
		mu.Unlock()
		return &sim.Result{Cycles: int64(1000 * p.VCore.NumSlices), Instructions: 1000}, nil
	}
	errc := make(chan error, 1)
	go func() {
		_, err := r.Grid("swaptions", StdSlices, []int{0})
		errc <- err
	}()
	for i := 0; i < workers; i++ {
		<-started
	}
	// Wait until every point has passed the entry check: the rest of the
	// grid is now queued for a worker slot.
	for {
		r.mu.Lock()
		n := len(r.inflight)
		r.mu.Unlock()
		if n == len(StdSlices) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-started:
		t.Fatalf("a simulation started beyond the bound of %d workers", workers)
	case <-time.After(20 * time.Millisecond):
	}
	r.Stop()
	close(gate)
	if err := <-errc; !errors.Is(err, ErrStopped) {
		t.Fatalf("grid after Stop: err = %v, want ErrStopped", err)
	}
	if got := r.SimRuns(); got != workers {
		t.Fatalf("SimRuns = %d after Stop, want the %d that ran", got, workers)
	}
	if peak != workers {
		t.Fatalf("peak concurrency %d, want %d", peak, workers)
	}
	if got := len(r.cache); got != workers {
		t.Fatalf("%d measurements cached, want the %d that ran", got, workers)
	}
}
