package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"sharing/internal/distrib"
	"sharing/internal/econ"
)

// TestMain lets the procpool tests re-exec this test binary as a real
// simulation worker: MaybeWorker diverts into the SREQ/SRES serve loop (and
// exits) when the worker env marker is set, exactly as the sweep commands do.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// procpoolRunner returns a tiny Runner whose measurements execute in worker
// subprocesses (re-execs of this test binary).
func procpoolRunner(t *testing.T, shards int) *Runner {
	t.Helper()
	be, err := distrib.NewProcpool(distrib.ProcpoolParams{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	r := tiny(t)
	r.Backend = be
	return r
}

// diffGrid is the fig12 sub-sweep both backends run: two benchmarks, three
// Slice counts, one L2 size.
func diffGrid(t *testing.T, r *Runner) {
	t.Helper()
	for _, bench := range []string{"astar", "hmmer"} {
		if _, err := r.Grid(bench, []int{1, 2, 4}, []int{128}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProcpoolMatchesInproc: the multi-process backend must be a pure
// transport — same sub-sweep, byte-identical persisted results and
// deeply-equal measurement sets as the in-process pool, at any shard count.
func TestProcpoolMatchesInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	saved := func(r *Runner, path string) []byte {
		r.ResultsPath = path
		if err := r.Save(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	ref := tiny(t)
	diffGrid(t, ref)
	dir := t.TempDir()
	refRaw := saved(ref, filepath.Join(dir, "inproc.json"))

	for _, shards := range []int{2, 4} {
		r := procpoolRunner(t, shards)
		diffGrid(t, r)
		if !reflect.DeepEqual(ref.cache, r.cache) {
			t.Fatalf("shards=%d: procpool measurements differ from inproc:\n%v\nvs\n%v", shards, ref.cache, r.cache)
		}
		raw := saved(r, filepath.Join(dir, "procpool.json"))
		if string(raw) != string(refRaw) {
			t.Fatalf("shards=%d: persisted results not byte-identical", shards)
		}
	}
}

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
