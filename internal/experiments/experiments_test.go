package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sharing/internal/econ"
	"sharing/internal/sim"
)

// tiny returns a Runner fast enough for unit tests.
func tiny(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner()
	r.TraceLen = 8000
	r.Seed = 7
	return r
}

// TestTraceMemoPhaseKeyed: the last-trace memo is keyed by phase, so
// distinct phases never alias, a repeated key is served from the memo, and
// returning to an evicted phase regenerates the same trace.
func TestTraceMemoPhaseKeyed(t *testing.T) {
	r := tiny(t)
	p0, err := r.traceFor("gcc", 0, r.traceLen(), r.seed())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := r.traceFor("gcc", 1, r.traceLen(), r.seed())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p0, p1) {
		t.Fatal("distinct phases produced identical traces")
	}
	if again, err := r.traceFor("gcc", 1, r.traceLen(), r.seed()); err != nil || again != p1 {
		t.Fatalf("repeated key not served from the memo (err %v)", err)
	}
	// The memo now holds phase 1, so phase 0 is regenerated.
	p0again, err := r.traceFor("gcc", 0, r.traceLen(), r.seed())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p0, p0again) {
		t.Fatal("regenerated phase-0 trace differs")
	}
}

func TestMeasureMemoizes(t *testing.T) {
	r := tiny(t)
	var runs int32
	r.Progress = func(string) { atomic.AddInt32(&runs, 1) }
	cfg := econ.Config{Slices: 2, CacheKB: 128}
	a, err := r.Measure("astar", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Measure("astar", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoized result differs")
	}
	if atomic.LoadInt32(&runs) != 1 {
		//ssim:nolint atomicguard: read after the worker goroutines joined; no concurrent writers remain
		t.Fatalf("simulation ran %d times, want 1", runs)
	}
}

func TestGridAndPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "res", "perf.json")
	r := tiny(t)
	r.ResultsPath = path
	if err := r.Load(); err != nil {
		t.Fatal(err)
	}
	g, err := r.Grid("swaptions", []int{1, 2}, []int{0, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Values) != 4 {
		t.Fatalf("grid has %d points", len(g.Values))
	}
	for x, ipc := range g.Values {
		if ipc <= 0 {
			t.Fatalf("%v: ipc %f", g.Lattice.Point(x), ipc)
		}
	}
	if err := r.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("results file not written:", err)
	}

	// A fresh runner must reload the results and not simulate again.
	r2 := NewRunner()
	r2.TraceLen, r2.Seed, r2.ResultsPath = 8000, 7, path
	var runs int32
	r2.Progress = func(string) { atomic.AddInt32(&runs, 1) }
	if err := r2.Load(); err != nil {
		t.Fatal(err)
	}
	g2, err := r2.Grid("swaptions", []int{1, 2}, []int{0, 64})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&runs) != 0 {
		//ssim:nolint atomicguard: read after the worker goroutines joined; no concurrent writers remain
		t.Fatalf("persisted results ignored: %d fresh runs", runs)
	}
	for x := range g.Values {
		if g.Values[x] != g2.Values[x] {
			t.Fatalf("%v: %f != %f after reload", g.Lattice.Point(x), g.Values[x], g2.Values[x])
		}
	}
}

// TestGridRefusesBadAxes: axes that do not form a lattice — descending,
// repeated, or off Equation 3 — are an error before anything is simulated.
func TestGridRefusesBadAxes(t *testing.T) {
	r := tiny(t)
	for _, c := range []struct{ slices, caches []int }{
		{[]int{3, 1}, []int{256, 0}},
		{[]int{1, 2}, []int{64, 0}},
		{[]int{2, 2}, []int{0}},
		{[]int{8, 9}, []int{0}},
		{[]int{1}, []int{0, 100}},
		{nil, []int{0}},
	} {
		if _, err := r.Grid("swaptions", c.slices, c.caches); err == nil {
			t.Errorf("Grid accepted %v x %v", c.slices, c.caches)
		}
		if _, err := r.GridPhase("gcc", 0, c.slices, c.caches); err == nil {
			t.Errorf("GridPhase accepted %v x %v", c.slices, c.caches)
		}
	}
	if n := r.SimRuns(); n != 0 {
		t.Fatalf("%d simulations ran for refused axes", n)
	}
}

// TestLoadToleratesCorruptResults: a corrupt or truncated results file (a
// kill mid-write before writes became atomic, disk trouble, a bad merge) is
// a cache miss with a warning, not a fatal error — the sweep re-runs and
// overwrites it.
func TestLoadToleratesCorruptResults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "perf.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := tiny(t)
	r.ResultsPath = path
	var warned atomic.Bool
	r.Progress = func(msg string) {
		if strings.Contains(msg, "corrupt") {
			warned.Store(true)
		}
	}
	if err := r.Load(); err != nil {
		t.Fatalf("corrupt results file should load as empty, got %v", err)
	}
	if !warned.Load() {
		t.Fatal("no corruption warning emitted")
	}
	// The sweep must complete normally and Save must repair the file.
	if _, err := r.Measure("astar", econ.Config{Slices: 1, CacheKB: 64}); err != nil {
		t.Fatal(err)
	}
	if err := r.Save(); err != nil {
		t.Fatal(err)
	}
	r2 := tiny(t)
	r2.ResultsPath = path
	if err := r2.Load(); err != nil {
		t.Fatalf("repaired results file should load cleanly: %v", err)
	}
}

func TestFig12SmallGrid(t *testing.T) {
	r := tiny(t)
	data, err := Fig12(r, []string{"hmmer"})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 || len(data[0].Speedup) != len(StdSlices) {
		t.Fatalf("shape: %+v", data)
	}
	if data[0].Speedup[0] != 1.0 {
		t.Fatalf("normalization wrong: %f", data[0].Speedup[0])
	}
}

func TestTable7PhasesDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("several phase simulations")
	}
	r := tiny(t)
	r.TraceLen = 12000
	tables, err := Table7(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d metrics", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Schedule.PerPhase) != 10 {
			t.Fatalf("k=%d: %d phases", tb.K, len(tb.Schedule.PerPhase))
		}
	}
}

func TestRenderSeries(t *testing.T) {
	out := RenderSeries("Title", []string{"a", "bench"}, [][]string{{"x", "1.00"}, {"longer", "2.00"}})
	if !strings.Contains(out, "Title") || !strings.Contains(out, "longer") {
		t.Fatalf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("%d lines", len(lines))
	}
}

func TestMeasurementIPC(t *testing.T) {
	if (Measurement{Cycles: 0}).IPC() != 0 {
		t.Fatal("zero cycles")
	}
	if (Measurement{Cycles: 10, Insts: 5}).IPC() != 0.5 {
		t.Fatal("ipc math")
	}
}

func TestKeyString(t *testing.T) {
	k := key{Bench: "gcc", Slices: 2, CacheKB: 128, N: 100, Seed: 1, Phase: -1}
	if !strings.Contains(k.String(), "gcc/s2/c128") {
		t.Fatalf("key = %s", k.String())
	}
}

func TestMeasureSingleflight(t *testing.T) {
	r := tiny(t)
	var runs int32
	r.Progress = func(string) { atomic.AddInt32(&runs, 1) }
	cfg := econ.Config{Slices: 2, CacheKB: 128}
	const callers = 8
	var wg sync.WaitGroup
	res := make([]Measurement, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = r.Measure("astar", cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res[i] != res[0] {
			t.Fatalf("caller %d got %+v, caller 0 got %+v", i, res[i], res[0])
		}
	}
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("simulation ran %d times for one key, want 1", got)
	}
}

func TestSampledMeasurementsCacheSeparately(t *testing.T) {
	r := tiny(t)
	cfg := econ.Config{Slices: 2, CacheKB: 128}
	exact, err := r.Measure("astar", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Sampled || exact.Windows != 0 {
		t.Fatalf("exact measurement carries sample fields: %+v", exact)
	}
	// Period chosen so the tiny test trace still gets several windows.
	r.Sample = sim.SampleParams{Enabled: true, Seed: 3, PeriodInsts: 2000}
	sampled, err := r.Measure("astar", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sampled.Sampled || sampled.Windows == 0 {
		t.Fatalf("sampled measurement not flagged: %+v", sampled)
	}
	if sampled.Cycles == exact.Cycles {
		t.Fatal("sampled measurement identical to exact: cache keys collided")
	}
	// Flipping back must hit the exact cache entry, not the sampled one.
	r.Sample = sim.SampleParams{}
	again, err := r.Measure("astar", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != exact {
		t.Fatalf("exact remeasure %+v != original %+v", again, exact)
	}
}

func TestSampledKeyNormalizesDefaults(t *testing.T) {
	base := key{Bench: "gcc", Slices: 2, CacheKB: 128, N: 100, Seed: 1, Phase: -1}
	zero, explicit := base, base
	zero.Sample = sim.SampleParams{Enabled: true, Seed: 3}
	explicit.Sample = sim.SampleParams{
		Enabled:     true,
		WindowInsts: sim.DefaultSampleWindow,
		PeriodInsts: sim.DefaultSamplePeriod,
		WarmupInsts: sim.DefaultSampleWarmup,
		Seed:        3,
	}
	if zero.String() != explicit.String() {
		t.Fatalf("default-by-zero key %q != explicit-default key %q", zero.String(), explicit.String())
	}
	if base.String() == zero.String() {
		t.Fatal("sampled key not distinct from exact key")
	}
}

// TestQuantumKeyedSeparately: a non-default quantum changes the machine's
// timing semantics, so it must occupy its own results-cache entry while
// the default keeps its historical suffix-free key.
func TestQuantumKeyedSeparately(t *testing.T) {
	base := key{Bench: "mcf", Slices: 2, CacheKB: 128, N: 1000, Seed: 7, Phase: -1}
	q := base
	q.Quantum = 1
	if base.String() == q.String() {
		t.Fatalf("quantum override shares a cache key: %s", q.String())
	}
	if strings.Contains(base.String(), "/q") {
		t.Fatalf("default quantum suffixed the historical key: %s", base.String())
	}
}
