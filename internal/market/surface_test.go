package market

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sharing/internal/econ"
)

var (
	tSlices = []int{1, 2, 3, 4, 5, 6, 7, 8}
	tCaches = []int{0, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
)

// testLattice is the standard lattice, tSlices x tCaches.
func testLattice(t testing.TB) *econ.Lattice {
	t.Helper()
	lat, err := econ.NewLattice(tSlices, tCaches)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

// newCache builds a cache over the standard lattice.
func newCache(t testing.TB, p Prober) *SurfaceCache {
	t.Helper()
	c, err := NewSurfaceCache(testLattice(t), p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Synthetic per-benchmark performance surfaces, shaped like the paper's
// regimes (Fig. 12): mcf-like cache lovers, sjeng-like compute lovers.
var benchPerf = map[string]func(econ.Config) float64{
	"cachey": func(c econ.Config) float64 {
		return 0.3 + 1.8*float64(c.CacheKB)/(float64(c.CacheKB)+700)
	},
	"slicey": func(c econ.Config) float64 {
		s := float64(c.Slices)
		return 0.25 * s * (1 + 0.05*float64(c.CacheKB)/8192)
	},
	"mixed": func(c econ.Config) float64 {
		s := float64(c.Slices)
		kb := float64(c.CacheKB)
		return (s / (s + 1)) * (0.4 + kb/(kb+400))
	},
	"balanced": func(c econ.Config) float64 {
		s := float64(c.Slices)
		kb := float64(c.CacheKB)
		return (s / (s + 2)) * (0.5 + kb/(kb+512))
	},
	"interior": func(c econ.Config) float64 {
		// Peaks at moderate resources; over-provisioning wastes budget.
		s := float64(c.Slices)
		kb := float64(c.CacheKB)
		return math.Sqrt(s) * (1 - math.Exp(-(kb+64)/400))
	},
}

// fakeProber serves the synthetic surfaces, phases included.
type fakeProber struct{}

func (fakeProber) Probe(bench string, cfg econ.Config) (float64, error) {
	fn, ok := benchPerf[bench]
	if !ok {
		return 0, fmt.Errorf("no bench %q", bench)
	}
	return fn(cfg), nil
}

func (f fakeProber) ProbePhase(bench string, phase int, cfg econ.Config) (float64, error) {
	return f.Probe(bench, cfg)
}

// nonPhaseProber implements only Prober.
type nonPhaseProber struct{}

func (nonPhaseProber) Probe(bench string, cfg econ.Config) (float64, error) {
	return benchPerf["mixed"](cfg), nil
}

// atomicProber serves the synthetic surfaces with a race-safe call counter.
type atomicProber struct {
	calls atomic.Int64
}

func (f *atomicProber) Probe(bench string, cfg econ.Config) (float64, error) {
	fn, ok := benchPerf[bench]
	if !ok {
		return 0, fmt.Errorf("no bench %q", bench)
	}
	f.calls.Add(1)
	return fn(cfg), nil
}

// TestSurfaceCacheSharedAcrossEngines is the sharing contract: many
// goroutines running the stateless lattice search (as internal/alloc does)
// over one SurfaceCache, hammered concurrently, must (a) be race-clean (this
// package runs under -race in make serve-smoke), (b) agree search-for-search
// with searches over a private cache, and (c) never probe one (surface,
// configuration) point twice.
func TestSurfaceCacheSharedAcrossEngines(t *testing.T) {
	fp := &atomicProber{}
	cache := newCache(t, fp)
	private := newCache(t, &atomicProber{})
	lat := cache.Lattice()
	benches := []string{"cachey", "slicey", "mixed"}
	type bidKey struct {
		bench string
		k     int
		mi    int
	}
	search := func(c *SurfaceCache, bench string, u econ.Utility, m econ.Market) (econ.SearchResult, error) {
		obj := func(perf float64, cfg econ.Config) float64 { return u.Value(m, perf, cfg) }
		return lat.Search(obj, m, econ.Config{}, c.Surface(bench, WholeProgram).Probe)
	}
	want := make(map[bidKey]econ.SearchResult)
	for _, b := range benches {
		for _, u := range econ.Utilities() {
			for mi, m := range econ.Markets() {
				res, err := search(private, b, u, m)
				if err != nil {
					t.Fatal(err)
				}
				want[bidKey{b, u.K, mi}] = res
			}
		}
	}

	const nEngines = 4
	var wg sync.WaitGroup
	errs := make(chan error, nEngines*len(want))
	for i := 0; i < nEngines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, b := range benches {
				for _, u := range econ.Utilities() {
					for mi, m := range econ.Markets() {
						res, err := search(cache, b, u, m)
						if err != nil {
							errs <- err
							return
						}
						if w := want[bidKey{b, u.K, mi}]; !reflect.DeepEqual(res, w) {
							errs <- fmt.Errorf("%s U%d market%d: shared %+v != private %+v", b, u.K, mi+1, res, w)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	//ssim:nolint barrierorder: any collected error fails the test; arrival order is irrelevant
	for err := range errs {
		t.Fatal(err)
	}

	if got := fp.calls.Load(); got != int64(cache.Unique()) {
		t.Errorf("prober calls %d != unique points %d: a point was probed twice", got, cache.Unique())
	}
	if cache.Unique() != private.Unique() {
		t.Errorf("shared cache holds %d points, the private reference %d", cache.Unique(), private.Unique())
	}
	if cache.NumSurfaces() != len(benches) {
		t.Errorf("surfaces = %d, want %d", cache.NumSurfaces(), len(benches))
	}
}

// TestSurfaceCachePhaseCapability: a cache over a non-phase prober must
// report it cannot serve phase surfaces and refuse a phase probe, while
// whole-program probes still work.
func TestSurfaceCachePhaseCapability(t *testing.T) {
	cache := newCache(t, nonPhaseProber{})
	if cache.Phased() {
		t.Fatal("cache over a non-phase prober claims phases")
	}
	if _, err := cache.Surface("x", 0).Probe(econ.Config{Slices: 1}); err == nil {
		t.Fatal("phase probe through non-phase prober accepted")
	}
	if _, err := cache.Surface("x", WholeProgram).Probe(econ.Config{Slices: 1}); err != nil {
		t.Fatal(err)
	}
	if !newCache(t, fakeProber{}).Phased() {
		t.Fatal("cache over a PhaseProber denies phases")
	}
}

// TestNewRequiresProberOrCache pins the constructor contract: there is no
// probe economy without a prober to fill it and a lattice to store it over.
func TestNewRequiresProberOrCache(t *testing.T) {
	if _, err := NewSurfaceCache(testLattice(t), nil); err == nil {
		t.Fatal("cache without a prober accepted")
	}
	if _, err := NewSurfaceCache(nil, fakeProber{}); err == nil {
		t.Fatal("cache without a lattice accepted")
	}
}

// TestSurfaceCacheServerLoad is the serving-shaped contract behind
// internal/alloc: the raw cache hammered by many goroutines — a thundering
// herd on a cold surface, then mixed hot/cold probes with concurrent
// lock-free readers — must return exact values, stay race-clean, and
// singleflight every cold point (one simulator call per unique
// (surface, configuration), no matter how many goroutines want it).
func TestSurfaceCacheServerLoad(t *testing.T) {
	fp := &atomicProber{}
	cache := newCache(t, fp)

	// Thundering herd: every goroutine sweeps the SAME cold surface.
	const herd = 8
	var wg sync.WaitGroup
	errs := make(chan error, herd+3)
	for g := 0; g < herd; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range tSlices {
				for _, kb := range tCaches {
					cfg := econ.Config{Slices: s, CacheKB: kb}
					got, err := cache.Surface("cachey", WholeProgram).Probe(cfg)
					if err != nil {
						errs <- err
						return
					}
					if want := benchPerf["cachey"](cfg); got != want {
						errs <- fmt.Errorf("herd %v: got %v want %v", cfg, got, want)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	lattice := int64(len(tSlices) * len(tCaches))
	if int64(cache.Unique()) != lattice {
		t.Fatalf("herd probed %d points, want exactly one sweep %d", cache.Unique(), lattice)
	}

	// Mixed load: cold sweeps of other surfaces racing warm re-probes, each
	// point read back through a second, lock-free probe.
	for _, bench := range []string{"slicey", "mixed", "cachey"} {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			for _, s := range tSlices {
				for _, kb := range tCaches {
					cfg := econ.Config{Slices: s, CacheKB: kb}
					got, err := cache.Surface(bench, WholeProgram).Probe(cfg)
					if err != nil {
						errs <- err
						return
					}
					if want := benchPerf[bench](cfg); got != want {
						errs <- fmt.Errorf("%s %v: got %v want %v", bench, cfg, got, want)
						return
					}
					if v, err := cache.Surface(bench, WholeProgram).Probe(cfg); err != nil || v != got {
						errs <- fmt.Errorf("%s %v: re-probe=(%v,%v) after Probe=%v", bench, cfg, v, err, got)
						return
					}
				}
			}
			errs <- nil
		}(bench)
	}
	wg.Wait()
	close(errs)
	//ssim:nolint barrierorder: any collected error fails the test; arrival order is irrelevant
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := fp.calls.Load(); got != int64(cache.Unique()) {
		t.Errorf("prober calls %d != unique points %d: singleflight let a point probe twice", got, cache.Unique())
	}
	if got, want := cache.NumSurfaces(), 3; got != want {
		t.Errorf("surfaces = %d, want %d", got, want)
	}
}
