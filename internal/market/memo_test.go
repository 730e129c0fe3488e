package market

import (
	"slices"
	"testing"

	"sharing/internal/econ"
)

// gridOf measures perf over every lattice point.
func gridOf(perf func(econ.Config) float64) *econ.Surface {
	lat, err := econ.NewLattice(tSlices, tCaches)
	if err != nil {
		panic(err)
	}
	g := econ.NewSurface(lat)
	for x := range g.Values {
		g.Values[x] = perf(lat.Point(x))
	}
	return g
}

// TestSearchWarmStartProbeEconomy pins the probe economy of the serving
// pattern: the searches keep no memo, the SurfaceCache is the memo, so a
// repeat search on a warmed surface costs no cache miss and a re-pricing
// (new prices, warm start at the previous optimum) misses at most a few
// points where its path leaves the memoized region.
func TestSearchWarmStartProbeEconomy(t *testing.T) {
	cache := newCache(t, &atomicProber{})
	lat, surf := cache.Lattice(), cache.Surface("balanced", WholeProgram)
	m, u := econ.Market2(), econ.Utility2()
	obj := func(p float64, cfg econ.Config) float64 { return u.Value(m, p, cfg) }

	cold, err := lat.Search(obj, m, econ.Config{}, surf.Probe)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.Misses(); n >= int64(lat.Size()) || n != int64(cold.Probes) {
		t.Fatalf("cold search: %d misses for %d distinct configurations, lattice %d", n, cold.Probes, lat.Size())
	}

	// Same prices from the optimum: every point is memoized.
	misses := cache.Misses()
	again, err := lat.Search(obj, m, cold.Best, surf.Probe)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.Misses() - misses; n != 0 {
		t.Fatalf("repeat search missed the cache %d times, want 0", n)
	}
	if again.Best != cold.Best {
		t.Fatalf("repeat search moved: %v != %v", again.Best, cold.Best)
	}

	// A re-auction round nudges prices; the warm search re-walks mostly
	// memoized ground.
	bumped := m
	bumped.SliceCost *= 1.1
	obj2 := func(p float64, cfg econ.Config) float64 { return u.Value(bumped, p, cfg) }
	misses = cache.Misses()
	warm, err := lat.Search(obj2, bumped, cold.Best, surf.Probe)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.Misses() - misses; n > 8 {
		t.Fatalf("re-priced warm search missed the cache %d times, want <= 8", n)
	}
	if want, _ := u.Best(bumped, gridOf(benchPerf["balanced"])); warm.Best != want {
		t.Fatalf("re-priced warm search found %v, sweep says %v", warm.Best, want)
	}
}

// TestSurfaceMemoSharedAcrossObjectives: one surface serves bids under
// every market and utility; the nine searches together miss at most one
// sweep of the lattice, and the prober runs once per miss.
func TestSurfaceMemoSharedAcrossObjectives(t *testing.T) {
	fp := &atomicProber{}
	cache := newCache(t, fp)
	lat, surf := cache.Lattice(), cache.Surface("interior", WholeProgram)
	for _, m := range econ.Markets() {
		for _, u := range econ.Utilities() {
			obj := func(p float64, cfg econ.Config) float64 { return u.Value(m, p, cfg) }
			if _, err := lat.Search(obj, m, econ.Config{}, surf.Probe); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := fp.calls.Load(); got != cache.Misses() {
		t.Fatalf("probe accounting: prober %d != cache misses %d", got, cache.Misses())
	}
	if n := cache.Misses(); n > int64(lat.Size()) {
		t.Fatalf("nine bids on one surface missed %d > lattice %d: memo not shared", n, lat.Size())
	}
}

// fuzzProber is a deterministic whole-program prober with a call counter;
// fuzzPhaseProber measures phases too.
type fuzzProber struct {
	calls int64
}

func fuzzPerf(bench string, phase int, cfg econ.Config) float64 {
	return float64(len(bench)) + float64(phase+2)*0.5 + float64(cfg.Slices)*1.25 + float64(cfg.CacheKB)/64
}

func (p *fuzzProber) Probe(bench string, cfg econ.Config) (float64, error) {
	p.calls++
	return fuzzPerf(bench, WholeProgram, cfg), nil
}

type fuzzPhaseProber struct{ fuzzProber }

func (p *fuzzPhaseProber) ProbePhase(bench string, phase int, cfg econ.Config) (float64, error) {
	p.calls++
	return fuzzPerf(bench, phase, cfg), nil
}

// Fuzz decoding: every probe is three bytes. The first selects the cache
// (bit 0: phased prober or not), the surface's benchmark (bits 1-2) and its
// phase (bits 3-4, 0 = whole program); the second is the Slice count (mod
// 10, so 0 and 9 are invalid); the third indexes fuzzCaches, which mixes
// the lattice's cache axis fuzzCacheA with valid and invalid values off it.
var (
	fuzzSlices = []int{1, 2, 4, 8}
	fuzzCacheA = []int{0, 128, 512, 2048}
	fuzzCaches = []int{0, 128, 512, 2048, 64, 8192, 100, -64, 8256}
	fuzzBench  = []string{"a", "bb", "ccc", "dddd"}
)

// FuzzSurfaceCache checks decoded probe sequences against a map reference:
// an accepted probe returns the prober's value, an off-lattice probe or a
// phase probe through a non-phase prober is refused, Unique is the number
// of distinct points probed and Misses equals Unique and the prober calls.
func FuzzSurfaceCache(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{8, 2, 1, 9, 2, 1, 8, 4, 6, 6, 9, 3, 0, 0, 7, 1, 3, 8})
	f.Add([]byte{0x1f, 8, 3, 0x1e, 8, 3, 0x1f, 8, 3, 0x11, 5, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		lat, err := econ.NewLattice(fuzzSlices, fuzzCacheA)
		if err != nil {
			t.Fatal(err)
		}
		plain, phased := &fuzzProber{}, &fuzzPhaseProber{}
		var caches [2]*SurfaceCache
		for i, p := range []Prober{plain, phased} {
			if caches[i], err = NewSurfaceCache(lat, p); err != nil {
				t.Fatal(err)
			}
		}
		calls := [2]*int64{&plain.calls, &phased.calls}
		type point struct {
			bench string
			phase int
			cfg   econ.Config
		}
		var seen [2]map[point]bool
		seen[0], seen[1] = make(map[point]bool), make(map[point]bool)
		in = in[:min(len(in), 3*256)]
		for ; len(in) >= 3; in = in[3:] {
			ci := int(in[0] & 1)
			pt := point{
				bench: fuzzBench[in[0]>>1&3],
				phase: int(in[0]>>3&3) - 1,
				cfg:   econ.Config{Slices: int(in[1]) % 10, CacheKB: fuzzCaches[int(in[2])%len(fuzzCaches)]},
			}
			onLattice := slices.Contains(fuzzSlices, pt.cfg.Slices) && slices.Contains(fuzzCacheA, pt.cfg.CacheKB)
			ok := onLattice && (pt.phase == WholeProgram || ci == 1)
			got, err := caches[ci].Surface(pt.bench, pt.phase).Probe(pt.cfg)
			switch {
			case !ok && err == nil:
				t.Fatalf("%+v through cache %d accepted (on lattice %v)", pt, ci, onLattice)
			case ok && err != nil:
				t.Fatalf("%+v through cache %d: %v", pt, ci, err)
			case ok && got != fuzzPerf(pt.bench, pt.phase, pt.cfg):
				t.Fatalf("%+v through cache %d: got %v, want %v", pt, ci, got, fuzzPerf(pt.bench, pt.phase, pt.cfg))
			case ok:
				seen[ci][pt] = true
			}
			for i, c := range caches {
				if c.Unique() != len(seen[i]) || c.Misses() != int64(c.Unique()) || *calls[i] != c.Misses() {
					t.Fatalf("cache %d: unique %d, misses %d, prober calls %d; want %d distinct points", i, c.Unique(), c.Misses(), *calls[i], len(seen[i]))
				}
			}
		}
	})
}
