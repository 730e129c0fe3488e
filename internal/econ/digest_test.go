package econ

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// searchDigest is the SHA-256 of every search TestSearchGeneratedDigest
// runs, recorded on the search's earlier, memoizing implementation. Any
// change to which configurations a search visits, which it returns, or how
// it scores them changes the digest.
const searchDigest = "483092500dbc3d75bfb424143b300185dfffa4bd43f97ccfc1139074cd4dcc24"

// generatedSurfaces returns n seeded surfaces of each family the digest
// covers:
//
//   - basin: an interior performance peak, P = s^a·(kb+c)^b·exp(-g·s-d·kb/1024),
//     which under U = (B/cost)·P^k splits into separate basins;
//   - monotone: diminishing returns on both axes,
//     P = s^a·(1+b·kb/(kb+c)), the family on which the two-start ascent is
//     known to miss the grid optimum (about 1% of the searches here).
func generatedSurfaces(n int) []func(Config) float64 {
	rng := rand.New(rand.NewSource(20))
	var out []func(Config) float64
	for i := 0; i < n; i++ {
		a, b := 0.2+0.8*rng.Float64(), 0.1+0.4*rng.Float64()
		c, g, d := 16+500*rng.Float64(), 0.3*rng.Float64(), 0.5*rng.Float64()
		out = append(out, func(cfg Config) float64 {
			s, kb := float64(cfg.Slices), float64(cfg.CacheKB)
			return math.Pow(s, a) * math.Pow(kb+c, b) * math.Exp(-g*s-d*kb/1024)
		})
	}
	for i := 0; i < n; i++ {
		a, b, c := 0.2+0.7*rng.Float64(), 0.2+1.8*rng.Float64(), 100+3900*rng.Float64()
		out = append(out, func(cfg Config) float64 {
			s, kb := float64(cfg.Slices), float64(cfg.CacheKB)
			return math.Pow(s, a) * (1 + b*kb/(kb+c))
		})
	}
	return out
}

// TestSearchGeneratedDigest pins the search's exact behaviour on generated
// surfaces: every surface × market × utility × lattice start, hashing
// (Best, Score bits, Probes) of each search. The digest deliberately
// includes the searches that miss the grid optimum on the monotone family:
// making the search exact there changes which configurations the fleet
// prices, and so its golden fingerprints, and is a separate change.
func TestSearchGeneratedDigest(t *testing.T) {
	lat, err := NewLattice(optSlices, optCaches)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var rec [32]byte
	const perFamily = 32
	searches, misses := 0, [2]int{}
	for i, perf := range generatedSurfaces(perFamily) {
		probe := func(cfg Config) (float64, error) { return perf(cfg), nil }
		g := latticeGrid(perf)
		for _, m := range Markets() {
			for _, u := range Utilities() {
				obj := func(p float64, cfg Config) float64 { return u.Value(m, p, cfg) }
				want, _ := u.Best(m, g)
				for _, s := range optSlices {
					for _, kb := range optCaches {
						res, err := lat.Search(obj, m, Config{Slices: s, CacheKB: kb}, probe)
						if err != nil {
							t.Fatal(err)
						}
						binary.LittleEndian.PutUint64(rec[0:], uint64(res.Best.Slices))
						binary.LittleEndian.PutUint64(rec[8:], uint64(res.Best.CacheKB))
						binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(res.Score))
						binary.LittleEndian.PutUint64(rec[24:], uint64(res.Probes))
						h.Write(rec[:])
						searches++
						if res.Best != want {
							misses[i/perFamily]++
						}
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d searches; off the grid optimum: %d basin, %d monotone", searches, misses[0], misses[1])
	if got != searchDigest {
		t.Fatalf("search digest %s, want %s", got, searchDigest)
	}
}
