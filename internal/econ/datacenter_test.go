package econ

import (
	"math"
	"testing"
)

// legacyMix is the original hard-coded big/small DatacenterMix arithmetic,
// kept verbatim as the byte-identity reference for the FleetMix
// generalization: Fig. 17 regenerated through FleetMix must match this to
// the last bit.
func legacyMix(gA, gB *Surface, big, small CoreType, k int, bigFracs, appFracs []float64) []MixPoint {
	perf := func(g *Surface, ct CoreType) float64 {
		p, _ := g.At(ct.Cfg)
		return p
	}
	pAbig, pAsmall := perf(gA, big), perf(gA, small)
	pBbig, pBsmall := perf(gB, big), perf(gB, small)
	pow := func(p float64) float64 {
		out := p
		for i := 1; i < k; i++ {
			out *= p
		}
		return out
	}
	pAbig, pAsmall, pBbig, pBsmall = pow(pAbig), pow(pAsmall), pow(pBbig), pow(pBsmall)
	areaBig := Market2().Cost(big.Cfg)
	areaSmall := Market2().Cost(small.Cfg)
	const totalArea = 1000.0
	var out []MixPoint
	for _, af := range appFracs {
		for _, bf := range bigFracs {
			nBig := bf * totalArea / areaBig
			nSmall := (1 - bf) * totalArea / areaSmall
			jobs := nBig + nSmall
			jobsA := af * jobs
			jobsB := jobs - jobsA
			var util float64
			advA := pAbig / pAsmall
			advB := pBbig / pBsmall
			bigLeft, smallLeft := nBig, nSmall
			place := func(jobs float64, pBig, pSmall float64) float64 {
				onBig := jobs
				if onBig > bigLeft {
					onBig = bigLeft
				}
				bigLeft -= onBig
				onSmall := jobs - onBig
				if onSmall > smallLeft {
					onSmall = smallLeft
				}
				smallLeft -= onSmall
				return onBig*pBig + onSmall*pSmall
			}
			if advA >= advB {
				util = place(jobsA, pAbig, pAsmall)
				util += place(jobsB, pBbig, pBsmall)
			} else {
				util = place(jobsB, pBbig, pBsmall)
				util += place(jobsA, pAbig, pAsmall)
			}
			out = append(out, MixPoint{BigAreaFrac: bf, AppFracA: af, Utility: util / totalArea})
		}
	}
	return out
}

// synthetic surfaces shaped like the two Fig. 17 regimes.
var dcSlices, dcCaches = []int{1, 2, 3, 4, 5, 6, 7, 8}, []int{0, 64, 128, 256, 512}

func dcGridCachey() *Surface {
	return surfaceOf(dcSlices, dcCaches, func(c Config) float64 {
		return 0.3 + 1.6*float64(c.CacheKB)/(float64(c.CacheKB)+600) + 0.02*float64(c.Slices)
	})
}

func dcGridSlicey() *Surface {
	return surfaceOf(dcSlices, dcCaches, func(c Config) float64 {
		return 0.28 * float64(c.Slices) * (1 + 0.03*float64(c.CacheKB)/512)
	})
}

// dcPair is a surface over the lattice spanning BigCore and SmallCore with
// the given performance at each; FleetMix reads no other point.
func dcPair(big, small float64) *Surface {
	return sparseSurface([]int{1, 3}, []int{0, 256}, 0, map[Config]float64{
		BigCore().Cfg:   big,
		SmallCore().Cfg: small,
	})
}

var dcFracs = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}

// TestDatacenterMixByteIdenticalToLegacy pins the generalization: the K=2
// path through FleetMix reproduces the original arithmetic bit for bit, for
// every utility exponent, both advantage orderings (swap A/B), and including
// the degenerate all-big/all-small endpoints.
func TestDatacenterMixByteIdenticalToLegacy(t *testing.T) {
	gA, gB := dcGridCachey(), dcGridSlicey()
	for k := 1; k <= 3; k++ {
		for _, swap := range []bool{false, true} {
			a, b := gA, gB
			if swap {
				a, b = gB, gA
			}
			got, err := DatacenterMix(a, b, BigCore(), SmallCore(), k, dcFracs, dcFracs)
			if err != nil {
				t.Fatal(err)
			}
			want := legacyMix(a, b, BigCore(), SmallCore(), k, dcFracs, dcFracs)
			if len(got) != len(want) {
				t.Fatalf("k=%d swap=%v: %d points, want %d", k, swap, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d swap=%v point %d: got %+v, want %+v (must be byte-identical)", k, swap, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFleetMixThreeTypes: with jobs that peak per-area on different core
// types, a mixed share must beat every homogeneous fleet — the
// heterogeneity argument extended to K=3.
func TestFleetMixThreeTypes(t *testing.T) {
	big := CoreType{Name: "big", Cfg: Config{Slices: 3, CacheKB: 256}}   // area 5
	mid := CoreType{Name: "mid", Cfg: Config{Slices: 2, CacheKB: 128}}   // area 3
	small := CoreType{Name: "small", Cfg: Config{Slices: 1, CacheKB: 0}} // area 1
	// The lattice spanning the three types; FleetMix reads no other point.
	three := func(pBig, pMid, pSmall float64) *Surface {
		return sparseSurface([]int{1, 2, 3}, []int{0, 128, 256}, 0, map[Config]float64{big.Cfg: pBig, mid.Cfg: pMid, small.Cfg: pSmall})
	}
	gA := three(2.0, 0.9, 0.2) // big-lover (per area: 0.4 / 0.3 / 0.2)
	gB := three(1.2, 0.7, 0.5) // small-lover (per area: 0.24 / 0.23 / 0.5)
	types := []CoreType{big, mid, small}
	shares := ShareGrid(3, 8)
	mixes := [][]float64{{0.5, 0.5}}
	pts, err := FleetMix([]*Surface{gA, gB}, types, 1, shares, mixes)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(shares) {
		t.Fatalf("%d points, want %d", len(pts), len(shares))
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Utility > best.Utility {
			best = p
		}
	}
	if best.Utility <= 0 {
		t.Fatalf("non-positive best utility %v", best.Utility)
	}
	// The optimum must use the degrees of freedom: some share vector beats
	// building only small cores and only big cores.
	var pureBig, pureSmall float64
	for _, p := range pts {
		if p.Shares[0] == 1 {
			pureBig = p.Utility
		}
		if p.Shares[2] == 1 {
			pureSmall = p.Utility
		}
	}
	if best.Utility <= pureBig || best.Utility <= pureSmall {
		t.Fatalf("best %v does not beat pure big %v / pure small %v", best.Utility, pureBig, pureSmall)
	}
}

// TestFleetMixValidation covers the error paths.
func TestFleetMixValidation(t *testing.T) {
	g := dcGridCachey()
	if _, err := FleetMix(nil, []CoreType{BigCore()}, 1, nil, nil); err == nil {
		t.Error("no job classes accepted")
	}
	if _, err := FleetMix([]*Surface{g}, nil, 1, nil, nil); err == nil {
		t.Error("no core types accepted")
	}
	if _, err := FleetMix([]*Surface{g}, []CoreType{BigCore()}, 0, nil, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := FleetMix([]*Surface{g}, []CoreType{{Name: "x", Cfg: Config{Slices: 8, CacheKB: 8192}}}, 1,
		[][]float64{{1}}, [][]float64{{1}}); err == nil {
		t.Error("missing measurement accepted")
	}
	if _, err := FleetMix([]*Surface{g}, []CoreType{BigCore()}, 1,
		[][]float64{{0.5, 0.5}}, [][]float64{{1}}); err == nil {
		t.Error("share vector of wrong arity accepted")
	}
	if _, err := FleetMix([]*Surface{g}, []CoreType{BigCore()}, 1,
		[][]float64{{1}}, [][]float64{{0.5, 0.5}}); err == nil {
		t.Error("mix vector of wrong arity accepted")
	}
}

// TestFleetMixZeroPerf: a job class measuring zero performance at the
// endpoint types used for comparative advantage must not poison the
// assignment order — 0/0 is NaN, NaN comparisons are always false, and an
// inconsistent comparator can scramble the whole greedy sort.
func TestFleetMixZeroPerf(t *testing.T) {
	big, small := BigCore(), SmallCore()
	types := []CoreType{big, small}
	zero := dcPair(0, 0)
	strong := dcPair(2.0, 0.4) // advantage 5
	weak := dcPair(1.0, 0.8)   // advantage 1.25
	onlyBig := dcPair(1.5, 0)  // advantage +Inf, deterministically

	shares := [][]float64{{0.5, 0.5}}
	mixes := [][]float64{{0.25, 0.25, 0.25, 0.25}}
	pts, err := FleetMix([]*Surface{zero, strong, weak, onlyBig}, types, 1, shares, mixes)
	if err != nil {
		t.Fatal(err)
	}
	u := pts[0].Utility
	if math.IsNaN(u) || math.IsInf(u, 0) || u <= 0 {
		t.Fatalf("degenerate utility %v", u)
	}
	// The all-zero class sorts last (advantage pinned to 0), so moving it
	// around the input must not change the total: the productive classes see
	// the same cores either way.
	perm, err := FleetMix([]*Surface{strong, weak, onlyBig, zero}, types, 1, shares, mixes)
	if err != nil {
		t.Fatal(err)
	}
	if perm[0].Utility != u {
		t.Fatalf("utility depends on the zero class's input position: %v vs %v", perm[0].Utility, u)
	}
}

// TestShareGrid pins the simplex enumeration: size C(steps+k-1, k-1),
// every vector sums to 1, lexicographic order, and the K=2 case reproduces
// the Fig. 17 fractions.
func TestShareGrid(t *testing.T) {
	g := ShareGrid(3, 4)
	if len(g) != 15 { // C(6,2)
		t.Fatalf("|ShareGrid(3,4)| = %d, want 15", len(g))
	}
	for _, v := range g {
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("share %v sums to %v", v, sum)
		}
	}
	two := ShareGrid(2, 8)
	if len(two) != len(dcFracs) {
		t.Fatalf("|ShareGrid(2,8)| = %d, want %d", len(two), len(dcFracs))
	}
	for i, v := range two {
		if v[0] != dcFracs[i] || v[1] != 1-dcFracs[i] {
			t.Fatalf("ShareGrid(2,8)[%d] = %v, want {%v, %v}", i, v, dcFracs[i], 1-dcFracs[i])
		}
	}
	if ShareGrid(0, 4) != nil || ShareGrid(2, 0) != nil {
		t.Fatal("degenerate ShareGrid not nil")
	}
}

// TestOptimalShares reduces per-mix optima deterministically.
func TestOptimalShares(t *testing.T) {
	pts := []FleetPoint{
		{Shares: []float64{1, 0}, JobFracs: []float64{0.5, 0.5}, Utility: 1},
		{Shares: []float64{0, 1}, JobFracs: []float64{0.5, 0.5}, Utility: 2},
		{Shares: []float64{1, 0}, JobFracs: []float64{1, 0}, Utility: 3},
	}
	best := OptimalShares(pts)
	if len(best) != 2 {
		t.Fatalf("%d mixes, want 2", len(best))
	}
	if best[0].Utility != 2 || best[1].Utility != 3 {
		t.Fatalf("wrong optima: %+v", best)
	}
}
