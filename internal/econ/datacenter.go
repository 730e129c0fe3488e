package econ

import (
	"fmt"
	"math"
	"sort"
)

// Datacenter heterogeneity comparison (§5.9, Fig. 17), generalized. The
// paper evaluates a datacenter of fixed total area split between "big" cores
// (the configuration where gobmk peaks under Utility2: 3 Slices + 256 KB)
// and "small" cores (where hmmer peaks: 1 Slice + 0 KB). Jobs arrive in a
// given application mix and are assigned to core types to maximize total
// utility; the experiment shows that the optimal split moves with the
// application mix, so no static heterogeneous mix serves all mixes well.
// FleetMix extends the construction from the hard-coded big/small pair to K
// arbitrary core types and J job classes — the fleet simulator's
// heterogeneous-datacenter planning input — and DatacenterMix is the K=2
// special case, kept byte-identical to its original arithmetic.

// CoreType is one fixed core flavour a heterogeneous datacenter builds.
type CoreType struct {
	Name string
	Cfg  Config
}

// BigCore and SmallCore are the paper's Fig. 17 endpoints.
func BigCore() CoreType   { return CoreType{Name: "big", Cfg: Config{Slices: 3, CacheKB: 256}} }
func SmallCore() CoreType { return CoreType{Name: "small", Cfg: Config{Slices: 1, CacheKB: 0}} }

// MixPoint is one Fig. 17 sample: a big-core area fraction, an application
// mix, and the resulting datacenter utility per unit area.
type MixPoint struct {
	BigAreaFrac float64
	AppFracA    float64 // fraction of jobs that are benchmark A
	Utility     float64 // total utility per unit area
}

// FleetPoint is one generalized sample: an area share per core type, a job
// fraction per class, and the resulting utility per unit area.
type FleetPoint struct {
	Shares   []float64 // area share per core type, in input type order
	JobFracs []float64 // job fraction per class, in input class order
	Utility  float64   // total utility per unit area
}

// fleetTotalArea is the fixed datacenter area budget (abstract units; only
// per-area utilities matter downstream).
const fleetTotalArea = 1000.0

// FleetMix generalizes DatacenterMix to K core types and J job classes:
// perf[j] holds class j's measured performance, types the core flavours,
// shares the area-share vectors to evaluate (each of length K, summing to 1)
// and mixes the job-fraction vectors (each of length J, summing to 1). For
// every (mix, share) pair — mixes outer, shares inner — the datacenter
// builds share[t]*totalArea/area[t] cores of each type, jobs fill all cores
// (one job per core, infinitely divisible populations), and assignment is by
// comparative advantage: classes ordered by their powed performance ratio
// between the largest- and smallest-area type fill the types in descending
// area order. For two types this greedy is the classic exchange-argument
// optimum and reproduces DatacenterMix bit for bit; for K > 2 it is a
// heuristic for the underlying transportation problem — good enough for the
// planning sweeps, and the fleet simulator measures actual placements anyway.
func FleetMix(perf []*Surface, types []CoreType, k int, shares, mixes [][]float64) ([]FleetPoint, error) {
	nt, nj := len(types), len(perf)
	if nt == 0 || nj == 0 {
		return nil, fmt.Errorf("econ: fleet mix needs at least one core type and one job class")
	}
	if k < 1 {
		return nil, fmt.Errorf("econ: utility exponent %d < 1", k)
	}
	// Powed performance matrix p[j][t] (pow applied upfront, as the original
	// arithmetic does, so advantages compare powed values).
	pow := func(p float64) float64 {
		out := p
		for i := 1; i < k; i++ {
			out *= p
		}
		return out
	}
	p := make([][]float64, nj)
	for j, s := range perf {
		p[j] = make([]float64, nt)
		for t, ct := range types {
			pt, ok := s.At(ct.Cfg)
			if !ok {
				return nil, fmt.Errorf("econ: no measurement at %v", ct.Cfg)
			}
			p[j][t] = pow(pt)
		}
	}
	area := make([]float64, nt)
	for t, ct := range types {
		area[t] = Market2().Cost(ct.Cfg)
	}
	// Types in descending area order (stable: ties keep input order); the
	// greedy fills big cores first.
	tOrder := make([]int, nt)
	for t := range tOrder {
		tOrder[t] = t
	}
	sort.SliceStable(tOrder, func(a, b int) bool { return area[tOrder[a]] > area[tOrder[b]] })
	// Classes in descending comparative advantage — performance ratio between
	// the biggest and smallest type (stable: equal advantages keep input
	// order, matching the original advA >= advB tie).
	biggest, smallest := tOrder[0], tOrder[nt-1]
	adv := make([]float64, nj)
	for j := range adv {
		switch {
		case p[j][smallest] > 0:
			adv[j] = p[j][biggest] / p[j][smallest]
		case p[j][biggest] > 0:
			// Zero measured perf on the smallest type only: maximal advantage,
			// deterministically (a raw divide would also give +Inf, but keep
			// the degenerate cases on one explicit path).
			adv[j] = math.Inf(1)
		default:
			// Zero everywhere: the class contributes no utility at either
			// endpoint; 0/0 would be NaN and scramble the sort (NaN compares
			// false both ways). Pin it to the bottom of the order instead.
			adv[j] = 0
		}
	}
	jOrder := make([]int, nj)
	for j := range jOrder {
		jOrder[j] = j
	}
	sort.SliceStable(jOrder, func(a, b int) bool { return adv[jOrder[a]] > adv[jOrder[b]] })

	cores := make([]float64, nt) // cores built per type, reused per point
	left := make([]float64, nt)  // unfilled cores per type during assignment
	var out []FleetPoint
	for _, mix := range mixes {
		if len(mix) != nj {
			return nil, fmt.Errorf("econ: mix vector has %d classes, want %d", len(mix), nj)
		}
		for _, share := range shares {
			if len(share) != nt {
				return nil, fmt.Errorf("econ: share vector has %d types, want %d", len(share), nt)
			}
			jobs := 0.0
			for _, t := range tOrder {
				cores[t] = share[t] * fleetTotalArea / area[t]
				jobs += cores[t]
			}
			// Job counts per class: all but the last take their fraction, the
			// last absorbs the remainder (jobsB = jobs - jobsA originally).
			classJobs := make([]float64, nj)
			rest := jobs
			for j := 0; j < nj-1; j++ {
				classJobs[j] = mix[j] * jobs
				rest -= classJobs[j]
			}
			classJobs[nj-1] = rest
			copy(left, cores)
			var util float64
			for _, j := range jOrder {
				remaining := classJobs[j]
				classUtil := 0.0
				for _, t := range tOrder {
					on := remaining
					if on > left[t] {
						on = left[t]
					}
					left[t] -= on
					remaining -= on
					classUtil += on * p[j][t]
				}
				util += classUtil
			}
			out = append(out, FleetPoint{
				Shares:   append([]float64(nil), share...),
				JobFracs: append([]float64(nil), mix...),
				Utility:  util / fleetTotalArea,
			})
		}
	}
	return out, nil
}

// DatacenterMix sweeps big-core area fraction for each application mix.
// pA/pB supply each benchmark's measured performance on both core
// types. Jobs are infinitely divisible (a large population) and each core
// runs one job; assignment maximizes total P^k-per-area utility (Utility-k
// under Market2 semantics; the paper uses k=1, and on this substrate's
// compressed performance spreads k=2 recovers the same qualitative
// behaviour - see EXPERIMENTS.md). It is FleetMix at K=2 (types big, small;
// classes A, B), byte-identical to the original two-type arithmetic.
func DatacenterMix(pA, pB *Surface, big, small CoreType, k int, bigFracs, appFracs []float64) ([]MixPoint, error) {
	shares := make([][]float64, len(bigFracs))
	for i, bf := range bigFracs {
		shares[i] = []float64{bf, 1 - bf}
	}
	mixes := make([][]float64, len(appFracs))
	for i, af := range appFracs {
		mixes[i] = []float64{af, 1 - af}
	}
	pts, err := FleetMix([]*Surface{pA, pB}, []CoreType{big, small}, k, shares, mixes)
	if err != nil {
		return nil, err
	}
	out := make([]MixPoint, len(pts))
	for i, fp := range pts {
		out[i] = MixPoint{
			BigAreaFrac: bigFracs[i%len(bigFracs)],
			AppFracA:    appFracs[i/len(bigFracs)],
			Utility:     fp.Utility,
		}
	}
	return out, nil
}

// OptimalBigFrac returns, per application mix, the big-core fraction with
// the highest utility — the quantity whose movement with the mix is the
// point of Fig. 17.
func OptimalBigFrac(points []MixPoint) map[float64]float64 {
	best := make(map[float64]float64)
	bestU := make(map[float64]float64)
	for _, p := range points {
		if u, ok := bestU[p.AppFracA]; !ok || p.Utility > u {
			bestU[p.AppFracA] = p.Utility
			best[p.AppFracA] = p.BigAreaFrac
		}
	}
	return best
}

// OptimalShares reduces FleetMix output to, per job mix (in first-seen
// order), the utility-maximizing share vector — the K-type counterpart of
// OptimalBigFrac. Ties keep the earlier (lexicographically smaller, given
// ShareGrid order) share vector.
func OptimalShares(points []FleetPoint) []FleetPoint {
	var out []FleetPoint
	idx := make(map[string]int)
	for _, p := range points {
		k := fmt.Sprint(p.JobFracs)
		if i, ok := idx[k]; ok {
			if p.Utility > out[i].Utility {
				out[i] = p
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, p)
	}
	return out
}

// ShareGrid enumerates area-share vectors over the K-type simplex at
// granularity 1/steps, in deterministic lexicographic order: every vector
// (i_1/steps, ..., i_K/steps) with the i's non-negative integers summing to
// steps. K=2, steps=8 yields the nine Fig. 17 big-core fractions.
func ShareGrid(k, steps int) [][]float64 {
	if k <= 0 || steps <= 0 {
		return nil
	}
	var out [][]float64
	cur := make([]int, k)
	var rec func(pos, rest int)
	rec = func(pos, rest int) {
		if pos == k-1 {
			cur[pos] = rest
			v := make([]float64, k)
			for i, c := range cur {
				v[i] = float64(c) / float64(steps)
			}
			out = append(out, v)
			return
		}
		for c := 0; c <= rest; c++ {
			cur[pos] = c
			rec(pos+1, rest-c)
		}
	}
	rec(0, steps)
	return out
}
