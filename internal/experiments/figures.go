package experiments

import (
	"fmt"
	"sort"
	"strings"

	"sharing/internal/econ"
	"sharing/internal/hypervisor"
	"sharing/internal/workload"
)

// ----------------------------------------------------------------------------
// Fig. 12 — Scalability of VCore performance with Slice count.

// ScalabilityData holds one benchmark's normalized speedup series.
type ScalabilityData struct {
	Bench   string
	Slices  []int
	Speedup []float64 // normalized to 1 Slice + 128 KB
}

// Fig12 measures performance versus Slice count at 128 KB of L2, normalized
// to the one-Slice configuration (the paper's Fig. 12).
func Fig12(r *Runner, names []string) ([]ScalabilityData, error) {
	if len(names) == 0 {
		names = workload.Names()
	}
	var out []ScalabilityData
	for _, b := range names {
		g, err := r.Grid(b, StdSlices, []int{128})
		if err != nil {
			return nil, err
		}
		base, _ := g.At(econ.Config{Slices: 1, CacheKB: 128})
		d := ScalabilityData{Bench: b, Slices: StdSlices}
		for _, p := range g.Values { // StdSlices order: the lattice has one cache column
			d.Speedup = append(d.Speedup, p/base)
		}
		out = append(out, d)
		if err := r.Save(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ----------------------------------------------------------------------------
// Fig. 13 — Performance scaling with L2 cache size.

// CacheSensitivityData holds one benchmark's normalized cache curve.
type CacheSensitivityData struct {
	Bench   string
	CacheKB []int
	Speedup []float64 // normalized to 0 KB at 2 Slices
}

// Fig13 measures performance versus L2 size at 2 Slices, normalized to the
// no-L2 configuration (the paper's Fig. 13).
func Fig13(r *Runner, names []string) ([]CacheSensitivityData, error) {
	if len(names) == 0 {
		names = workload.Names()
	}
	var out []CacheSensitivityData
	for _, b := range names {
		g, err := r.Grid(b, []int{2}, StdCaches)
		if err != nil {
			return nil, err
		}
		base, _ := g.At(econ.Config{Slices: 2, CacheKB: 0})
		d := CacheSensitivityData{Bench: b, CacheKB: StdCaches}
		for _, p := range g.Values { // StdCaches order: the lattice has one Slice row
			d.Speedup = append(d.Speedup, p/base)
		}
		out = append(out, d)
		if err := r.Save(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ----------------------------------------------------------------------------
// Table 4 — Optimal configurations per performance-area metric.

// OptimaRow is one benchmark's optimal configurations for perf^k/area.
type OptimaRow struct {
	Bench string
	Best  [3]econ.Config // k = 1, 2, 3
}

// Table4 finds, per benchmark, the configuration maximizing perf^k/area for
// k in 1..3 over the standard grid.
func Table4(r *Runner, names []string) ([]OptimaRow, econ.Suite, error) {
	suite, err := r.SuiteGrids(names, StdSlices, StdCaches)
	if err != nil {
		return nil, nil, err
	}
	var rows []OptimaRow
	for _, b := range suite.Names() {
		row := OptimaRow{Bench: b}
		for k := 1; k <= 3; k++ {
			cfg, _ := econ.BestByMetric(k, suite[b])
			row.Best[k-1] = cfg
		}
		rows = append(rows, row)
	}
	return rows, suite, nil
}

// ----------------------------------------------------------------------------
// Fig. 14 — Utility surfaces.

// UtilitySurface is utility over the (Slices, log2 banks) plane.
type UtilitySurface struct {
	Bench  string
	K      int
	Slices []int
	BankL2 []int       // log2(bank count); -1 encodes zero cache
	U      [][]float64 // [bankIdx][sliceIdx], normalized to max 1
}

// Fig14 computes the utility surfaces for the given benchmarks and utility
// functions under Market2 (the paper plots gcc and bzip under Utility1/2).
func Fig14(r *Runner, benches []string, ks []int) ([]UtilitySurface, error) {
	m := econ.Market2()
	var out []UtilitySurface
	for _, b := range benches {
		g, err := r.Grid(b, StdSlices, StdCaches)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			u := econ.Utility{K: k, Budget: econ.DefaultBudget}
			surf := UtilitySurface{Bench: b, K: k, Slices: StdSlices}
			maxU := 0.0
			for _, c := range StdCaches {
				l2 := -1
				if c > 0 {
					l2 = log2(c / 64)
				}
				surf.BankL2 = append(surf.BankL2, l2)
				row := make([]float64, len(StdSlices))
				for si, s := range StdSlices {
					cfg := econ.Config{Slices: s, CacheKB: c}
					p, _ := g.At(cfg)
					row[si] = u.Value(m, p, cfg)
					if row[si] > maxU {
						maxU = row[si]
					}
				}
				surf.U = append(surf.U, row)
			}
			if maxU > 0 {
				for _, row := range surf.U {
					for i := range row {
						row[i] /= maxU
					}
				}
			}
			out = append(out, surf)
		}
	}
	return out, nil
}

func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// ----------------------------------------------------------------------------
// Table 6 — Optimal configurations per utility per market.

// MarketOptimaRow is one benchmark's optima across utilities and markets.
type MarketOptimaRow struct {
	Bench string
	// Best[marketIdx][k-1]
	Best [3][3]econ.Config
}

// Table6 computes optimal VCore configurations in the three markets.
func Table6(suite econ.Suite) []MarketOptimaRow {
	var rows []MarketOptimaRow
	for _, b := range suite.Names() {
		row := MarketOptimaRow{Bench: b}
		for mi, m := range econ.Markets() {
			for _, u := range econ.Utilities() {
				cfg, _ := u.Best(m, suite[b])
				row.Best[mi][u.K-1] = cfg
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ----------------------------------------------------------------------------
// Figs. 15/16 — Market-efficiency gains.

// Fig15 computes utility gains versus the best static fixed architecture.
func Fig15(suite econ.Suite) ([]econ.PairGain, econ.Config, error) {
	return econ.FixedArchGains(suite, econ.Utilities(), econ.Market2())
}

// Fig16 computes utility gains versus a per-utility heterogeneous machine.
func Fig16(suite econ.Suite) ([]econ.PairGain, map[int]econ.Config, error) {
	return econ.HeteroGains(suite, econ.Utilities(), econ.Market2())
}

// ----------------------------------------------------------------------------
// Fig. 17 — Datacenter heterogeneity (hmmer vs gobmk mixes).

// Fig17 sweeps big-core area fraction against the hmmer:gobmk job mix.
// Following the paper's construction, the "big" core is gobmk's measured
// utility peak and the "small" core is hmmer's; on this substrate those
// peaks (and the mix effect) appear under Utility2.
func Fig17(r *Runner) ([]econ.MixPoint, econ.CoreType, econ.CoreType, error) {
	gh, err := r.Grid("hmmer", StdSlices, StdCaches)
	if err != nil {
		return nil, econ.CoreType{}, econ.CoreType{}, err
	}
	gg, err := r.Grid("gobmk", StdSlices, StdCaches)
	if err != nil {
		return nil, econ.CoreType{}, econ.CoreType{}, err
	}
	const k = 2
	bigCfg, _ := econ.BestByMetric(k, gg)
	smallCfg, _ := econ.BestByMetric(k, gh)
	big := econ.CoreType{Name: "big", Cfg: bigCfg}
	small := econ.CoreType{Name: "small", Cfg: smallCfg}
	bigFracs := []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0}
	appFracs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	pts, err := econ.DatacenterMix(gh, gg, big, small, k, bigFracs, appFracs)
	return pts, big, small, err
}

// ----------------------------------------------------------------------------
// Table 7 — Dynamic phases of gcc.

// PhaseTable is the Table 7 reproduction for one metric.
type PhaseTable struct {
	K        int
	Schedule *econ.PhaseSchedule
}

// GCCPhases simulates each gcc phase independently over the grid and
// returns its cycle count at every configuration: the input of Table 7 and
// of the heartbeat auto-tuner.
func GCCPhases(r *Runner) ([]econ.PhaseData, error) {
	prof, err := workload.Lookup("gcc")
	if err != nil {
		return nil, err
	}
	phases := make([]econ.PhaseData, prof.NumPhases())
	for pi := range phases {
		g, err := r.GridPhase("gcc", pi, StdSlices, StdCaches)
		if err != nil {
			return nil, err
		}
		pd := econ.PhaseData{Insts: uint64(r.traceLen()), Cycles: econ.NewSurface(g.Lattice)}
		for x, ipc := range g.Values {
			pd.Cycles.Values[x] = float64(int64(float64(r.traceLen()) / ipc))
		}
		phases[pi] = pd
		if err := r.Save(); err != nil {
			return nil, err
		}
	}
	return phases, nil
}

// PhaseReconfigCost is the hypervisor's cost, in cycles, of moving a VCore
// from configuration a to b between phases.
func PhaseReconfigCost(a, b econ.Config) int64 {
	return hypervisor.ReconfigCost(a.CacheKB, b.CacheKB, a.Slices, b.Slices)
}

// Table7 runs the dynamic-vs-static analysis of the gcc phases for
// perf^k/area, k in 1..3, charging the hypervisor's reconfiguration costs.
func Table7(r *Runner) ([]PhaseTable, error) {
	phases, err := GCCPhases(r)
	if err != nil {
		return nil, err
	}
	var out []PhaseTable
	for k := 1; k <= 3; k++ {
		sched, err := econ.PhaseAnalysis(phases, k, PhaseReconfigCost)
		if err != nil {
			return nil, err
		}
		out = append(out, PhaseTable{K: k, Schedule: sched})
	}
	return out, nil
}

// ----------------------------------------------------------------------------
// Ablation — the second operand network (§5.1).

// AblationResult reports the speedup from doubling SON bandwidth.
type AblationResult struct {
	Bench   string
	Speedup float64
}

// AblationSecondOperandNetwork measures the performance effect of a second
// operand network (double per-port bandwidth) at a communication-heavy
// configuration. The paper reports only ~1% (§5.1), justifying a single SON.
func AblationSecondOperandNetwork(r *Runner, names []string) ([]AblationResult, float64, error) {
	if len(names) == 0 {
		names = workload.SingleThreaded()
	}
	cfg := econ.Config{Slices: 8, CacheKB: 512}
	var out []AblationResult
	var ratios []float64
	for _, b := range names {
		m1, err := r.MeasureOpNet(b, cfg, 1)
		if err != nil {
			return nil, 0, err
		}
		m2, err := r.MeasureOpNet(b, cfg, 2)
		if err != nil {
			return nil, 0, err
		}
		sp := float64(m1.Cycles) / float64(m2.Cycles)
		out = append(out, AblationResult{Bench: b, Speedup: sp})
		ratios = append(ratios, sp)
		if err := r.Save(); err != nil {
			return nil, 0, err
		}
	}
	return out, econ.GME(ratios), nil
}

// ----------------------------------------------------------------------------
// Rendering helpers.

// RenderSeries renders per-benchmark series as an aligned text table.
func RenderSeries(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// SortPairGains orders gains descending for reporting.
func SortPairGains(gs []econ.PairGain) {
	sort.Slice(gs, func(i, j int) bool { return gs[i].Gain > gs[j].Gain })
}
