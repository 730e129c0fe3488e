package experiments

import (
	"fmt"
	"testing"
)

// TestCalibrationShapes verifies the qualitative behaviours the paper
// reports, at a reduced (but still meaningful) trace length. Run with
// -short to skip.
func TestCalibrationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	r := NewRunner()
	r.TraceLen = 300000
	r.Seed = 5

	curve := func(b string, slices []int, caches []int) []float64 {
		g, err := r.Grid(b, slices, caches)
		if err != nil {
			t.Fatal(err)
		}
		// One axis has a single value, so the index order walks the other.
		var out []float64
		for _, p := range g.Values {
			out = append(out, p/g.Values[0])
		}
		return out
	}
	caches := []int{0, 64, 256, 1024, 2048, 4096}
	om := curve("omnetpp", []int{2}, caches)
	lq := curve("libquantum", []int{2}, caches)
	as := curve("astar", []int{2}, caches)
	t.Logf("omnetpp cache: %v", fmtv(om))
	t.Logf("libquantum cache: %v", fmtv(lq))
	t.Logf("astar cache: %v", fmtv(as))
	omPeak := om[3]
	for _, v := range om[3:] {
		if v > omPeak {
			omPeak = v
		}
	}
	if omPeak < 1.40 {
		t.Errorf("omnetpp should be strongly cache sensitive, got %.2f at peak", omPeak)
	}
	if lq[len(lq)-1] > 1.25 || as[len(as)-1] > 1.35 {
		t.Errorf("libquantum/astar should be cache insensitive: %.2f/%.2f", lq[len(lq)-1], as[len(as)-1])
	}
	if omPeak < lq[len(lq)-1]+0.5 {
		t.Errorf("omnetpp (%.2f) must be far more sensitive than libquantum (%.2f)", omPeak, lq[len(lq)-1])
	}

	slices := []int{1, 2, 4, 8}
	gb := curve("gobmk", slices, []int{128})
	hm := curve("hmmer", slices, []int{128})
	t.Logf("gobmk slices: %v", fmtv(gb))
	t.Logf("hmmer slices: %v", fmtv(hm))
	if gb[2] < 1.4 {
		t.Errorf("gobmk should scale with Slices, got %.2f at 4", gb[2])
	}
	if hm[3] > gb[3] {
		t.Errorf("hmmer (%.2f) must scale worse than gobmk (%.2f)", hm[3], gb[3])
	}

	// PARSEC: intra-VCore speedup bounded near 2 (paper §5.3).
	dd := curve("swaptions", slices, []int{128})
	t.Logf("swaptions slices: %v", fmtv(dd))
	if dd[3] > 2.6 {
		t.Errorf("PARSEC slice speedup %.2f should be bounded near 2", dd[3])
	}
}

func fmtv(xs []float64) string {
	s := ""
	for _, x := range xs {
		s += fmt.Sprintf("%.2f ", x)
	}
	return s
}
