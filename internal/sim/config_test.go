package sim

import (
	"reflect"
	"strings"
	"testing"

	"sharing/internal/noc"
)

// FuzzParseConfig: the XML machine-configuration decoder must never panic on
// hostile bytes; a decoded configuration either fails Params or yields
// parameters that pass Validate, keep the engine's in-flight bound within its
// 2048-slot flight ring, give both L1s a positive size, carry only widths
// a NoC port meter accepts and give the port meters a window of at least
// twice their horizon; and writing a
// decoded configuration back out with WriteConfig and parsing it again gives
// the same Params (or the same refusal).
func FuzzParseConfig(f *testing.F) {
	var sb strings.Builder
	if err := WriteConfig(&sb, DefaultXMLConfig()); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	f.Add(`<ssim><slices>4</slices><cacheKB>512</cacheKB><robPerSlice>32</robPerSlice><globalPredictor>1</globalPredictor></ssim>`)
	f.Add(`<ssim><slices>8</slices><robPerSlice>400</robPerSlice></ssim>`)
	f.Add(`<ssim><slices>8</slices><robPerSlice>2305843009213693952</robPerSlice></ssim>`)
	f.Add(`<ssim><l1SizeKB>9007199254740992</l1SizeKB><l1Ways>-1</l1Ways></ssim>`)
	f.Add(`<ssim><l1SizeKB>18014398509481988</l1SizeKB></ssim>`) // (2^54+4)<<10 wraps to 4 KB
	f.Add(`<ssim><cacheKB>-64</cacheKB><memoryDelay>-1</memoryDelay></ssim>`)
	f.Add("not xml")
	f.Add(`<ssim><operandNetWidth>70000</operandNetWidth></ssim>`) // beyond what a port meter counts
	f.Add(`<ssim><memoryDelay>1024</memoryDelay><l1HitDelay>1024</l1HitDelay></ssim>`)
	f.Add(`<ssim><memoryDelay>1025</memoryDelay></ssim>`)              // beyond the largest window's horizon
	f.Add(`<ssim><memoryDelay>34359738368</memoryDelay></ssim>`)       // 2^35: past the tag range
	f.Add(`<ssim><l1HitDelay>9223372036854775807</l1HitDelay></ssim>`) // the largest int64
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseConfig(strings.NewReader(text))
		if err != nil {
			return
		}
		p, perr := c.Params()
		if perr == nil {
			if err := p.Validate(); err != nil {
				t.Fatalf("Params returned parameters that fail Validate: %v", err)
			}
			v := p.VCore
			// Float arithmetic: an int product could wrap past the bound.
			if inflight := float64(v.NumSlices) * (float64(v.ROBPerSlice) + float64(v.InstBufEntries)); inflight > 2048 {
				t.Fatalf("accepted %d Slices x (ROB %d + buffer %d) = %.0f in flight; the flight ring holds 2048",
					v.NumSlices, v.ROBPerSlice, v.InstBufEntries, inflight)
			}
			if v.L1I.SizeBytes <= 0 || v.L1D.SizeBytes <= 0 {
				t.Fatalf("accepted L1 sizes %d/%d", v.L1I.SizeBytes, v.L1D.SizeBytes)
			}
			if c.L1SizeKB > 0 && v.L1D.SizeBytes>>10 != c.L1SizeKB {
				t.Fatalf("l1SizeKB %d became %d bytes", c.L1SizeKB, v.L1D.SizeBytes)
			}
			widths := []int{p.OperandNetWidth, p.SortNetWidth, p.MemNetWidth, p.BankPortWidth}
			if p.Mem.RequestsPerCycle > 0 {
				widths = append(widths, p.Mem.RequestsPerCycle)
			}
			for _, w := range widths {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("accepted width %d, which a port meter refuses: %v", w, r)
						}
					}()
					noc.NewMeter(w, p.meterWindow())
				}()
			}
			if h, w := p.meterHorizon(), p.meterWindow(); int64(w) < 2*h {
				t.Fatalf("accepted memory latency %d, L1 hit latency %d: the meters' %d-cycle window is under twice the %d-cycle horizon",
					p.Mem.Latency, p.VCore.L1HitLatency, w, h)
			}
		}
		var out strings.Builder
		if err := WriteConfig(&out, c); err != nil {
			t.Fatalf("WriteConfig of a decoded config: %v", err)
		}
		back, err := ParseConfig(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-parsing WriteConfig output: %v\n%s", err, out.String())
		}
		p2, perr2 := back.Params()
		if (perr == nil) != (perr2 == nil) || !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip changed Params:\n%+v (err %v)\n%+v (err %v)", p, perr, p2, perr2)
		}
	})
}
