package sim

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"

	"sharing/internal/vcore"
)

// XMLConfig is SSim's configuration file format. The paper: "SSim is very
// flexible, allowing all critical microarchitecture parameters and latencies
// to be set from a XML configuration file" (§5.2). Zero-valued fields take
// the paper's defaults (Tables 2 and 3).
type XMLConfig struct {
	XMLName xml.Name `xml:"ssim"`

	// Workload selection.
	Benchmark    string `xml:"benchmark"`
	Instructions int    `xml:"instructions"`
	Seed         int64  `xml:"seed"`

	// VCore shape.
	Slices  int `xml:"slices"`
	CacheKB int `xml:"cacheKB"`

	// Microarchitecture overrides.
	FetchPerSlice    int   `xml:"fetchPerSlice"`
	IssueWindow      int   `xml:"issueWindow"`
	LSQSize          int   `xml:"lsqSize"`
	ROBPerSlice      int   `xml:"robPerSlice"`
	LRFPerSlice      int   `xml:"lrfPerSlice"`
	GlobalRegs       int   `xml:"globalRegs"`
	StoreBufEntries  int   `xml:"storeBuffer"`
	MSHRs            int   `xml:"maxInflightLoads"`
	PredictorEntries int   `xml:"predictorEntries"`
	BTBEntries       int   `xml:"btbEntries"`
	L1SizeKB         int   `xml:"l1SizeKB"`
	L1Ways           int   `xml:"l1Ways"`
	L1HitDelay       int64 `xml:"l1HitDelay"`
	MemoryDelay      int64 `xml:"memoryDelay"`
	OperandNetWidth  int   `xml:"operandNetWidth"`
	GlobalPredictor  bool  `xml:"globalPredictor"`
}

// ParseConfig reads an XMLConfig.
func ParseConfig(r io.Reader) (*XMLConfig, error) {
	var c XMLConfig
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("sim: parsing config: %w", err)
	}
	return &c, nil
}

// WriteConfig serializes a config (used by `ssim -dump-config`).
func WriteConfig(w io.Writer, c *XMLConfig) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(c); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// DefaultXMLConfig returns the paper's base configuration.
func DefaultXMLConfig() *XMLConfig {
	d := vcore.DefaultConfig(2)
	p := DefaultParams(2, 128)
	return &XMLConfig{
		Benchmark:    "gcc",
		Instructions: 200000,
		Seed:         1,
		Slices:       2,
		CacheKB:      128,

		FetchPerSlice:    d.FetchPerSlice,
		IssueWindow:      d.IssueWindow,
		LSQSize:          d.LSQSize,
		ROBPerSlice:      d.ROBPerSlice,
		LRFPerSlice:      d.LRFPerSlice,
		GlobalRegs:       d.GlobalRegs,
		StoreBufEntries:  d.StoreBufEntries,
		MSHRs:            d.MSHRs,
		PredictorEntries: d.PredictorEntries,
		BTBEntries:       d.BTBEntries,
		L1SizeKB:         d.L1D.SizeBytes >> 10,
		L1Ways:           d.L1D.Ways,
		L1HitDelay:       d.L1HitLatency,
		MemoryDelay:      p.Mem.Latency,
		OperandNetWidth:  p.OperandNetWidth,
	}
}

// Params converts the XML configuration into simulation parameters,
// applying defaults for unset fields.
func (c *XMLConfig) Params() (Params, error) {
	slices := c.Slices
	if slices == 0 {
		slices = 1
	}
	p := DefaultParams(slices, c.CacheKB)
	v := &p.VCore
	setI := func(dst *int, v int) {
		if v > 0 {
			*dst = v
		}
	}
	setI(&v.FetchPerSlice, c.FetchPerSlice)
	setI(&v.IssueWindow, c.IssueWindow)
	setI(&v.LSWindow, c.LSQSize)
	setI(&v.LSQSize, c.LSQSize)
	setI(&v.ROBPerSlice, c.ROBPerSlice)
	setI(&v.LRFPerSlice, c.LRFPerSlice)
	setI(&v.GlobalRegs, c.GlobalRegs)
	setI(&v.StoreBufEntries, c.StoreBufEntries)
	setI(&v.MSHRs, c.MSHRs)
	setI(&v.PredictorEntries, c.PredictorEntries)
	setI(&v.BTBEntries, c.BTBEntries)
	if c.L1SizeKB > math.MaxInt>>10 {
		return Params{}, fmt.Errorf("sim: l1SizeKB %d overflows a byte count", c.L1SizeKB)
	}
	if c.L1SizeKB > 0 {
		v.L1I.SizeBytes = c.L1SizeKB << 10
		v.L1D.SizeBytes = c.L1SizeKB << 10
	}
	if c.L1Ways > 0 {
		v.L1I.Ways = c.L1Ways
		v.L1D.Ways = c.L1Ways
	}
	if c.L1HitDelay > 0 {
		v.L1HitLatency = c.L1HitDelay
	}
	if c.MemoryDelay > 0 {
		p.Mem.Latency = c.MemoryDelay
	}
	setI(&p.OperandNetWidth, c.OperandNetWidth)
	v.UseGShare = c.GlobalPredictor
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}
