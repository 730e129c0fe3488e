// Package vcore implements the Virtual Core: the Sharing Architecture's
// reconfigurable core composed of one or more Slices joined by switched
// on-chip networks (§3 of the paper).
//
// The Engine in this package is a cycle-level, trace-driven model of one
// VCore: address-interleaved fetch across Slices, distributed bimodal branch
// prediction with replicated BTB entries, two-step register rename with
// operand request/reply over the Scalar Operand Network, per-Slice dual
// issue windows, load/store sorting onto address-banked unordered LSQs with
// age tags and store->load violation detection, per-Slice L1 caches backed
// by an externally provided L2/memory system (the Uncore), and distributed
// in-order commit. It carries full value semantics so results can be checked
// against the functional reference interpreter.
package vcore

import (
	"fmt"

	"sharing/internal/cache"
)

// MaxSlices is the largest VCore the paper evaluates (Equation 3: 1..8).
const MaxSlices = 8

// Config holds the microarchitectural parameters of one VCore. Defaults
// follow Tables 2 and 3 of the paper.
type Config struct {
	// NumSlices is the number of Slices composed into this VCore (1..8).
	NumSlices int

	// FetchPerSlice is instructions fetched per Slice per cycle (2).
	FetchPerSlice int
	// InstBufEntries is the per-Slice fetched-instruction buffer depth.
	InstBufEntries int
	// RenamePerSlice is rename/dispatch bandwidth per Slice per cycle (2).
	RenamePerSlice int
	// IssueWindow is the per-Slice ALU-side issue window capacity (32).
	IssueWindow int
	// LSWindow is the per-Slice load/store issue window capacity (32).
	LSWindow int
	// LSQSize is the per-Slice address-banked LSQ capacity (32).
	LSQSize int
	// ROBPerSlice is the per-Slice reorder buffer partition (64).
	ROBPerSlice int
	// LRFPerSlice is the per-Slice local register file size (64).
	LRFPerSlice int
	// GlobalRegs is the global logical register space per VCore (128).
	GlobalRegs int
	// StoreBufEntries is the per-Slice post-commit store buffer (8).
	StoreBufEntries int
	// MSHRs is the per-Slice data-miss MSHR count (8 in-flight loads).
	MSHRs int
	// CommitPerSlice is commit bandwidth per Slice per cycle (2).
	CommitPerSlice int

	// PredictorEntries and BTBEntries size the per-Slice branch structures.
	PredictorEntries int
	BTBEntries       int
	// UseGShare replaces the per-Slice bimodal predictors with a VCore-wide
	// gshare whose Global History Register is composed across Slices over
	// the interconnect (§3.1's sketched extension). The visible history
	// lags by 2*(NumSlices-1) outcomes to model that communication delay.
	UseGShare bool
	// BTBMissBubble is the fetch bubble when a taken branch hits in the
	// predictor but misses in the BTB (front-end redirect at decode).
	BTBMissBubble int64
	// MispredictRedirect is the extra redirect delay after a branch
	// resolves as mispredicted (on top of natural pipeline refill).
	MispredictRedirect int64

	// RenameExtra is the additional rename pipeline depth when the VCore
	// has more than one Slice: the multi-stage global rename's master
	// broadcast and correction steps (§3.2.1).
	RenameExtra int64

	// L1I and L1D configure the per-Slice first-level caches. The paper's
	// L1I line is 8 bytes (two instructions, §3.5) with a next-line
	// prefetcher; L1D is 16 KB 2-way with 64 B lines.
	L1I cache.Config
	L1D cache.Config
	// L1HitLatency is the L1 access latency in cycles (Table 3: 3).
	L1HitLatency int64
	// ForwardLatency is store-to-load forwarding latency within an LSQ bank.
	ForwardLatency int64
}

// DefaultConfig returns the paper's base Slice configuration (Tables 2, 3)
// for a VCore of n Slices.
func DefaultConfig(n int) Config {
	return Config{
		NumSlices:          n,
		FetchPerSlice:      2,
		InstBufEntries:     12,
		RenamePerSlice:     2,
		IssueWindow:        32,
		LSWindow:           32,
		LSQSize:            32,
		ROBPerSlice:        64,
		LRFPerSlice:        64,
		GlobalRegs:         128,
		StoreBufEntries:    8,
		MSHRs:              8,
		CommitPerSlice:     2,
		PredictorEntries:   2048,
		BTBEntries:         512,
		BTBMissBubble:      2,
		MispredictRedirect: 1,
		RenameExtra:        2,
		L1I:                cache.Config{SizeBytes: 16 << 10, LineSize: 8, Ways: 2},
		L1D:                cache.Config{SizeBytes: 16 << 10, LineSize: 64, Ways: 2},
		L1HitLatency:       3,
		ForwardLatency:     1,
	}
}

// inflight is the bound on fetched, uncommitted instructions: every Slice's
// reorder buffer and instruction buffer full at once. Validate keeps each
// term within maxRing first, so the product cannot wrap.
func (c *Config) inflight() int { return c.NumSlices * (c.ROBPerSlice + c.InstBufEntries) }

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.NumSlices < 1 || c.NumSlices > MaxSlices {
		return fmt.Errorf("vcore: NumSlices %d outside [1,%d]", c.NumSlices, MaxSlices)
	}
	if c.FetchPerSlice < 1 || c.RenamePerSlice < 1 || c.CommitPerSlice < 1 {
		return fmt.Errorf("vcore: per-slice bandwidths must be >= 1")
	}
	if c.InstBufEntries < c.FetchPerSlice {
		return fmt.Errorf("vcore: instruction buffer (%d) smaller than fetch width (%d)", c.InstBufEntries, c.FetchPerSlice)
	}
	if c.IssueWindow < 1 || c.LSWindow < 1 || c.LSQSize < 1 || c.ROBPerSlice < 1 {
		return fmt.Errorf("vcore: window/queue sizes must be >= 1")
	}
	if c.ROBPerSlice > maxRing || c.InstBufEntries > maxRing || c.inflight() > maxRing {
		return fmt.Errorf("vcore: %d Slices x (ROB %d + instruction buffer %d) = %d instructions in flight exceeds the %d-entry flight ring",
			c.NumSlices, c.ROBPerSlice, c.InstBufEntries, c.inflight(), maxRing)
	}
	if c.LRFPerSlice < 1 || c.GlobalRegs < c.LRFPerSlice/2 {
		return fmt.Errorf("vcore: register file sizing invalid (LRF %d, global %d)", c.LRFPerSlice, c.GlobalRegs)
	}
	if c.StoreBufEntries < 1 || c.MSHRs < 1 {
		return fmt.Errorf("vcore: store buffer and MSHR counts must be >= 1")
	}
	if c.PredictorEntries <= 0 || c.PredictorEntries&(c.PredictorEntries-1) != 0 {
		return fmt.Errorf("vcore: predictor entries %d not a power of two", c.PredictorEntries)
	}
	if c.BTBEntries <= 0 || c.BTBEntries&(c.BTBEntries-1) != 0 {
		return fmt.Errorf("vcore: BTB entries %d not a power of two", c.BTBEntries)
	}
	if err := c.L1I.Validate(); err != nil {
		return fmt.Errorf("vcore: L1I: %w", err)
	}
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("vcore: L1D: %w", err)
	}
	if c.L1I.SizeBytes == 0 || c.L1D.SizeBytes == 0 {
		return fmt.Errorf("vcore: L1 caches must have non-zero size")
	}
	if c.L1HitLatency < 1 || c.ForwardLatency < 1 {
		return fmt.Errorf("vcore: latencies must be >= 1")
	}
	return nil
}
