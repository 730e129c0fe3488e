// Package mem models main memory behind the L2: a fixed-latency (100-cycle,
// Table 2), bandwidth-limited channel shared by all requesters on the chip.
package mem

import "sharing/internal/noc"

// Config describes the memory channel.
type Config struct {
	// Latency is the access latency in cycles (paper: 100).
	Latency int64
	// RequestsPerCycle bounds channel throughput. Zero means unlimited.
	RequestsPerCycle int
}

// DefaultConfig matches Table 2 of the paper with a generous channel.
func DefaultConfig() Config { return Config{Latency: 100, RequestsPerCycle: 4} }

// Memory models the channel. It hands out completion times for requests,
// serializing them when the per-cycle request budget is exhausted.
type Memory struct {
	cfg   Config
	meter *noc.Meter

	// Reads and Writes count accepted requests.
	Reads, Writes uint64
}

// New builds a memory channel whose bandwidth meter spans window cycles
// (see noc.WindowFor).
func New(cfg Config, window int) *Memory {
	m := &Memory{cfg: cfg}
	if cfg.RequestsPerCycle > 0 {
		m.meter = noc.NewMeter(cfg.RequestsPerCycle, window)
	}
	return m
}

// Aliased returns the channel meter's alias count (noc.Meter.Aliased), 0
// for an unlimited channel.
func (m *Memory) Aliased() uint64 {
	if m.meter == nil {
		return 0
	}
	return m.meter.Aliased()
}

// Access schedules a request issued at cycle now and returns its completion
// cycle. Writes (writebacks) consume bandwidth but callers usually do not
// wait on the returned time.
func (m *Memory) Access(now int64, write bool) int64 {
	if write {
		m.Writes++
	} else {
		m.Reads++
	}
	start := now
	if m.meter != nil {
		start = m.meter.Reserve(now)
	}
	return start + m.cfg.Latency
}
