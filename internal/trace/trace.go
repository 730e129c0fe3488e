// Package trace defines the dynamic-instruction trace containers that the
// workload generator (internal/workload) fills and the simulator consumes,
// and the SimRequest/SimResult pair that names one simulation and its
// outcome.
//
// The paper's SSim is driven by full-system traces produced by GEM5; here a
// trace is a pure function of (benchmark, phase, length, seed), regenerated
// wherever it is needed and never stored.
package trace

import (
	"fmt"
	"sync"

	"sharing/internal/isa"
)

// Trace is the dynamic instruction stream of one hardware thread.
type Trace struct {
	// Name identifies the workload (e.g. "gcc", "omnetpp.phase3").
	Name string
	// Insts is the dynamic instruction sequence in fetch order.
	Insts []isa.Inst

	depsOnce     sync.Once
	deps1, deps2 []int32
}

// Deps returns, for every instruction, the index of the instruction producing
// each register source (-1 = initial register value, or the source is r0).
// This is exactly the true-dependence information a renamer would discover;
// it is a pure function of the instruction sequence, so it is computed once
// on first use and shared by every simulation of the trace — sweeps re-run
// the same trace under many machine configurations and must not pay the
// O(len) scan per run. Callers must treat the returned slices as read-only.
// Safe for concurrent use.
func (t *Trace) Deps() (deps1, deps2 []int32) {
	t.depsOnce.Do(t.computeDeps)
	return t.deps1, t.deps2
}

func (t *Trace) computeDeps() {
	n := len(t.Insts)
	t.deps1 = make([]int32, n)
	t.deps2 = make([]int32, n)
	var last [isa.NumArchRegs]int32
	for r := range last {
		last[r] = -1
	}
	for i := 0; i < n; i++ {
		in := &t.Insts[i]
		t.deps1[i], t.deps2[i] = -1, -1
		if in.Op.NumSrc() >= 1 && in.Src1 != isa.Zero {
			t.deps1[i] = last[in.Src1]
		}
		if in.Op.NumSrc() >= 2 && in.Src2 != isa.Zero {
			t.deps2[i] = last[in.Src2]
		}
		if in.Op.HasDest() && in.Dest != isa.Zero {
			last[in.Dest] = int32(i) //ssim:nolint cyclemath: vcore.New rejects traces longer than MaxInt32
		}
	}
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Insts) }

// MultiTrace is a set of per-thread traces belonging to one workload
// (e.g. a 4-thread PARSEC run). Thread 0 is the main thread.
type MultiTrace struct {
	Name    string
	Threads []*Trace
	// Barriers lists instruction indices (per thread, same length across
	// threads) at which all threads must synchronize; used by multi-VCore
	// simulations to pace threads like pthread barriers. Optional.
	Barriers []BarrierSet
}

// BarrierSet gives, for each thread, the instruction index that must retire
// before any thread proceeds past the barrier.
type BarrierSet struct {
	// At[i] is the instruction index in thread i at which thread i waits.
	At []int
}

// Validate checks structural invariants of a multi-thread trace.
func (m *MultiTrace) Validate() error {
	if len(m.Threads) == 0 {
		return fmt.Errorf("trace: %q has no threads", m.Name)
	}
	for i, t := range m.Threads {
		if t == nil {
			return fmt.Errorf("trace: %q thread %d is nil", m.Name, i)
		}
	}
	for bi, b := range m.Barriers {
		if len(b.At) != len(m.Threads) {
			return fmt.Errorf("trace: %q barrier %d has %d entries for %d threads", m.Name, bi, len(b.At), len(m.Threads))
		}
		for ti, at := range b.At {
			if at < 0 || at > m.Threads[ti].Len() {
				return fmt.Errorf("trace: %q barrier %d thread %d index %d out of range [0,%d]", m.Name, bi, ti, at, m.Threads[ti].Len())
			}
			if bi > 0 && at < m.Barriers[bi-1].At[ti] {
				return fmt.Errorf("trace: %q barrier %d thread %d index %d precedes previous barrier", m.Name, bi, ti, at)
			}
		}
	}
	return nil
}

// Single wraps a single-thread trace as a MultiTrace.
func Single(t *Trace) *MultiTrace {
	return &MultiTrace{Name: t.Name, Threads: []*Trace{t}}
}

// SimRequest names one simulation: the full content-addressed key of a
// measurement, with no host-specific state.
type SimRequest struct {
	// ID is a correlation id a backend may echo in its result; the
	// experiments runner leaves it zero.
	ID       uint64
	Bench    string
	Phase    int // -1 = whole benchmark
	Slices   int
	CacheKB  int
	TraceLen int
	Seed     int64
	OpNetW   int
	Quantum  int
}

// SimResult is one simulation outcome.
type SimResult struct {
	ID uint64
	// Err carries a simulation-level failure (e.g. unknown benchmark)
	// reported by a backend in-band rather than as an Execute error.
	Err    string
	Cycles int64
	Insts  uint64
}

// Stats summarizes the static mix of a trace; used by tests and by
// cmd/tracegen, which prints it to sanity check generated workloads.
type Stats struct {
	Total      int
	ALU        int
	Mul        int
	Div        int
	Loads      int
	Stores     int
	Branches   int
	Taken      int
	UniquePCs  int
	UniqueLine int // unique 64B cache lines touched by loads/stores
}

// Measure computes Stats for t.
func Measure(t *Trace) Stats {
	var s Stats
	pcs := make(map[uint64]struct{})
	lines := make(map[uint64]struct{})
	for _, in := range t.Insts {
		s.Total++
		pcs[in.PC] = struct{}{}
		switch in.Op.Class() {
		case isa.ClassALU:
			s.ALU++
		case isa.ClassMul:
			s.Mul++
		case isa.ClassDiv:
			s.Div++
		case isa.ClassLoad:
			s.Loads++
			lines[in.Addr>>6] = struct{}{}
		case isa.ClassStore:
			s.Stores++
			lines[in.Addr>>6] = struct{}{}
		case isa.ClassBranch:
			s.Branches++
			if in.Taken {
				s.Taken++
			}
		}
	}
	s.UniquePCs = len(pcs)
	s.UniqueLine = len(lines)
	return s
}

// String renders a one-line summary of the stats.
func (s Stats) String() string {
	pct := func(n int) float64 {
		if s.Total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(s.Total)
	}
	return fmt.Sprintf("n=%d alu=%.1f%% mul=%.1f%% ld=%.1f%% st=%.1f%% br=%.1f%% (taken %.1f%%) pcs=%d lines=%d",
		s.Total, pct(s.ALU), pct(s.Mul), pct(s.Loads), pct(s.Stores), pct(s.Branches), pct(s.Taken), s.UniquePCs, s.UniqueLine)
}
