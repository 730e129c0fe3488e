package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples a reported tail percentile must have
// beyond it; with fewer the estimate is a handful of outliers.
const minBeyond = 10

// dist summarizes a latency sample: its size, median and the highest
// percentile (up to p99) that has at least minBeyond samples beyond it.
type dist struct {
	n       int
	p50     float64
	tail    float64 // value at tailPct; valid when hasTail
	tailPct float64 // e.g. 99 for p99
	hasTail bool
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{n: len(s)}
	if len(s) == 0 {
		return d
	}
	d.p50 = s[rank(len(s), 0.50)]
	d.tailPct, d.tail, d.hasTail = tailOf(s, 0.99)
	return d
}

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// tailOf returns the highest percentile no greater than want (a quantile in
// (0,1)) whose nearest-rank sample has at least minBeyond samples above it
// in sorted, with that sample. ok is false when there are too few samples
// for any percentile to qualify.
func tailOf(sorted []float64, want float64) (pct, v float64, ok bool) {
	n := len(sorted)
	k := rank(n, want)
	if max := n - 1 - minBeyond; k > max {
		k = max
	}
	if k < 0 {
		return 0, 0, false
	}
	return 100 * float64(k+1) / float64(n), sorted[k], true
}

// String renders the summary with its sample count, values in unit.
func (d dist) String(unit string) string {
	if d.n == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%.4g%s", d.n, d.p50, unit)
	if d.hasTail {
		s += fmt.Sprintf(" p%.4g=%.4g%s", d.tailPct, d.tail, unit)
	} else {
		s += fmt.Sprintf(" (no tail percentile: fewer than %d samples)", minBeyond+1)
	}
	return s
}

func median(xs []float64) float64 { return summarize(xs).p50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// vmHWM returns the peak resident set size of a process in MB, read from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for process %s", pid)
}

// cpuTime returns a process's user+system CPU time from /proc/<pid>/stat.
// The kernel reports it in clock ticks of 1/100 s on Linux.
func cpuTime(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
