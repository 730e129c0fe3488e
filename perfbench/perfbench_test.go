package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// sharingdBin is the daemon built once for the smoke tests.
var sharingdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sharingdBin = filepath.Join(dir, "sharingd")
	build := exec.Command("go", "build", "-o", sharingdBin, "sharing/cmd/sharingd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build sharingd:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n       int
		pct, v  float64
		hasTail bool
	}{
		{n: 2000, pct: 99, v: 1980, hasTail: true}, // 20 samples beyond p99
		{n: 1100, pct: 99, v: 1089, hasTail: true}, // exactly 11 beyond
		{n: 1000, pct: 99, v: 990, hasTail: true},  // exactly 10 beyond
		{n: 500, pct: 98, v: 490, hasTail: true},   // p99 would leave 5 beyond
		{n: 20, pct: 50, v: 10, hasTail: true},
		{n: 11, pct: 100.0 / 11, v: 1, hasTail: true},
		{n: 10, hasTail: false},
		{n: 0, hasTail: false},
	} {
		pct, v, ok := tailOf(seq(tc.n), 0.99)
		if ok != tc.hasTail || (ok && (pct != tc.pct || v != tc.v)) {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, pct, v, ok, tc.pct, tc.v, tc.hasTail)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, pct, beyond)
			}
		}
	}
	if d := summarize([]float64{5, 1, 3}); d.p50 != 3 || d.hasTail {
		t.Errorf("summarize: %+v", d)
	}
}

// TestDueTimeLatency: one connection, a request due every millisecond,
// each taking 4 ms. Request i is due at i ms but cannot start before the
// previous ones finish at about 4i ms, so its latency from the due time is
// at least 3i+4 ms although its own service time is only 4 ms.
func TestDueTimeLatency(t *testing.T) {
	const n, service = 10, 4 * time.Millisecond
	start := time.Now().Add(time.Millisecond)
	ss := openLoop(start, n, 1000, 1, func(int) error {
		time.Sleep(service)
		return nil
	})
	for i, s := range ss {
		if want := start.Add(time.Duration(i) * time.Millisecond); !s.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, s.due.Sub(start), want.Sub(start))
		}
		if s.sent.Before(s.due) {
			t.Errorf("request %d sent %v before it was due", i, s.due.Sub(s.sent))
		}
		if min := time.Duration(3*i)*time.Millisecond + service; s.latency() < min {
			t.Errorf("request %d: latency %v below %v", i, s.latency(), min)
		}
		if i > 0 && s.lateness() < time.Duration(3*i)*time.Millisecond {
			t.Errorf("request %d: lateness %v, want at least %dms", i, s.lateness(), 3*i)
		}
	}
	st := account(ss)
	if st.sent != n || st.ok != n || st.failed != 0 || st.latency.n != n {
		t.Errorf("account: %+v", st)
	}
}

// TestSmoke runs every workload, and the traced run, on a short window
// and checks that each prints every metric BENCHMARK.json declares, in its
// unit, with no failed operation. serve-bid is not declared (NOTES.md) but
// must keep working.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json declares workload %s, the benchmark has none", w.Name)
		}
	}
	// Every workload, declared or not, and one traced run.
	type run struct {
		workload string
		traced   bool
	}
	var runs []run
	for name := range workloads {
		runs = append(runs, run{workload: name})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].workload < runs[j].workload })
	runs = append(runs, run{workload: decl.Workloads[0].Name, traced: true})
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s/trace=%v", r.workload, r.traced), func(t *testing.T) {
			b := &bench{seed: 7, window: time.Second, sharingd: sharingdBin, metrics: map[string]metric{}}
			out, err := measure(b, r.workload, r.traced)
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed != 0 || !out.Correct || out.Attempted < 1 {
				t.Errorf("failed_frac = %d/%d, correct=%v", out.Failed, out.Attempted, out.Correct)
			}
			want := decl.EndToEnd
			if r.traced {
				want = decl.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(out.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := out.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v, declared unit %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}
