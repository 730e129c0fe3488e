package distrib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sharing/internal/trace"
)

// The procpool tests re-exec this test binary as a fake worker: TestMain
// diverts into fakeWorkerMain when the marker env var is set, serving the
// SREQ/SRES loop with a synthetic, instant "simulation" (a pure function of
// the request fields), optionally crashing after N requests to exercise the
// restart path.
const (
	fakeWorkerEnv = "DISTRIB_FAKE_WORKER"
	fakeCrashEnv  = "DISTRIB_FAKE_CRASH_AFTER"
)

func TestMain(m *testing.M) {
	if os.Getenv(fakeWorkerEnv) == "1" {
		fakeWorkerMain()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func fakeWorkerMain() {
	crashAfter, _ := strconv.Atoi(os.Getenv(fakeCrashEnv))
	br := bufio.NewReader(os.Stdin)
	bw := bufio.NewWriter(os.Stdout)
	served := 0
	for {
		req, err := trace.ReadRequest(br)
		if err == io.EOF {
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fake worker:", err)
			os.Exit(1)
		}
		if crashAfter > 0 && served >= crashAfter {
			os.Exit(3) // simulated crash, mid-stream
		}
		served++
		if err := trace.WriteResult(bw, fakeResult(req)); err != nil {
			os.Exit(1)
		}
		if err := bw.Flush(); err != nil {
			os.Exit(1)
		}
	}
}

// fakeResult is the synthetic simulator: deterministic in the request, so
// the tests can verify results end-to-end without running SSim.
func fakeResult(req trace.SimRequest) trace.SimResult {
	if req.Bench == "boom" {
		return trace.SimResult{ID: req.ID, Err: "synthetic simulation failure"}
	}
	return trace.SimResult{
		ID:     req.ID,
		Cycles: int64(req.Slices*100_000 + req.CacheKB + req.Quantum),
		Insts:  uint64(req.TraceLen),
	}
}

func fakePool(t testing.TB, shards int, extraEnv ...string) *Procpool {
	t.Helper()
	b, err := NewProcpool(ProcpoolParams{
		Shards:    shards,
		WorkerCmd: []string{os.Args[0]},
		Env:       append([]string{fakeWorkerEnv + "=1"}, extraEnv...),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func testRequest(i int) trace.SimRequest {
	return trace.SimRequest{
		Bench:    "synth",
		Phase:    -1,
		Slices:   1 + i%8,
		CacheKB:  64 * (i % 5),
		TraceLen: 1000 + i,
		Seed:     7,
	}
}

func TestInprocRunsAndBounds(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	gate := make(chan struct{})
	b := NewInproc(2, func(req trace.SimRequest) (trace.SimResult, error) {
		mu.Lock()
		inflight++
		if inflight > peak {
			peak = inflight
		}
		mu.Unlock()
		<-gate
		mu.Lock()
		inflight--
		mu.Unlock()
		return fakeResult(req), nil
	})
	defer b.Close()
	const n = 8
	var wg sync.WaitGroup
	results := make([]trace.SimResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := b.Execute(testRequest(i))
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < n; i++ {
		want := fakeResult(testRequest(i))
		want.ID = results[i].ID
		if results[i] != want {
			t.Fatalf("request %d: got %+v want %+v", i, results[i], want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("inproc pool ran %d simulations at once, bound is 2", peak)
	}
}

func TestProcpoolExecutes(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		b := fakePool(t, shards)
		const n = 24
		var wg sync.WaitGroup
		errs := make([]error, n)
		results := make([]trace.SimResult, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = b.Execute(testRequest(i))
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("shards=%d request %d: %v", shards, i, errs[i])
			}
			want := fakeResult(testRequest(i))
			want.ID = results[i].ID
			if results[i] != want {
				t.Fatalf("shards=%d request %d: got %+v want %+v", shards, i, results[i], want)
			}
		}
	}
}

// TestProcpoolWorkerCrashRestart kills every worker after it serves three
// requests; the pool must restart workers and redispatch the victims until
// the whole batch completes with correct results.
func TestProcpoolWorkerCrashRestart(t *testing.T) {
	b := fakePool(t, 2, fakeCrashEnv+"=3")
	// Swallow the expected crash diagnostics.
	b.p.Stderr = io.Discard
	const n = 20
	for i := 0; i < n; i++ {
		res, err := b.Execute(testRequest(i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want := fakeResult(testRequest(i))
		want.ID = res.ID
		if res != want {
			t.Fatalf("request %d after restarts: got %+v want %+v", i, res, want)
		}
	}
}

// TestProcpoolSimErrorNotRetried: a deterministic simulation failure must
// come back as an in-band SimResult.Err without burning restart retries or
// killing the worker.
func TestProcpoolSimErrorNotRetried(t *testing.T) {
	b := fakePool(t, 1)
	req := testRequest(0)
	req.Bench = "boom"
	res, err := b.Execute(req)
	if err != nil {
		t.Fatalf("sim-level failure surfaced as transport error: %v", err)
	}
	if !strings.Contains(res.Err, "synthetic simulation failure") {
		t.Fatalf("res.Err = %q", res.Err)
	}
	// The worker survived: the next request runs on the same process.
	ok, err := b.Execute(testRequest(1))
	if err != nil || ok.Err != "" {
		t.Fatalf("worker did not survive sim error: %v %+v", err, ok)
	}
}

func TestProcpoolUnstartableWorkerFailsRequest(t *testing.T) {
	b, err := NewProcpool(ProcpoolParams{
		Shards:    1,
		WorkerCmd: []string{filepath.Join(t.TempDir(), "no-such-binary")},
		Stderr:    io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Execute(testRequest(0)); err == nil {
		t.Fatal("unstartable worker produced a result")
	}
}

func TestProcpoolCloseRejects(t *testing.T) {
	b := fakePool(t, 1)
	if _, err := b.Execute(testRequest(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(testRequest(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Execute after Close: %v", err)
	}
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.json.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Cycles int64 `json:"cycles"`
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(fmt.Sprintf("key%d", i), m{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	n, err := ReplayJournal(path, func(k string, raw json.RawMessage) {
		var v m
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		got[k] = v.Cycles
	})
	if err != nil || n != 5 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	for i := 0; i < 5; i++ {
		if got[fmt.Sprintf("key%d", i)] != int64(i) {
			t.Fatalf("replayed %v", got)
		}
	}
}

// TestJournalTornTail: a kill mid-append leaves a partial last line; replay
// must recover the complete prefix and ignore the tail.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.json.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(fmt.Sprintf("key%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	torn := raw[:len(raw)-len(`":2}`)-1]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayJournal(path, func(string, json.RawMessage) {})
	if err != nil || n != 2 {
		t.Fatalf("torn-tail replay: n=%d err=%v (want 2, nil)", n, err)
	}
}

func TestJournalMissingFile(t *testing.T) {
	n, err := ReplayJournal(filepath.Join(t.TempDir(), "absent.wal"), func(string, json.RawMessage) {
		t.Fatal("callback on missing journal")
	})
	if n != 0 || err != nil {
		t.Fatalf("missing journal: n=%d err=%v", n, err)
	}
}

func TestJournalResetAfterSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.json.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", 2); err != nil {
		t.Fatal(err)
	}
	keys := []string{}
	if _, err := ReplayJournal(path, func(k string, _ json.RawMessage) { keys = append(keys, k) }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "b" {
		t.Fatalf("post-reset journal replays %v", keys)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "file.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

// BenchmarkProcpoolDispatch measures the full per-request dispatch overhead
// of the procpool backend — frame encode, pipe write, worker decode,
// (instant) fake simulation, result frame back — i.e. everything the
// multi-process backend adds on top of the simulation itself:
// go test ./internal/distrib -run '^$' -bench BenchmarkProcpoolDispatch.
func BenchmarkProcpoolDispatch(b *testing.B) {
	pool := fakePool(b, 1)
	// Warm up: force the lazy worker start out of the timed region.
	if _, err := pool.Execute(testRequest(0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Execute(testRequest(i)); err != nil {
			b.Fatal(err)
		}
	}
}
