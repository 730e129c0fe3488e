package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/fleet"
	"sharing/internal/market"
)

// The daemon tests drive the real sharingd binary: TestMain re-execs this
// test binary with runMainEnv set, which runs sharingd's main() on the
// scripted flags — the same pattern as cmd/sweep.
const runMainEnv = "SHARINGD_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func sharingdCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// startDaemon launches sharingd on a kernel-assigned loopback port and
// returns the base URL once the listening line appears on stderr, plus a
// function that delivers SIGINT and collects (exit error, full stderr).
// The daemon is killed and reaped when the test ends, so a test that fails
// before calling stop leaves no process behind.
func startDaemon(t *testing.T, args ...string) (string, func() (error, string)) {
	t.Helper()
	cmd := sharingdCmd(append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitOnce sync.Once
	var waitErr error
	wait := func() error {
		waitOnce.Do(func() { waitErr = cmd.Wait() })
		return waitErr
	}
	t.Cleanup(func() {
		cmd.Process.Kill() // fails harmlessly once the daemon has exited
		wait()
	})

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()

	var tail strings.Builder
	var base string
	deadline := time.After(30 * time.Second)
	for base == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				wait()
				t.Fatalf("sharingd exited before listening; stderr:\n%s", tail.String())
			}
			fmt.Fprintln(&tail, line)
			if rest, found := strings.CutPrefix(line, "sharingd: listening on "); found {
				base = "http://" + strings.TrimSpace(rest)
			}
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("sharingd never printed its listening line; stderr:\n%s", tail.String())
		}
	}

	stop := func() (error, string) {
		cmd.Process.Signal(os.Interrupt)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					// Wait closes the stderr pipe once the daemon exits, so
					// it runs only after the scanner has read to EOF: called
					// earlier, it can drop the last lines unread.
					return wait(), tail.String()
				}
				fmt.Fprintln(&tail, line)
			case <-time.After(60 * time.Second):
				cmd.Process.Kill()
				return fmt.Errorf("drain timed out"), tail.String()
			}
		}
	}
	return base, stop
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, body)
	}
}

// post sends v and decodes a 200 reply into out; a non-200 status is
// returned as an error with the server's message.
func post(url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// TestDaemonEndpointsAndDrain boots a synthetic-surface daemon, walks every
// endpoint over real HTTP — checking the served bid against an in-test
// sequential allocator pricing the same request over the same closed-form
// surfaces — then SIGINTs it and verifies the graceful drain: the drain
// banner, the final op accounting line, and a zero exit.
func TestDaemonEndpointsAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the daemon in a subprocess")
	}
	base, stop := startDaemon(t, "-synthetic")

	// Liveness first.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	// A served bid must match a from-scratch sequential pricing of the same
	// request in THIS process — same closed-form surfaces, same lattice and
	// supply defaults as main(), crossing a process and JSON boundary.
	u := econ.Utility2()
	m := econ.Market2()
	ref, err := alloc.New(alloc.Params{
		Slices: experiments.StdSlices, CacheKB: experiments.StdCaches,
		Supply: econ.Supply{Slices: 64, Banks: 128},
	}, fleet.SyntheticProber{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.PriceBid("smoke-bench", u, m)
	if err != nil {
		t.Fatal(err)
	}
	var br market.BidResult
	if err := post(base+"/v1/bid", bidRequest{
		Bench: "smoke-bench", K: u.K, Budget: u.Budget,
		Market: &marketSpec{Name: m.Name},
	}, &br); err != nil {
		t.Fatal(err)
	}
	if got := alloc.NormalizeBid(br); !reflect.DeepEqual(got, alloc.NormalizeBid(want)) {
		t.Fatalf("served bid diverged from sequential reference:\n got %+v\nwant %+v", got, want)
	}

	// Membership lifecycle: arrive → vm → phase → market → depart.
	var rc receiptReply
	if err := post(base+"/v1/arrive", arriveRequest{Name: "vm1", Bench: "smoke-bench", K: u.K, Budget: u.Budget}, &rc); err != nil {
		t.Fatal(err)
	}
	if rc.Seq != 1 || rc.Epoch != 1 || rc.Residents != 1 || rc.Allocation == nil {
		t.Fatalf("arrive receipt: %+v", rc)
	}
	var vm alloc.VMStat
	getJSON(t, base+"/v1/vm?name=vm1", &vm)
	if vm.Name != "vm1" || vm.Bench != "smoke-bench" {
		t.Fatalf("vm snapshot: %+v", vm)
	}
	if err := post(base+"/v1/phase", phaseRequest{Name: "vm1", Phase: 1}, &rc); err != nil {
		t.Fatal(err)
	}
	if rc.Seq != 2 || rc.Reconfig == nil {
		t.Fatalf("phase receipt (reconfig plan expected for a warm VM): %+v", rc)
	}
	var mkt marketReply
	getJSON(t, base+"/v1/market", &mkt)
	// One resident almost always gaps, so the check is that nothing is
	// oversold and the binding resource sells out (daemon supply 64/128).
	if mkt.Epoch != 2 || len(mkt.VMs) != 1 || mkt.TotalU <= 0 ||
		mkt.SliceDemand > 64*(1+1e-12) || mkt.BankDemand > 128*(1+1e-12) ||
		math.Max(mkt.SliceDemand/64, mkt.BankDemand/128) < 1-1e-12 {
		t.Fatalf("market snapshot: %+v", mkt)
	}
	if err := post(base+"/v1/depart", nameRequest{Name: "vm1"}, &rc); err != nil {
		t.Fatal(err)
	}
	if rc.Seq != 3 || rc.Residents != 0 {
		t.Fatalf("depart receipt: %+v", rc)
	}

	// Error contract: malformed and unknown requests are clean JSON errors,
	// not 500s, and land in the error counter.
	if err := post(base+"/v1/depart", nameRequest{Name: "ghost"}, nil); err == nil || !strings.Contains(err.Error(), "422") {
		t.Fatalf("ghost depart: want 422, got %v", err)
	}
	if err := post(base+"/v1/bid", map[string]any{"bench": "x", "bogus": 1}, nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown field: want 400, got %v", err)
	}
	if resp, err := http.Get(base + "/v1/vm?name=ghost"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost vm: want 404, got %v %v", resp.Status, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Telemetry: per-endpoint counters and allocator stats over /v1/stats,
	// and the same data on the expvar page.
	var st statsReply
	getJSON(t, base+"/v1/stats", &st)
	if st.HTTP["bid"] < 2 || st.HTTP["arrive"] != 1 || st.HTTP["errors"] < 3 {
		t.Fatalf("http counters: %+v", st.HTTP)
	}
	if st.Alloc.Epochs != 3 || st.Alloc.Ops != 3 || st.Alloc.Bids < 1 {
		t.Fatalf("alloc stats: %+v", st.Alloc)
	}
	var vars struct {
		Sharingd *statsReply `json:"sharingd"`
	}
	getJSON(t, base+"/debug/vars", &vars)
	if vars.Sharingd == nil || vars.Sharingd.HTTP["bid"] < 2 {
		t.Fatalf("expvar page missing sharingd var: %+v", vars.Sharingd)
	}

	// SIGINT: graceful drain, accounting line, exit 0.
	err, out := stop()
	if err != nil {
		t.Fatalf("drain exited nonzero: %v\nstderr:\n%s", err, out)
	}
	if !strings.Contains(out, "draining in-flight requests") {
		t.Fatalf("no drain banner; stderr:\n%s", out)
	}
	if !strings.Contains(out, "sharingd: drained - ") {
		t.Fatalf("no drain accounting line; stderr:\n%s", out)
	}
}

// TestDrainWaitsForInFlight holds a request open across the interrupt and
// checks that serve returns only after that request has completed: Serve
// itself returns as soon as Shutdown starts, before handlers finish, and
// main checkpoints the runner and prints "drained" when serve returns.
func TestDrainWaitsForInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		finished.Store(true)
		io.WriteString(w, "done")
	}))
	shutdownStarted := make(chan struct{})
	hs.RegisterOnShutdown(func() { close(shutdownStarted) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- serve(hs, ln, interrupt, 30*time.Second) }()

	type reply struct {
		body string
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replied <- reply{string(body), err}
	}()
	<-entered
	close(interrupt)
	<-shutdownStarted
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a request in flight", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if !finished.Load() {
		t.Fatal("serve returned before the in-flight handler finished")
	}
	if r := <-replied; r.err != nil || r.body != "done" {
		t.Fatalf("in-flight request got %q, %v", r.body, r.err)
	}
}

// TestDrainTimeout: a handler that outlives the drain timeout makes serve
// report the timeout instead of a clean drain.
func TestDrainTimeout(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	hs := newHTTPServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	interrupt := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- serve(hs, ln, interrupt, 50*time.Millisecond) }()
	go func() {
		if resp, err := http.Get("http://" + ln.Addr().String() + "/"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	close(interrupt)
	if err := <-served; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("serve = %v, want a drain timeout", err)
	}
}

// TestConcurrentBidsAndChurn drives the in-process server the way a load
// generator does: four goroutines POST bids, each reply DeepEqual-checked
// against a sequential allocator over the same closed-form surfaces, while a
// fifth runs arrive/phase/depart churn through the membership endpoints.
// The final /v1/market must equal a sequential replay of the committed op
// log.
func TestConcurrentBidsAndChurn(t *testing.T) {
	p := alloc.Params{
		Slices: experiments.StdSlices, CacheKB: experiments.StdCaches,
		Supply: econ.Supply{Slices: 64, Banks: 128},
	}
	a := newTestAllocator(t, p)
	ts := httptest.NewServer(newServer(a))
	t.Cleanup(ts.Close)
	ref := newTestAllocator(t, p)

	type bidCase struct {
		req  bidRequest
		want market.BidResult
	}
	benches := []string{"bench-a", "bench-b", "bench-c", "bench-d"}
	var cases []bidCase
	for _, bench := range benches {
		for _, u := range econ.Utilities() {
			for _, m := range econ.Markets() {
				want, err := ref.PriceBid(bench, u, m)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, bidCase{
					req:  bidRequest{Bench: bench, K: u.K, Budget: u.Budget, Market: &marketSpec{Name: m.Name}},
					want: alloc.NormalizeBid(want),
				})
			}
		}
	}

	const bidders, bidsEach, churnVMs = 4, 60, 40
	var wg sync.WaitGroup
	for c := 0; c < bidders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < bidsEach; i++ {
				tc := &cases[(c*13+i)%len(cases)]
				var br market.BidResult
				if err := post(ts.URL+"/v1/bid", tc.req, &br); err != nil {
					t.Errorf("bidder %d: %v", c, err)
					return
				}
				if got := alloc.NormalizeBid(br); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("bidder %d: served bid diverged from the sequential reference:\n got %+v\nwant %+v", c, got, tc.want)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var kept []string // residents left behind, at most six
		for i := 0; i < churnVMs; i++ {
			name := fmt.Sprintf("churn-vm-%d", i)
			u := econ.Utilities()[i%3]
			if err := post(ts.URL+"/v1/arrive", arriveRequest{Name: name, Bench: benches[i%len(benches)], K: u.K, Budget: u.Budget}, nil); err != nil {
				t.Errorf("arrive %s: %v", name, err)
				return
			}
			if i%2 == 0 {
				if err := post(ts.URL+"/v1/phase", phaseRequest{Name: name, Phase: 1 + i%3}, nil); err != nil {
					t.Errorf("phase %s: %v", name, err)
					return
				}
			}
			if i%4 == 3 {
				if kept = append(kept, name); len(kept) <= 6 {
					continue
				}
				name, kept = kept[0], kept[1:]
			}
			if err := post(ts.URL+"/v1/depart", nameRequest{Name: name}, nil); err != nil {
				t.Errorf("depart %s: %v", name, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	want, err := alloc.ReplaySequential(p, fleet.SyntheticProber{}, a.Log())
	if err != nil {
		t.Fatal(err)
	}
	var got marketReply
	getJSON(t, ts.URL+"/v1/market", &got)
	if want == nil || len(got.VMs) != len(want.Allocations) {
		t.Fatalf("market has %d residents, replay %+v", len(got.VMs), want)
	}
	if !reflect.DeepEqual(got.Prices, want.Prices) || got.TotalU != want.TotalUtility || got.Converged != want.Converged {
		t.Fatalf("market prices %+v utility %v converged %v; replay %+v %v %v",
			got.Prices, got.TotalU, got.Converged, want.Prices, want.TotalUtility, want.Converged)
	}
	for i, vm := range got.VMs {
		al := want.Allocations[i]
		if vm.Name != al.Customer || vm.Config != al.Config || vm.VCores != al.VCores || vm.Utility != al.Utility {
			t.Fatalf("resident %d: market %+v, replay %+v", i, vm, al)
		}
	}
}

// newTestServer serves a synthetic-surface allocator in process.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	return newTestServerWith(t, alloc.Params{Supply: econ.Supply{Slices: 64, Banks: 128}})
}

// newTestServerWith is newTestServer with p's supply over the standard
// lattice.
func newTestServerWith(t *testing.T, p alloc.Params) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(newTestAllocator(t, p)))
	t.Cleanup(ts.Close)
	return ts
}

// newTestAllocator is a synthetic-surface allocator with p's supply over
// the standard lattice.
func newTestAllocator(t *testing.T, p alloc.Params) *alloc.Allocator {
	t.Helper()
	p.Slices, p.CacheKB = experiments.StdSlices, experiments.StdCaches
	a, err := alloc.New(p, fleet.SyntheticProber{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestMarketReportsUnconverged: one resident's configuration has a fixed
// Slice-to-bank ratio, and no configuration holds 127 banks per 64 Slices,
// so its clearing gaps. /v1/market publishes "converged": false with the
// demand that shows it: the binding resource sold out, the other partly
// idle, neither oversold. An empty market reports true with no demand.
func TestMarketReportsUnconverged(t *testing.T) {
	supply := econ.Supply{Slices: 64, Banks: 127}
	ts := newTestServerWith(t, alloc.Params{Supply: supply})
	var mkt marketReply
	getJSON(t, ts.URL+"/v1/market", &mkt)
	if !mkt.Converged || mkt.SliceDemand != 0 || mkt.BankDemand != 0 {
		t.Fatalf("empty market: %+v", mkt)
	}
	if err := post(ts.URL+"/v1/arrive", arriveRequest{Name: "vm1", Bench: "b", K: 2}, nil); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/v1/market", &mkt)
	sUse, bUse := mkt.SliceDemand/float64(supply.Slices), mkt.BankDemand/float64(supply.Banks)
	if len(mkt.VMs) != 1 || mkt.Converged || math.Max(sUse, bUse) > 1+1e-12 ||
		math.Max(sUse, bUse) < 1-1e-12 || math.Min(sUse, bUse) > 1-1e-6 {
		t.Fatalf("one-resident clearing: converged %v, Slices used %v, banks used %v; want a gap", mkt.Converged, sUse, bUse)
	}
}

// status POSTs a raw body and returns the response status.
func status(t *testing.T, url string, body io.Reader) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestInvalidEconomicsRejected: economics the allocator refuses are a 400
// on every endpoint that carries them, never an admitted resident or a
// priced bid, while the wire's zero values still select the defaults.
func TestInvalidEconomicsRejected(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"bid k negative", "/v1/bid", `{"bench":"b","k":-1}`, http.StatusBadRequest},
		{"bid budget negative", "/v1/bid", `{"bench":"b","budget":-5}`, http.StatusBadRequest},
		{"bid slice cost negative", "/v1/bid", `{"bench":"b","market":{"sliceCost":-1,"bankCost":1}}`, http.StatusBadRequest},
		{"bid bank cost negative", "/v1/bid", `{"bench":"b","market":{"sliceCost":1,"bankCost":-2}}`, http.StatusBadRequest},
		{"bid both costs negative", "/v1/bid", `{"bench":"b","market":{"sliceCost":-1,"bankCost":-1}}`, http.StatusBadRequest},
		{"arrive budget negative", "/v1/arrive", `{"name":"vm","bench":"b","budget":-5}`, http.StatusBadRequest},
		{"arrive k negative", "/v1/arrive", `{"name":"vm","bench":"b","k":-3}`, http.StatusBadRequest},
		{"bid zero k and budget", "/v1/bid", `{"bench":"b","k":0,"budget":0}`, http.StatusOK},
		{"bid zero costs", "/v1/bid", `{"bench":"b","market":{"sliceCost":0,"bankCost":0}}`, http.StatusOK},
	} {
		if got := status(t, ts.URL+c.path, strings.NewReader(c.body)); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	var mkt marketReply
	getJSON(t, ts.URL+"/v1/market", &mkt)
	if len(mkt.VMs) != 0 {
		t.Fatalf("refused arrivals joined the market: %+v", mkt.VMs)
	}
}

// TestBodyLimit: a POST body over the 1 MB cap is a 413, and the server
// keeps serving: the next bid succeeds.
func TestBodyLimit(t *testing.T) {
	ts := newTestServer(t)
	huge := `{"bench":"` + strings.Repeat("x", 2<<20) + `"}`
	if got := status(t, ts.URL+"/v1/bid", strings.NewReader(huge)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MB body: status %d, want 413", got)
	}
	var br market.BidResult
	if err := post(ts.URL+"/v1/bid", bidRequest{Bench: "b", K: 2}, &br); err != nil {
		t.Fatalf("bid after an oversized body: %v", err)
	}
	if br.VCores <= 0 {
		t.Fatalf("bid after an oversized body: %+v", br)
	}
}

// TestTrailingBytesRejected: a body holding anything but white space after
// its JSON value is a 400 on every POST endpoint, and no such op reaches the
// market; trailing white space alone is accepted.
func TestTrailingBytesRejected(t *testing.T) {
	ts := newTestServer(t)
	if err := post(ts.URL+"/v1/arrive", arriveRequest{Name: "vm0", Bench: "b", K: 2}, nil); err != nil {
		t.Fatal(err)
	}
	var before marketReply
	getJSON(t, ts.URL+"/v1/market", &before)
	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"bid then garbage", "/v1/bid", `{"bench":"b","k":2} garbage`, http.StatusBadRequest},
		{"two bids", "/v1/bid", `{"bench":"b","k":2}{"bench":"b","k":2}`, http.StatusBadRequest},
		{"arrive then bracket", "/v1/arrive", `{"name":"vm1","bench":"b","k":2}]`, http.StatusBadRequest},
		{"depart then garbage", "/v1/depart", `{"name":"vm0"} x`, http.StatusBadRequest},
		{"phase then object", "/v1/phase", `{"name":"vm0","phase":1}{}`, http.StatusBadRequest},
		{"bid then white space", "/v1/bid", "{\"bench\":\"b\",\"k\":2} \r\n\t", http.StatusOK},
	} {
		if got := status(t, ts.URL+c.path, strings.NewReader(c.body)); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	var after marketReply
	getJSON(t, ts.URL+"/v1/market", &after)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("refused ops changed the market:\n%+v\n%+v", before, after)
	}
}
