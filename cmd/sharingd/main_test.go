package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/fleet"
	"sharing/internal/market"
	"sharing/internal/workload"
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
		done := make(chan error, 1)
		go func() { done <- wait() }()
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					err := <-done
					return err, tail.String()
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
	if mkt.Epoch != 2 || len(mkt.VMs) != 1 || mkt.TotalU <= 0 || !mkt.Converged {
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

// TestLoadTestHarness runs the -loadtest mode end to end in a subprocess
// with a short window and checks the printed summary: requests flowed, the
// percentiles are ordered, and the end-to-end verification (every bid
// DeepEqual-checked, final clearing replayed sequentially) passed.
func TestLoadTestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a timed load test in a subprocess")
	}
	cmd := sharingdCmd("-loadtest", "-synthetic", "-duration", "1s", "-clients", "4", "-min-rps", "1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("loadtest: %v\nstderr:\n%s", err, stderr.String())
	}
	var sum ltSummary
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("summary: %v\n%s", err, stdout.String())
	}
	if !sum.Verified {
		t.Fatalf("loadtest summary not verified: %+v", sum)
	}
	if sum.Requests == 0 || sum.RPS <= 0 || sum.ChurnOps == 0 {
		t.Fatalf("empty loadtest: %+v", sum)
	}
	if sum.P50Ms <= 0 || sum.P99Ms < sum.P50Ms {
		t.Fatalf("percentiles out of order: %+v", sum)
	}
	if sum.Epochs == 0 || sum.CacheHitRate <= 0.5 {
		t.Fatalf("serving stats implausible: %+v", sum)
	}
}

// TestChurnPhasesExist is the regression test for the simulator-backed
// load test's churn client, which used to ask every benchmark for phase
// i%3 and aborted with a 422 on the first single-phase one. Every phase
// it now asks for must be one the workload can actually generate.
func TestChurnPhasesExist(t *testing.T) {
	benches := workload.Names()
	phases, err := benchPhases(benches, false)
	if err != nil {
		t.Fatal(err)
	}
	o := loadTestOpts{benches: benches, phases: phases}
	for i := 0; i < 4*len(benches); i++ {
		bench := benches[i%len(benches)]
		prof, err := workload.Lookup(bench)
		if err != nil {
			t.Fatal(err)
		}
		ph := o.churnPhase(i, bench)
		if _, err := prof.GeneratePhase(ph, 64, 1); err != nil {
			t.Errorf("churn VM %d (%s) asks for phase %d: %v", i, bench, ph, err)
		}
	}
}

// newTestServer serves a synthetic-surface allocator in process.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	return newTestServerWith(t, alloc.Params{Supply: econ.Supply{Slices: 64, Banks: 128}})
}

// newTestServerWith is newTestServer with p's supply and tatonnement
// parameters over the standard lattice.
func newTestServerWith(t *testing.T, p alloc.Params) *httptest.Server {
	t.Helper()
	p.Slices, p.CacheKB = experiments.StdSlices, experiments.StdCaches
	a, err := alloc.New(p, fleet.SyntheticProber{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(a))
	t.Cleanup(ts.Close)
	return ts
}

// TestMarketReportsUnconverged: a clearing stopped by the tatonnement's
// round cap, with demand far over a one-Slice supply, is published with
// "converged": false rather than passed off as a clearing; an empty market
// reports true.
func TestMarketReportsUnconverged(t *testing.T) {
	ts := newTestServerWith(t, alloc.Params{Supply: econ.Supply{Slices: 1, Banks: 1}, MaxIter: 2})
	var mkt marketReply
	getJSON(t, ts.URL+"/v1/market", &mkt)
	if !mkt.Converged {
		t.Fatalf("empty market reports unconverged: %+v", mkt)
	}
	if err := post(ts.URL+"/v1/arrive", arriveRequest{Name: "vm1", Bench: "b", K: 2}, nil); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/v1/market", &mkt)
	if len(mkt.VMs) != 1 || mkt.Converged {
		t.Fatalf("capped clearing published as converged: %+v", mkt)
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
