package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/market"
	"sharing/internal/workload"
)

// The load-test harness (-loadtest): stand up the real server in-process on
// a loopback port, drive it with concurrent keep-alive HTTP clients for a
// fixed window, and report sustained throughput and client-observed
// latency. Correctness rides along end to end: every bid response is
// DeepEqual-checked against a sequential engine pricing the same bid over
// the same surfaces, an optional churn goroutine exercises the membership
// endpoints throughout, and the run ends with the sequential-replay
// verification of the final clearing. The numbers it prints feed the
// "serve" block of BENCH_ssim.json.

type loadTestOpts struct {
	duration time.Duration
	clients  int
	minRPS   float64
	churn    bool
	benches  []string
	// phases is each benchmark surface's phase count; the churn client
	// only asks for phases that exist.
	phases map[string]int
}

// benchPhases returns the phase count of each benchmark's surface: the
// workload profile's phases for simulator-backed surfaces. Closed-form
// surfaces serve any phase index, so there the churn client cycles three.
func benchPhases(benches []string, synthetic bool) (map[string]int, error) {
	phases := make(map[string]int, len(benches))
	for _, b := range benches {
		if synthetic {
			phases[b] = 3
			continue
		}
		prof, err := workload.Lookup(b)
		if err != nil {
			return nil, err
		}
		phases[b] = prof.NumPhases()
	}
	return phases, nil
}

// churnPhase is the phase the churn client moves its i-th VM, running
// bench, to.
func (o *loadTestOpts) churnPhase(i int, bench string) int { return i % o.phases[bench] }

// ltCase is one point of the bid workload; its request body is prebuilt so
// the measurement loop only pays for the HTTP round trip.
type ltCase struct {
	body []byte
	want market.BidResult // sequential reference, normalized
}

type ltSummary struct {
	Requests     int64   `json:"requests"`
	Seconds      float64 `json:"seconds"`
	RPS          float64 `json:"rps"`
	P50Ms        float64 `json:"p50Ms"`
	P99Ms        float64 `json:"p99Ms"`
	Clients      int     `json:"clients"`
	ChurnOps     int64   `json:"churnOps"`
	Epochs       int64   `json:"epochs"`
	Coalesced    int64   `json:"coalesced"`
	CacheHitRate float64 `json:"cacheHitRate"`
	Verified     bool    `json:"verified"`
}

func runLoadTest(srv *server, o loadTestOpts) error {
	if o.clients <= 0 {
		o.clients = 1
	}
	a := srv.a

	// Build the workload and its sequential reference: every (bench,
	// utility, market) combination, priced by a fresh single-goroutine
	// engine sharing the allocator's surface cache. The warm-up doubles as
	// the cache fill, so the measured window is the steady serving state.
	p := a.Params()
	ref, err := market.New(market.Params{
		Slices: p.Slices, CacheKB: p.CacheKB, ProbeBudget: p.ProbeBudget,
		Supply: p.Supply, Tol: p.Tol, MaxIter: p.MaxIter,
		Surfaces: a.Cache(),
	}, nil)
	if err != nil {
		return err
	}
	var cases []ltCase
	for _, bench := range o.benches {
		for _, u := range econ.Utilities() {
			for _, m := range econ.Markets() {
				if _, err := a.PriceBid(bench, u, m); err != nil {
					return fmt.Errorf("loadtest warm-up %s: %w", bench, err)
				}
				// PriceBidAt with the fixed zero start is the engine's pure
				// pricing path — the same function of (surface, prices,
				// utility) the allocator computes.
				want, err := ref.PriceBidAt(bench, u, m, econ.Config{}, nil)
				if err != nil {
					return err
				}
				body, err := json.Marshal(bidRequest{
					Bench: bench, K: u.K, Budget: u.Budget,
					Market: &marketSpec{Name: m.Name},
				})
				if err != nil {
					return err
				}
				cases = append(cases, ltCase{body: body, want: alloc.NormalizeBid(want)})
			}
		}
	}

	// The server under test: the real handler stack on a loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "sharingd: loadtest against %s (%d clients, %s, %d bid cases)\n",
		base, o.clients, o.duration, len(cases))

	transport := &http.Transport{
		MaxIdleConns:        o.clients * 2,
		MaxIdleConnsPerHost: o.clients * 2,
	}
	defer transport.CloseIdleConnections()

	//ssim:nolint detrand: wall-clock here only bounds and times the measurement window; results are verified against the sequential reference separately
	start := time.Now()
	deadline := start.Add(o.duration)

	// errs is partitioned per goroutine: slot c per bid client, the last
	// slot for the churn client.
	var wg sync.WaitGroup
	lats := make([][]time.Duration, o.clients)
	errs := make([]error, o.clients+1)
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: transport}
			var mine []time.Duration
			//ssim:nolint detrand: per-request wall-clock is the latency being measured, not a model input
			for i := 0; time.Now().Before(deadline); i++ {
				tc := &cases[(c*13+i)%len(cases)]
				//ssim:nolint detrand: per-request wall-clock is the latency being measured, not a model input
				t0 := time.Now()
				br, err := postBid(client, base, tc.body)
				if err != nil {
					errs[c] = err
					return
				}
				//ssim:nolint detrand: per-request wall-clock is the latency being measured, not a model input
				mine = append(mine, time.Since(t0))
				if got := alloc.NormalizeBid(br); !reflect.DeepEqual(got, tc.want) {
					errs[c] = fmt.Errorf("client %d: served bid diverged from sequential reference:\n got %+v\nwant %+v", c, got, tc.want)
					return
				}
			}
			lats[c] = mine
		}(c)
	}

	// Membership churn alongside the bid load: arrivals, phase changes, and
	// departures through the HTTP endpoints, exercising the group-commit
	// clearing under fire.
	var churnOps atomic.Int64
	if o.churn {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: transport}
			phased := a.Cache().Phased()
			var kept []string // residents left behind, bounded below
			//ssim:nolint detrand: wall-clock only bounds the churn loop
			for i := 0; time.Now().Before(deadline); i++ {
				name := fmt.Sprintf("churn-vm-%d", i)
				bench := o.benches[i%len(o.benches)]
				u := econ.Utilities()[i%3]
				if err := postJSON(client, base+"/v1/arrive", arriveRequest{Name: name, Bench: bench, K: u.K, Budget: u.Budget}); err != nil {
					errs[c] = err
					return
				}
				churnOps.Add(1)
				if phased && i%2 == 0 {
					if err := postJSON(client, base+"/v1/phase", phaseRequest{Name: name, Phase: o.churnPhase(i, bench)}); err != nil {
						errs[c] = err
						return
					}
					churnOps.Add(1)
				}
				// Every fourth VM stays resident (the final clearing the
				// sequential replay must reproduce covers them); the resident
				// set is kept bounded so reprices stay epoch-sized.
				if i%4 == 3 {
					kept = append(kept, name)
					if len(kept) <= 6 {
						continue
					}
					name, kept = kept[0], kept[1:]
				}
				if err := postJSON(client, base+"/v1/depart", nameRequest{Name: name}); err != nil {
					errs[c] = err
					return
				}
				churnOps.Add(1)
			}
		}(o.clients)
	}
	wg.Wait()
	//ssim:nolint detrand: wall-clock closes the throughput measurement
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Final determinism witness: replay the committed op log sequentially
	// and demand a DeepEqual-identical clearing.
	if _, err := a.Verify(); err != nil {
		return err
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return fmt.Errorf("loadtest: no requests completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}
	st := a.Stats()
	hitRate := 0.0
	if st.ProbeLookups > 0 {
		hitRate = float64(st.ProbeLookups-st.CacheMisses) / float64(st.ProbeLookups)
	}
	sum := ltSummary{
		Requests:     int64(len(all)),
		Seconds:      elapsed.Seconds(),
		RPS:          float64(len(all)) / elapsed.Seconds(),
		P50Ms:        pct(0.50),
		P99Ms:        pct(0.99),
		Clients:      o.clients,
		ChurnOps:     churnOps.Load(),
		Epochs:       st.Epochs,
		Coalesced:    st.Coalesced,
		CacheHitRate: hitRate,
		Verified:     true,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		return err
	}
	if o.minRPS > 0 && sum.RPS < o.minRPS {
		return fmt.Errorf("loadtest: %.0f req/s below the %.0f req/s floor", sum.RPS, o.minRPS)
	}
	return nil
}

// postBid POSTs a prebuilt bid body and decodes the BidResult.
func postBid(c *http.Client, base string, body []byte) (market.BidResult, error) {
	resp, err := c.Post(base+"/v1/bid", "application/json", bytes.NewReader(body))
	if err != nil {
		return market.BidResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return market.BidResult{}, fmt.Errorf("bid: %s: %s", resp.Status, msg)
	}
	var br market.BidResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return market.BidResult{}, err
	}
	return br, nil
}

// postJSON POSTs v and drains the response (membership receipts are
// verified in aggregate by the final sequential replay).
func postJSON(c *http.Client, url string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, msg)
	}
	return nil
}
