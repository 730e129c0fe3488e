package alloc

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sharing/internal/econ"
	"sharing/internal/market"
)

// Race-focused coverage (run under -race by make serve-smoke): the Allocator
// under server-shaped load — many goroutines, mixed bids, arrivals,
// departures, and phase changes — must be race-clean AND produce results
// reflect.DeepEqual-identical to the sequential reference.

// bidCase is one point of the concurrent bid workload.
type bidCase struct {
	bench string
	u     econ.Utility
	m     econ.Market
}

func bidWorkload() []bidCase {
	var cases []bidCase
	for bench := range benchPerf {
		for _, u := range econ.Utilities() {
			for _, m := range econ.Markets() {
				cases = append(cases, bidCase{bench, u, m})
			}
		}
	}
	return cases
}

// TestConcurrentBidsMatchSequential hammers PriceBid from many goroutines
// and checks every single result against a sequential pricing of the same
// bid on a fresh allocator — pooled optimizers, a shared cache filling
// under fire, and scheduling must not change a single byte of the
// allocation-relevant fields.
func TestConcurrentBidsMatchSequential(t *testing.T) {
	cases := bidWorkload()

	// Sequential reference: one goroutine, fresh allocator, computed up
	// front.
	ref, _ := newAlloc(t)
	want := make([]market.BidResult, len(cases))
	for i, c := range cases {
		br, err := ref.PriceBid(c.bench, c.u, c.m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = NormalizeBid(br)
	}

	a, _ := newAlloc(t)
	const goroutines, rounds = 8, 20
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine walks the workload from a different offset
				// so the same surfaces are hit concurrently at different
				// prices.
				i := (g*7 + r) % len(cases)
				c := cases[i]
				br, err := a.PriceBid(c.bench, c.u, c.m)
				if err != nil {
					errs <- err
					return
				}
				if got := NormalizeBid(br); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d round %d (%s/%s/%s):\n got %+v\nwant %+v",
						g, r, c.bench, c.m.Name, c.u, got, want[i])
					return
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := a.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight gauge did not drain: %+v", st)
	}
}

// TestConcurrentChurnReplay runs mixed arrive/depart/phase-change churn plus
// concurrent bid traffic from many goroutines, then replays the committed op
// log one op per epoch through a fresh allocator and demands a
// DeepEqual-identical final clearing — the core's headline determinism
// contract.
func TestConcurrentChurnReplay(t *testing.T) {
	a, _ := newAlloc(t)
	benches := []string{"cachey", "slicey", "mixed"}

	const churners, vmsEach = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, churners+2)
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := 0; v < vmsEach; v++ {
				name := fmt.Sprintf("g%d-vm%d", g, v)
				bench := benches[(g+v)%len(benches)]
				u := econ.Utilities()[v%3]
				if _, err := a.Arrive(name, bench, u); err != nil {
					errs <- err
					return
				}
				if bench == "mixed" && v%2 == 0 {
					if _, err := a.Reconfigure(name, v%2); err != nil {
						errs <- err
						return
					}
				}
				// Depart two thirds; the rest stay resident for the final
				// clearing the replay must reproduce.
				if v%3 != 0 {
					if _, err := a.Depart(name); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	// Concurrent read-side traffic: bids and snapshots against the churn.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				if _, err := a.PriceBid(benches[(g+r)%len(benches)], econ.Utility2(), econ.Market2()); err != nil {
					errs <- err
					return
				}
				v := a.Snapshot()
				if v.Result != nil && len(v.VMs) == 0 {
					errs <- fmt.Errorf("snapshot with result but no VMs")
					return
				}
				_ = a.Stats()
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	res, err := VerifySequential(a, &raceProber{})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Allocations) == 0 {
		t.Fatal("churn was expected to leave residents behind")
	}
	st := a.Stats()
	if st.Ops != int64(len(a.Log())) {
		t.Fatalf("ops counter %d != journal length %d", st.Ops, len(a.Log()))
	}
	if st.Epochs > st.Ops {
		t.Fatalf("more epochs than ops: %+v", st)
	}
	if st.Coalesced != st.Ops-st.Epochs {
		t.Fatalf("coalescing arithmetic: %+v", st)
	}
}

// gateProber blocks the first probe of the "gate" surface until released —
// a handle to hold the epoch leader mid-reprice while followers pile onto
// the queue.
type gateProber struct {
	entered chan struct{} // closed when the gate probe is reached
	release chan struct{} // close to let it through
	once    sync.Once
}

func (g *gateProber) Probe(bench string, cfg econ.Config) (float64, error) {
	if bench == "gate" {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
		return 0.5 + 0.1*float64(cfg.Slices), nil
	}
	fn, ok := benchPerf[bench]
	if !ok {
		return 0, fmt.Errorf("no bench %q", bench)
	}
	return fn(cfg), nil
}

// TestBatchCoalescing holds the first epoch's leader inside its reprice (a
// gated probe) while N more arrivals enqueue, then releases it and checks
// the stragglers commit as ONE batch: a single extra epoch, shared receipt,
// N-1 repricings saved — and the coalesced outcome still DeepEquals the
// sequential replay.
func TestBatchCoalescing(t *testing.T) {
	gp := &gateProber{entered: make(chan struct{}), release: make(chan struct{})}
	a, err := New(testParams(), gp)
	if err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := a.Arrive("gate-vm", "gate", econ.Utility1())
		leaderDone <- err
	}()
	<-gp.entered // leader is now stuck mid-reprice, qmu free

	const n = 8
	var wg sync.WaitGroup
	receipts := make([]Receipt, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			receipts[i], errs[i] = a.Arrive(fmt.Sprintf("vm%d", i), "cachey", econ.Utility2())
		}(i)
	}
	// Wait (under qmu, the only way to observe the queue) until all n
	// followers are enqueued, then open the gate.
	for {
		a.qmu.Lock()
		queued := len(a.pending)
		a.qmu.Unlock()
		if queued == n {
			break
		}
		runtime.Gosched() // single-CPU hosts: let the followers enqueue
	}
	close(gp.release)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if receipts[i].Epoch != 2 || receipts[i].Batched != n {
			t.Fatalf("receipt %d: epoch %d batched %d, want epoch 2 batched %d",
				i, receipts[i].Epoch, receipts[i].Batched, n)
		}
	}
	st := a.Stats()
	if st.Epochs != 2 || st.Ops != n+1 || st.Coalesced != n-1 {
		t.Fatalf("coalescing stats: %+v", st)
	}
	if _, err := VerifySequential(a, gp); err != nil {
		t.Fatal(err)
	}
}
