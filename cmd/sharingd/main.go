// Command sharingd is the sharing-as-a-service control plane: a long-running
// HTTP/JSON server over the concurrent-safe allocation library
// (internal/alloc). Customers POST bids and lifecycle events; the daemon
// prices them in O(probes) against cached performance surfaces, batches
// concurrent arrivals into single market-clearing epochs, and exposes the
// market, per-VM state, serving stats, expvar, and pprof over the same port.
//
// Endpoints:
//
//	POST /v1/bid     {"bench","k","budget","market"?}   price one bid
//	POST /v1/arrive  {"name","bench","k","budget"}      join the market
//	POST /v1/depart  {"name"}                           leave the market
//	POST /v1/phase   {"name","phase"}                   program phase change
//	GET  /v1/vm?name=                                   one VM's allocation
//	GET  /v1/market                                     market snapshot: prices, demand, exact or gap
//	GET  /v1/stats                                      serving telemetry
//	GET  /healthz, /debug/vars, /debug/pprof/*
//
// Usage:
//
//	sharingd -synthetic -addr 127.0.0.1:8080
//	sharingd -results results/perf.json
//
// Ctrl-C drains gracefully: in-flight requests finish, simulator results
// checkpoint, then the process exits 0. Requests still running after 30 s
// make the drain fail (exit 1, after the checkpoint). A second Ctrl-C
// kills it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/fleet"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		synthetic = flag.Bool("synthetic", false, "closed-form surfaces instead of simulator probes")
		n         = flag.Int("n", experiments.DefaultTraceLen, "instructions per thread (simulator probes)")
		seed      = flag.Int64("seed", experiments.DefaultSeed, "workload seed")
		results   = flag.String("results", "", "JSON results cache (reused across runs)")
		supSlices = flag.Int("supply-slices", 64, "chip supply: rentable Slices")
		supBanks  = flag.Int("supply-banks", 128, "chip supply: rentable 64KB L2 banks")
		quiet     = flag.Bool("q", false, "suppress per-run progress")
	)
	flag.Parse()

	supply := econ.Supply{Slices: *supSlices, Banks: *supBanks}

	// Build the allocator: closed-form surfaces, or the cycle-level
	// simulator behind the Runner's results cache.
	var (
		a   *alloc.Allocator
		r   *experiments.Runner
		err error
	)
	if *synthetic {
		a, err = alloc.New(alloc.Params{
			Slices: experiments.StdSlices, CacheKB: experiments.StdCaches,
			Supply: supply,
		}, fleet.SyntheticProber{})
	} else {
		r = experiments.NewRunner()
		r.TraceLen, r.Seed, r.ResultsPath = *n, *seed, *results
		if !*quiet {
			r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
		}
		if err = r.Load(); err != nil {
			fatal(err)
		}
		a, err = experiments.NewAllocator(r, supply)
	}
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := newHTTPServer(newServer(a))

	// Ctrl-C drains instead of killing: stop accepting, let in-flight
	// requests (and their simulations) finish, checkpoint the results
	// cache, exit 0. A second Ctrl-C falls through to the default hard
	// kill — same contract as cmd/sweep.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	interrupt := make(chan struct{})
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "sharingd: interrupt - draining in-flight requests (Ctrl-C again to kill)")
		signal.Stop(sigs)
		if r != nil {
			r.Stop()
		}
		close(interrupt)
	}()

	fmt.Fprintf(os.Stderr, "sharingd: listening on %s\n", ln.Addr())
	err = serve(hs, ln, interrupt, drainTimeout)
	saveRunner(r)
	if err != nil {
		fatal(err)
	}
	st := a.Stats()
	fmt.Fprintf(os.Stderr, "sharingd: drained - %d bids, %d membership ops over %d epochs\n",
		st.Bids, st.Ops, st.Epochs)
}

// drainTimeout bounds how long an interrupted daemon waits for in-flight
// requests before giving up on them.
const drainTimeout = 30 * time.Second

// serve runs hs on ln until interrupt is closed, then drains it: Shutdown
// stops accepting and waits up to timeout for in-flight requests. Serve
// returns as soon as Shutdown starts, so serve waits for Shutdown itself
// and returns only once every handler has finished; a drain that times out
// with requests still running is returned as an error.
func serve(hs *http.Server, ln net.Listener, interrupt <-chan struct{}, timeout time.Duration) error {
	drained := make(chan error, 1)
	go func() {
		<-interrupt
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			drained <- fmt.Errorf("drain: %w after %v with requests in flight", err, timeout)
			return
		}
		drained <- nil
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-drained
}

func saveRunner(r *experiments.Runner) {
	if r == nil {
		return
	}
	if err := r.Save(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sharingd:", err)
	os.Exit(1)
}
