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
//	GET  /v1/market                                     market snapshot, clearing convergence
//	GET  /v1/stats                                      serving telemetry
//	GET  /healthz, /debug/vars, /debug/pprof/*
//
// Usage:
//
//	sharingd -synthetic -addr 127.0.0.1:8080
//	sharingd -results results/perf.json -backend procpool -shards 4
//	sharingd -loadtest -synthetic -duration 5s -clients 8 -min-rps 2000
//
// Ctrl-C drains gracefully: in-flight requests finish, simulator results
// checkpoint, then the process exits 0. A second Ctrl-C kills it.
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
	"sharing/internal/distrib"
	"sharing/internal/econ"
	"sharing/internal/experiments"
	"sharing/internal/fleet"
	"sharing/internal/workload"
)

func main() {
	experiments.MaybeWorker()
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		synthetic  = flag.Bool("synthetic", false, "closed-form surfaces instead of simulator probes")
		n          = flag.Int("n", experiments.DefaultTraceLen, "instructions per thread (simulator probes)")
		seed       = flag.Int64("seed", experiments.DefaultSeed, "workload seed")
		results    = flag.String("results", "", "JSON results cache (reused across runs)")
		traceCache = flag.String("tracecache", "", "directory for the binary trace cache (reused across runs)")
		backend    = flag.String("backend", "inproc", "execution backend: inproc (worker pool in this process) or procpool (worker subprocesses)")
		shards     = flag.Int("shards", 0, "procpool worker subprocess count (0 = default)")
		supSlices  = flag.Int("supply-slices", 64, "chip supply: rentable Slices")
		supBanks   = flag.Int("supply-banks", 128, "chip supply: rentable 64KB L2 banks")
		quiet      = flag.Bool("q", false, "suppress per-run progress")

		// Load-test harness (implies an in-process server; -addr ignored).
		loadtest = flag.Bool("loadtest", false, "run the load-test harness against an in-process server and exit")
		duration = flag.Duration("duration", 5*time.Second, "loadtest: measurement window")
		clients  = flag.Int("clients", 8, "loadtest: concurrent keep-alive HTTP clients")
		minRPS   = flag.Float64("min-rps", 0, "loadtest: fail (exit 1) below this sustained request rate")
		churn    = flag.Bool("churn", true, "loadtest: run concurrent arrive/depart/phase churn alongside the bids")
	)
	flag.Parse()

	supply := econ.Supply{Slices: *supSlices, Banks: *supBanks}

	// Build the allocator: closed-form surfaces, or the cycle-level
	// simulator behind the Runner's results cache and execution backend.
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
		r.TraceCacheDir = *traceCache
		if !*quiet {
			r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
		}
		var be distrib.Backend
		be, err = experiments.NewBackend(*backend, *shards, *traceCache)
		if err != nil {
			fatal(err)
		}
		if be != nil {
			r.Backend = be
			defer be.Close()
		}
		if err = r.Load(); err != nil {
			fatal(err)
		}
		a, err = experiments.NewAllocator(r, supply)
	}
	if err != nil {
		fatal(err)
	}

	srv := newServer(a)

	if *loadtest {
		// Synthetic surfaces serve any benchmark name; the simulator-backed
		// allocator is driven over the real workload set.
		benches := workload.Names()
		if *synthetic {
			benches = benches[:0]
			for i := 0; i < 12; i++ {
				benches = append(benches, fmt.Sprintf("lt-bench-%02d", i))
			}
		}
		phases, err := benchPhases(benches, *synthetic)
		if err != nil {
			fatal(err)
		}
		if err := runLoadTest(srv, loadTestOpts{
			duration: *duration,
			clients:  *clients,
			minRPS:   *minRPS,
			churn:    *churn,
			benches:  benches,
			phases:   phases,
		}); err != nil {
			fatal(err)
		}
		saveRunner(r)
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := newHTTPServer(srv)

	// Ctrl-C drains instead of killing: stop accepting, let in-flight
	// requests (and their simulations) finish, checkpoint the results
	// cache, exit 0. A second Ctrl-C falls through to the default hard
	// kill — same contract as cmd/sweep.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "sharingd: interrupt - draining in-flight requests (Ctrl-C again to kill)")
		signal.Stop(sigs)
		if r != nil {
			r.Stop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sharingd: shutdown:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "sharingd: listening on %s\n", ln.Addr())
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	saveRunner(r)
	st := a.Stats()
	fmt.Fprintf(os.Stderr, "sharingd: drained - %d bids, %d membership ops over %d epochs\n",
		st.Bids, st.Ops, st.Epochs)
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
