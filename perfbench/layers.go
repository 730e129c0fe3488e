package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/fleet"
	"sharing/internal/sim"
	"sharing/internal/trace"
	"sharing/internal/workload"
)

// The traced run. Every workload's traced run measures every layer, so
// each prints the full per-layer set: spans are taken around calls into
// each package's public functions from this file, and the daemon's own
// counters are read from /v1/stats and /debug/vars. Nothing inside the
// program is instrumented.

// perLayer is the per-layer metric set (BENCHMARK.json "per_layer").
var perLayer = map[string]string{
	"sharingd.cpu_us_per_req":          "us",
	"sharingd.allocs_per_req":          "count",
	"sharingd.gc_pause_ms":             "ms",
	"http.overhead_us":                 "us",
	"gen.late_ms_p99":                  "ms",
	"alloc.price_bid_us":               "us",
	"alloc.searches_per_bid":           "count",
	"alloc.op_us":                      "us",
	"alloc.searches_per_op":            "count",
	"alloc.ops_per_epoch":              "count",
	"alloc.reprice_us.r10":             "us",
	"alloc.reprice_us.r100":            "us",
	"alloc.fallbacks":                  "count",
	"econ.tatonnement_iters_per_epoch": "count",
	"econ.unconverged_epochs":          "count",
	"market.lookups_per_search":        "count",
	"market.cache_hit_ratio":           "ratio",
	"market.unique_points":             "count",
	"market.probe_us":                  "us",
	"runner.sim_runs":                  "count",
	"runner.self_ms":                   "ms",
	"workload.gen_ms.mcf":              "ms",
	"workload.gen_ms.gobmk":            "ms",
	"workload.gen_ms.libquantum":       "ms",
	"workload.gen_ms.dedup":            "ms",
	"sim.single.host_ns_per_cycle":     "ns",
	"sim.multi.host_ns_per_cycle":      "ns",
	"sim.allocs_per_run":               "count",
	"sim.cycles":                       "count",
	"sim.insts":                        "count",
	"sim.l2_misses":                    "count",
	"sim.mem_reads":                    "count",
	"sim.opnet_msgs":                   "count",
	"fleet.searches":                   "count",
	"fleet.unique_probes":              "count",
	"fleet.epochs":                     "count",
	"trace.overhead_frac":              "ratio",
}

// maxIter is econ.ClearMarketWith's default tatonnement cap; an epoch
// whose clearing used all of it stopped without converging.
const maxIter = 4000

func runLayers(b *bench) error {
	if err := sweepLayers(b); err != nil {
		return fmt.Errorf("sweep layers: %w", err)
	}
	if err := fleetLayers(b); err != nil {
		return fmt.Errorf("fleet layers: %w", err)
	}
	cases, err := newBidCases()
	if err != nil {
		return err
	}
	priceUs, err := allocLayers(b, cases)
	if err != nil {
		return fmt.Errorf("alloc layers: %w", err)
	}
	if err := daemonLayers(b, cases, priceUs); err != nil {
		return fmt.Errorf("daemon layers: %w", err)
	}
	return nil
}

// tracedBackend executes the sweep's simulations one at a time (Workers=1)
// the way the runner's in-process backend does, timing trace generation
// and sim.Run separately and summing the simulated statistics.
type tracedBackend struct {
	mu     sync.Mutex
	traces map[string]*trace.MultiTrace
	genMs  map[string]float64

	gen, sim, tracer             time.Duration
	simSingle, simMulti          time.Duration
	cyclesSingle, cyclesMulti    int64
	runs                         int
	mallocs                      uint64
	cycles, insts                uint64
	l2Misses, memReads, opnetMsg uint64
}

func (t *tracedBackend) Execute(req trace.SimRequest) (trace.SimResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mt, ok := t.traces[req.Bench]
	if !ok {
		prof, err := workload.Lookup(req.Bench)
		if err != nil {
			return trace.SimResult{}, err
		}
		t0 := time.Now()
		mt, err = prof.Generate(req.TraceLen, req.Seed)
		d := time.Since(t0)
		if err != nil {
			return trace.SimResult{}, err
		}
		t.gen += d
		t.genMs[req.Bench] = ms(d)
		t.traces[req.Bench] = mt
	}
	p := sim.DefaultParams(req.Slices, req.CacheKB)
	p.Quantum = req.Quantum
	p.Sequential = true

	tr0 := time.Now()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	t.tracer += t0.Sub(tr0)
	res, err := sim.Run(p, mt)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	t.tracer += time.Since(t0) - d
	if err != nil {
		return trace.SimResult{ID: req.ID, Err: err.Error()}, nil
	}
	t.sim += d
	if len(mt.Threads) > 1 {
		t.simMulti += d
		t.cyclesMulti += res.Cycles
	} else {
		t.simSingle += d
		t.cyclesSingle += res.Cycles
	}
	t.runs++
	t.mallocs += after.Mallocs - before.Mallocs
	t.cycles += uint64(res.Cycles)
	t.insts += res.Instructions
	t.l2Misses += res.L2Misses
	t.memReads += res.MemReads
	t.opnetMsg += res.OpNet.Messages
	return trace.SimResult{ID: req.ID, Cycles: res.Cycles, Insts: res.Instructions}, nil
}

func (t *tracedBackend) Close() error { return nil }

// Remote keeps the runner from generating its own copy of each trace: the
// backend generates (and times) them.
func (t *tracedBackend) Remote() bool { return true }

// sweepLayers runs the sweep lattice on one traced worker. The runner's
// self time is the Grid span minus its generation and sim.Run children.
// The tracing overhead compares mcf's traced grid with an untraced one.
func sweepLayers(b *bench) error {
	v := b.variant()
	tb := &tracedBackend{traces: map[string]*trace.MultiTrace{}, genMs: map[string]float64{}}
	r := newSweepRunner(v, 1)
	r.Backend = tb
	t0 := time.Now()
	digest, _, err := sweepGrid(r)
	grid := time.Since(t0)
	b.ops(sweepPoints)
	if err != nil {
		b.fail(sweepPoints, "traced grid: %v", err)
		return nil
	}
	if want := expected().Sweep[fmt.Sprint(v)]; digest != want {
		b.fail(sweepPoints, "traced grid digest %s, recorded %s (variant %d)", digest, want, v)
	}
	if r.SimRuns() != sweepPoints {
		b.fail(1, "runner dispatched %d simulations for %d points", r.SimRuns(), sweepPoints)
	}
	self := grid - tb.gen - tb.sim - tb.tracer
	b.printf("span runner.grid: %d points, total %.1f ms, self %.1f ms", sweepPoints, ms(grid), ms(self))
	b.printf("span workload.generate: %d traces, self %.1f ms", len(tb.genMs), ms(tb.gen))
	b.printf("span sim.Run: %d runs, self %.1f ms (single-engine %.1f ms, multi-engine %.1f ms)", tb.runs, ms(tb.sim), ms(tb.simSingle), ms(tb.simMulti))
	b.set("runner.sim_runs", "count", float64(r.SimRuns()))
	b.set("runner.self_ms", "ms", ms(self))
	for _, name := range sweepBenches {
		b.set("workload.gen_ms."+name, "ms", tb.genMs[name])
	}
	b.set("sim.single.host_ns_per_cycle", "ns", float64(tb.simSingle)/float64(tb.cyclesSingle))
	b.set("sim.multi.host_ns_per_cycle", "ns", float64(tb.simMulti)/float64(tb.cyclesMulti))
	b.set("sim.allocs_per_run", "count", float64(tb.mallocs)/float64(tb.runs))
	b.set("sim.cycles", "count", float64(tb.cycles))
	b.set("sim.insts", "count", float64(tb.insts))
	b.set("sim.l2_misses", "count", float64(tb.l2Misses))
	b.set("sim.mem_reads", "count", float64(tb.memReads))
	b.set("sim.opnet_msgs", "count", float64(tb.opnetMsg))

	// Tracing overhead on mcf's sub-grid: traced (with its trace
	// generated afresh) against the untraced in-process backend.
	traced := func() (time.Duration, error) {
		tb := &tracedBackend{traces: map[string]*trace.MultiTrace{}, genMs: map[string]float64{}}
		r := newSweepRunner(v, 1)
		r.Backend = tb
		t0 := time.Now()
		_, err := r.Grid("mcf", sweepSlices, sweepCaches)
		return time.Since(t0), err
	}
	untraced := func() (time.Duration, error) {
		r := newSweepRunner(v, 1)
		t0 := time.Now()
		_, err := r.Grid("mcf", sweepSlices, sweepCaches)
		return time.Since(t0), err
	}
	var tr, un []float64
	for i := 0; i < 3; i++ {
		for _, f := range []struct {
			run func() (time.Duration, error)
			out *[]float64
		}{{traced, &tr}, {untraced, &un}} {
			d, err := f.run()
			if err != nil {
				return err
			}
			*f.out = append(*f.out, ms(d))
		}
	}
	overhead := median(tr)/median(un) - 1
	b.printf("tracing overhead on the mcf grid at Workers=1: traced %.1f ms, untraced %.1f ms (medians of 3): %+.2f%%",
		median(tr), median(un), 100*overhead)
	b.set("trace.overhead_frac", "ratio", overhead)
	return nil
}

// fleetLayers reads the fleet report's deterministic counters.
func fleetLayers(b *bench) error {
	v := b.variant()
	fr, err := runFleetOnce(v)
	events := int64(fleetParams(v).Events)
	b.ops(events)
	if err != nil {
		b.fail(events, "fleet: %v", err)
		return nil
	}
	if got, want := fingerprintDigest(fr.report), expected().Fleet[fmt.Sprint(v)]; got != want {
		b.fail(events, "fleet fingerprint %s, recorded %s (variant %d)", got, want, v)
	}
	rep := fr.report
	b.printf("span fleet.New %.1f ms, fleet.Run %.1f ms: %d searches, %d unique probes, %d epochs",
		ms(fr.setup), ms(fr.run), rep.Searches, rep.UniqueProbes, rep.Epochs)
	b.set("fleet.searches", "count", float64(rep.Searches))
	b.set("fleet.unique_probes", "count", float64(rep.UniqueProbes))
	b.set("fleet.epochs", "count", float64(rep.Epochs))
	return nil
}

// timingProber times every probe that reaches the closed-form surfaces,
// i.e. every surface-cache miss.
type timingProber struct {
	n, ns atomic.Int64
}

func (p *timingProber) Probe(bench string, cfg econ.Config) (float64, error) {
	t0 := time.Now()
	v, err := fleet.SyntheticProber{}.Probe(bench, cfg)
	p.ns.Add(int64(time.Since(t0)))
	p.n.Add(1)
	return v, err
}

// applyLocal executes a membership op on an in-process allocator; receipts
// collects each committed op's receipt.
func applyLocal(a *alloc.Allocator, receipts *[]alloc.Receipt) func(alloc.OpRecord) (uint64, error) {
	return func(rec alloc.OpRecord) (uint64, error) {
		var rc alloc.Receipt
		var err error
		switch rec.Kind {
		case "arrive":
			rc, err = a.Arrive(rec.Name, rec.Bench, econ.Utility{K: rec.K, Budget: rec.Budget})
		case "phase":
			rc, err = a.Reconfigure(rec.Name, rec.Phase)
		default:
			rc, err = a.Depart(rec.Name)
		}
		if err == nil && receipts != nil {
			*receipts = append(*receipts, rc)
		}
		return rc.Seq, err
	}
}

// allocLayers times the allocation library in process: bid pricing on the
// serve-bid cases, membership ops at the serve-churn population, and the
// reprice cost at 10 and 100 residents. It returns the median in-process
// bid time in microseconds.
func allocLayers(b *bench, cases []bidCase) (float64, error) {
	tp := &timingProber{}
	a, err := alloc.New(allocParams, tp)
	if err != nil {
		return 0, err
	}
	for _, c := range cases {
		if _, err := a.PriceBid(c.bench, c.u, c.m); err != nil {
			return 0, err
		}
	}
	st0 := a.Stats()
	b.set("market.unique_points", "count", float64(st0.UniquePoints))
	b.set("market.probe_us", "us", float64(tp.ns.Load())/float64(tp.n.Load())/1e3)

	// Warm bids, each case in a seeded order, several rounds.
	rng := b.rng()
	var bidUs []float64
	for round := 0; round < 20; round++ {
		for _, i := range rng.Perm(len(cases)) {
			c := &cases[i]
			t0 := time.Now()
			br, err := a.PriceBid(c.bench, c.u, c.m)
			bidUs = append(bidUs, float64(time.Since(t0))/1e3)
			b.ops(1)
			if err != nil || !reflect.DeepEqual(alloc.NormalizeBid(br), c.want) {
				b.fail(1, "in-process bid %s: %+v (err %v), want %+v", c.desc, br, err, c.want)
			}
		}
	}
	st1 := a.Stats()
	bids := summarize(bidUs)
	b.printf("span alloc.PriceBid (warm): %s", bids.String("us"))
	b.set("alloc.price_bid_us", "us", bids.p50)
	b.set("market.lookups_per_search", "count", float64(st1.ProbeLookups-st0.ProbeLookups)/float64(st1.Searches-st0.Searches))

	// Membership ops at the serve-churn population, serial so the search
	// count per op is deterministic.
	var receipts []alloc.Receipt
	ca, err := alloc.New(allocParams, fleet.SyntheticProber{})
	if err != nil {
		return 0, err
	}
	ch := &churner{rng: b.rng(), apply: applyLocal(ca, &receipts)}
	for i := 0; i < churnResidents; i++ {
		if err := ch.op("arrive"); err != nil {
			return 0, err
		}
	}
	c0, r0 := ca.Stats(), len(receipts)
	var opUs []float64
	apply := ch.apply
	ch.apply = func(rec alloc.OpRecord) (uint64, error) {
		t0 := time.Now()
		seq, err := apply(rec)
		opUs = append(opUs, float64(time.Since(t0))/1e3)
		return seq, err
	}
	for i := 0; i < 60; i++ {
		if err := ch.cycle(); err != nil {
			b.fail(1, "in-process churn: %v", err)
			break
		}
	}
	c1 := ca.Stats()
	b.ops(int64(len(opUs)))
	if _, err := ca.Verify(); err != nil {
		b.fail(int64(len(opUs)), "in-process churn: %v", err)
	}
	iters, unconverged := 0, 0
	for _, rc := range receipts[r0:] {
		if rc.Result != nil {
			iters += rc.Result.Iterations
			if rc.Result.Iterations >= maxIter {
				unconverged++
			}
		}
	}
	ops := summarize(opUs)
	nOps := float64(c1.Ops - c0.Ops)
	b.printf("span alloc membership op at %d residents: %s; %d searches over %d ops in %d epochs",
		churnResidents, ops.String("us"), c1.Searches-c0.Searches, c1.Ops-c0.Ops, c1.Epochs-c0.Epochs)
	b.set("alloc.op_us", "us", ops.p50)
	b.set("alloc.searches_per_op", "count", float64(c1.Searches-c0.Searches)/nOps)
	b.set("econ.tatonnement_iters_per_epoch", "count", float64(iters)/float64(c1.Epochs-c0.Epochs))
	b.set("econ.unconverged_epochs", "count", float64(unconverged))
	b.set("alloc.fallbacks", "count", float64(st1.Fallbacks+c1.Fallbacks))

	// Reprice cost against the resident count: arrive+depart pairs on a
	// population held at n.
	for _, n := range []int{10, 100} {
		ra, err := alloc.New(allocParams, fleet.SyntheticProber{})
		if err != nil {
			return 0, err
		}
		rch := &churner{rng: b.rng(), apply: applyLocal(ra, nil)}
		for i := 0; i < n; i++ {
			if err := rch.op("arrive"); err != nil {
				return 0, err
			}
		}
		var us []float64
		for i := 0; i < 10; i++ {
			for _, kind := range []string{"arrive", "depart"} {
				t0 := time.Now()
				if err := rch.op(kind); err != nil {
					return 0, err
				}
				us = append(us, float64(time.Since(t0))/1e3)
			}
		}
		b.ops(int64(n + len(us)))
		d := summarize(us)
		b.printf("span alloc reprice at %d residents: %s", n, d.String("us"))
		b.set(fmt.Sprintf("alloc.reprice_us.r%d", n), "us", d.p50)
	}
	return bids.p50, nil
}

// daemonVars is the part of /debug/vars the traced run reads.
type daemonVars struct {
	Memstats struct {
		Mallocs      uint64
		PauseTotalNs uint64
		NumGC        uint32
	} `json:"memstats"`
}

type daemonStats struct {
	Alloc alloc.Stats `json:"alloc"`
}

// daemonLayers measures the daemon from outside: CPU, allocations and GC
// per bid under a closed loop of two connections, the HTTP/JSON share of a
// bid's round trip, the load generator's own lateness, and the epoch
// batching of a short churn.
func daemonLayers(b *bench, cases []bidCase, priceUs float64) error {
	d, err := startDaemon(b.sharingd)
	if err != nil {
		return err
	}
	defer d.stop()
	rng := b.rng()
	for _, c := range cases {
		b.ops(1)
		body, err := d.post("/v1/bid", c.body)
		if err == nil {
			err = c.check(body)
		}
		if err != nil {
			b.fail(1, "warm-up: %v", err)
		}
	}

	read := func() (daemonVars, daemonStats, time.Duration, error) {
		var v daemonVars
		var s daemonStats
		if err := d.getJSON("/debug/vars", &v); err != nil {
			return v, s, 0, err
		}
		if err := d.getJSON("/v1/stats", &s); err != nil {
			return v, s, 0, err
		}
		cpu, err := cpuTime(d.pid)
		return v, s, cpu, err
	}
	v0, s0, cpu0, err := read()
	if err != nil {
		return err
	}
	const n = 20000
	pick := make([]int, n)
	for i := range pick {
		pick[i] = rng.Intn(len(cases))
	}
	bodies := make([][]byte, n)
	ss := closedLoop(n, 2, func(i int) error {
		var err error
		bodies[i], err = d.post("/v1/bid", cases[pick[i]].body)
		return err
	})
	v1, s1, cpu1, err := read()
	if err != nil {
		return err
	}
	for i := range ss {
		if ss[i].err == nil {
			ss[i].err = cases[pick[i]].check(bodies[i])
		}
	}
	load := account(ss)
	b.ops(int64(load.sent))
	if load.failed > 0 {
		b.fail(int64(load.failed), "%d of %d closed-loop bids failed", load.failed, load.sent)
	}
	bidsServed := float64(s1.Alloc.Bids - s0.Alloc.Bids)
	b.printf("closed loop, 2 connections: %d bids at %.0f/s, latency %s; daemon CPU %.2fs, %d mallocs, %d GCs",
		load.sent, load.achieved, load.latency.String("ms"), (cpu1 - cpu0).Seconds(),
		v1.Memstats.Mallocs-v0.Memstats.Mallocs, v1.Memstats.NumGC-v0.Memstats.NumGC)
	b.set("sharingd.cpu_us_per_req", "us", float64(cpu1-cpu0)/1e3/bidsServed)
	b.set("sharingd.allocs_per_req", "count", float64(v1.Memstats.Mallocs-v0.Memstats.Mallocs)/bidsServed)
	b.set("sharingd.gc_pause_ms", "ms", float64(v1.Memstats.PauseTotalNs-v0.Memstats.PauseTotalNs)/1e6)
	b.set("alloc.searches_per_bid", "count", float64(s1.Alloc.Searches-s0.Alloc.Searches)/bidsServed)
	b.set("market.cache_hit_ratio", "ratio", float64(s1.Alloc.ProbeLookups-s1.Alloc.CacheMisses)/float64(s1.Alloc.ProbeLookups))

	// One connection, one bid at a time: the round trip minus the
	// in-process pricing of the same cases is the HTTP/JSON face.
	seq := closedLoop(4000, 1, func(i int) error {
		body, err := d.post("/v1/bid", cases[pick[i]].body)
		if err == nil {
			err = cases[pick[i]].check(body)
		}
		return err
	})
	rtt := account(seq)
	b.ops(int64(rtt.sent))
	if rtt.failed > 0 {
		b.fail(int64(rtt.failed), "%d of %d sequential bids failed", rtt.failed, rtt.sent)
	}
	b.printf("span http round trip (1 connection): %s; in-process PriceBid p50 %.2f us", rtt.latency.String("ms"), priceUs)
	b.set("http.overhead_us", "us", rtt.latency.p50*1e3-priceUs)

	// The open-loop generator's lateness at the reference rate.
	ref, _ := sendBids(b, d, cases, rng, refRate, int(refRate), 2)
	b.printf("open loop %.0f bids/s: generator lateness %s", refRate, ref.late.String("ms"))
	b.set("gen.late_ms_p99", "ms", ref.late.tail)

	// A short churn from one connection: epochs per committed op.
	ch := &churner{rng: b.rng(), apply: postOp(d)}
	for i := 0; i < churnResidents; i++ {
		if err := ch.op("arrive"); err != nil {
			return err
		}
	}
	for i := 0; i < 30; i++ {
		if err := ch.cycle(); err != nil {
			b.fail(1, "churn: %v", err)
			break
		}
	}
	b.ops(int64(len(ch.log)))
	if err := checkMarket(d, ch.log); err != nil {
		b.fail(int64(len(ch.log)), "final market differs from the sequential replay: %v", err)
	}
	var s2 daemonStats
	if err := d.getJSON("/v1/stats", &s2); err != nil {
		return err
	}
	b.set("alloc.ops_per_epoch", "count", float64(s2.Alloc.Ops)/float64(s2.Alloc.Epochs))
	b.printf("daemon churn: %d ops in %d epochs", s2.Alloc.Ops, s2.Alloc.Epochs)
	return nil
}
