GO ?= go

.PHONY: build vet fmt-check test race race-determinism bench bench-fleet lint lint-strict market-smoke results-check fleet-smoke fuzz-smoke distrib-smoke serve-smoke perf-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean, except the analyzer testdata fixtures
# (some are deliberately unformatted) and the benchmark's build directory.
# gofmt -l names each offending file; any name fails the gate.
fmt-check:
	@out=$$(find . \( -name testdata -o -name .bench_build -o -name .git \) -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The simulator core, the parallel sweep runner, the concurrent allocation
# library, the sharded fleet simulator, and the trace generator (threads on a
# worker pool, each with its value pass on a second goroutine); run them
# under the race detector. The simulator runs on its own line: beside the
# other packages it comes too close to go test's 10-minute default timeout.
race:
	$(GO) test -race ./internal/sim
	$(GO) test -race ./internal/experiments ./internal/alloc ./internal/fleet ./internal/workload

# Scheduling-order shakeout: the byte-identity differential that proves
# determinism across the fleet shards, run twice under the race detector so
# an interleaving-dependent flake gets two chances to surface per CI run.
race-determinism:
	$(GO) test -race -count=2 -run 'TestFleetDeterminismAcrossShards' ./internal/fleet

bench:
	$(GO) test ./internal/sim -run '^$$' -bench BenchmarkMachineRun -benchtime 10x

# simlint enforces the determinism, hot-path, and parallel-phase invariants
# (see DESIGN.md, "Static analysis"): no wall-clock/global-rand/env reads in
# simulator packages, no order-dependent map iteration, allocation-free
# //ssim:hotpath functions, complete stats lifecycle methods, safe
# cycle-counter conversions, and — via the concurrency-aware passes — no
# unguarded shared writes, mixed atomic/plain access, scheduling-ordered
# float reductions, or completion-order merges in the parallel layers.
# The ./... pattern self-lints internal/analysis too.
lint:
	$(GO) run ./cmd/simlint ./...

# lint-strict is the CI annotation gate: the same analyzers, but emitting a
# SARIF log for PR annotation. Any diagnostic fails the build (simlint exits
# 1), and the log is written even on failure so CI can upload it.
lint-strict:
	$(GO) run ./cmd/simlint -sarif ./... > simlint.sarif; \
	status=$$?; \
	if [ $$status -ne 0 ]; then cat simlint.sarif; fi; \
	exit $$status

# The allocation core's bid-vs-grid differential on a 3-profile
# cross-section under the race detector: the exactness contract of its
# search (see DESIGN.md, "Incremental optimum search") plus the core's churn
# byte-identity and probe-economy tests, and the market clearing's
# properties on generated populations (nothing oversold, h(r) monotone, the
# root equal to a scan of r, grouping and budget invariance).
market-smoke:
	$(GO) test -race -short -run 'TestIncrementalBidMatchesGrid|TestChurnScenarioRuns' ./internal/experiments
	$(GO) test -race -run 'TestChurnByteIdentical|TestChurnProbeEconomy|TestPriceBidWarm' ./internal/alloc
	$(GO) test -race -run 'TestClearMarket' ./internal/econ

# The paper's outputs read from measured surfaces (Figs. 12-17, Tables 4-7)
# must regenerate byte-identically from the committed measurement memo,
# without simulating: each cmd/sweep and cmd/market experiment and
# cmd/phases, as run_experiments.sh runs them, reads a copy of
# results/perf.json and its output is compared with the committed file in
# results/. The copy must come back unchanged, or the run measured something
# the memo lacks. Every mismatch is reported before the target fails.
RESULTS_OUTPUTS = fig12:fig12_scalability fig13:fig13_cache_sensitivity \
	table4:table4_optima table5:table5_utilities table6:table6_markets \
	fig14:fig14_utility_surfaces fig15:fig15_fixed_gain fig16:fig16_hetero_gain \
	fig17:fig17_datacenter phases:table7_phases

results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	cp results/perf.json "$$tmp/perf.json" && \
	$(GO) build -o "$$tmp/sweep" ./cmd/sweep && \
	$(GO) build -o "$$tmp/market" ./cmd/market && $(GO) build -o "$$tmp/phases" ./cmd/phases && \
	status=0 && \
	for e in $(RESULTS_OUTPUTS); do \
		exp=$${e%%:*}; file=results/$${e#*:}.txt; \
		case $$exp in \
		phases) cmd="$$tmp/phases -n 300000";; \
		fig12|fig13) cmd="$$tmp/sweep -exp $$exp";; \
		*) cmd="$$tmp/market -exp $$exp";; \
		esac; \
		$$cmd -results "$$tmp/perf.json" -q > "$$tmp/out.txt" || status=1; \
		if cmp -s "$$tmp/out.txt" $$file; then echo "results-check: $$file ok"; \
		else echo "results-check: $$file differs"; diff $$file "$$tmp/out.txt" | head -20; status=1; fi; \
	done && \
	if ! cmp -s results/perf.json "$$tmp/perf.json"; then echo "results-check: the memo changed"; status=1; fi && \
	exit $$status

# Fleet determinism differential (1 vs 2/4/8 shards, byte-identical
# fingerprints under every policy combination), the golden fingerprint pins,
# the hand-computed energy pin, the event record's layout pin and the
# departure calendar's differential against a sort-everything reference,
# under the race detector, then an
# acceptance-scale synthetic run through the CLI: 2,000 machines / 20,000 VM
# lifecycle events.
fleet-smoke:
	$(GO) test -race -run 'TestFleetDeterminismAcrossShards|TestFleetGoldenFingerprints|TestMachineEnergyHandComputed|TestEventLayout|TestCalendar' ./internal/fleet
	$(GO) run ./cmd/fleet -synthetic -machines 2000 -events 20000 -shards 4

# Short coverage-guided runs of the fuzz targets, one per line since -fuzz
# takes a single target. FuzzPlacer: decoded alloc/free sequences on small
# fleets must keep pick equal to the brute-force reference and the bitset
# index, summary level included, consistent. FuzzEventStream: decoded
# departure schedules and takes must keep the event stream's batches equal
# to the sort-everything reference's. FuzzSurfaceCache: decoded
# (surface, phase, configuration) probe sequences, on and off the lattice,
# must match a map reference: values equal the prober's, off-lattice and
# unsupported phase probes are refused, and Unique and Misses both equal the
# number of distinct points probed. FuzzParseConfig: the XML machine
# configuration decoder must never panic, accepted parameters must pass
# Validate and fit the flight ring, and a WriteConfig/ParseConfig round trip
# must give equal Params, and every width it carries must be one a NoC port
# meter accepts. FuzzMeter: decoded reservation streams (any width, start
# cycle and mix of steps, window jumps and far jumps within the meter's
# exact range) must get the grants of the earlier cycle<<16 | count meter
# kept in the test as the reference. FuzzCache: decoded operation streams
# over every oracle geometry must give the flat packed tag array the
# returns and counters of the earlier per-set-slice cache kept in the test.
# FuzzMemImage: decoded loads and stores of any word, zero included, must
# match a map reference in Load and RangeWords. FuzzRunnerLoad: an arbitrary
# results file plus a checkpoint journal with a torn tail must load without
# panic, keep only the journal's complete records, and survive a Save/Load
# round trip unchanged. FuzzHandlers: arbitrary bytes POSTed to sharingd's
# bid, arrive, depart and phase endpoints in process must never panic, must
# get a 200, 400, 413 or 422, a 200 reply must decode, and a refused op must
# leave the market and the op log unchanged. FuzzClearMarket: decoded
# supplies and populations over byte-valued surfaces must clear without
# panic, refuse K < 1 and zero budgets, and give finite positive prices,
# nothing oversold and the allocations in input order. A failing input lands in
# the package's testdata/fuzz, where plain `go test` replays it. Minimizing
# a new input is capped at 2 s, so a large input cannot spend the whole
# window being minimized.
fuzz-smoke:
	$(GO) test ./internal/fleet -run '^$$' -fuzz '^FuzzPlacer$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/fleet -run '^$$' -fuzz '^FuzzEventStream$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/market -run '^$$' -fuzz '^FuzzSurfaceCache$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzParseConfig$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/noc -run '^$$' -fuzz '^FuzzMeter$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzCache$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/isa -run '^$$' -fuzz '^FuzzMemImage$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzRunnerLoad$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./cmd/sharingd -run '^$$' -fuzz '^FuzzHandlers$$' -fuzztime 15s -fuzzminimizetime 2s
	$(GO) test ./internal/econ -run '^$$' -fuzz '^FuzzClearMarket$$' -fuzztime 15s -fuzzminimizetime 2s

# Fleet throughput at acceptance scale (BenchmarkFleet2000x20000), then the
# placement index and the departure calendar alone at the fleet workload's
# scale (allocs/op must be 0 for both; TestPlacerAllocsZero and
# TestDepartureQueueAllocsZero pin it under `make test`).
bench-fleet:
	$(GO) test ./internal/fleet -run '^$$' -bench BenchmarkFleet2000x20000 -benchtime 5x
	$(GO) test ./internal/fleet -run '^$$' -bench BenchmarkPlacer -benchtime 100000x
	$(GO) test ./internal/fleet -run '^$$' -bench BenchmarkDepartureQueue -benchtime 1000000x

# Execution and checkpoint/resume under the race detector: journal-only
# checkpoint/resume with zero re-runs, recovery from a truncated results
# file, the drain short-circuit, the runner's worker bound and queue
# shedding on Stop, the journal itself, and the scripted SIGINT
# kill-and-resume round trip through the real sweep CLI.
distrib-smoke:
	$(GO) test -race -count=1 -run 'TestCheckpointResumeZeroReruns|TestSweepCompletesAfterTruncatedResults|TestStopShortCircuits|TestRunnerBoundsAndShedsQueue' ./internal/experiments
	$(GO) test -race -count=1 ./internal/distrib
	$(GO) test -race -count=1 -run 'TestSweepSigintResume' ./cmd/sweep

# Allocation-serving acceptance: the concurrent allocation library and the
# server-shaped SurfaceCache load under the race detector (concurrent results
# must DeepEqual the sequential reference), and the daemon's own tests under
# it (endpoints, drain, concurrent bids beside membership churn). Then
# perfbench's two serving workloads, one short untraced run each at seed 0,
# against a real sharingd -synthetic child: serve-bid and serve-churn check
# every bid against an in-process allocator and the final market against a
# sequential replay, and each last line must report correct=true and
# failed=0, matched as perf-smoke matches them. serve-bid's rate_per_s must
# also be at least 2,000 bids/s.
serve-smoke:
	$(GO) test -race -count=1 ./internal/alloc
	$(GO) test -race -count=1 -run 'TestSurfaceCacheServerLoad' ./internal/market
	$(GO) test -race -count=1 ./cmd/sharingd
	@for w in serve-bid serve-churn; do \
		line=$$(bash perfbench/run.sh --workload $$w --seed 0 --seconds 2 --trace 0 2>/dev/null | tail -n 1); \
		echo "$$w seed 0: $$line"; \
		case "$$line" in *'"correct":true,'*'"failed":0,'*) ;; *) echo "serve-smoke: $$w seed 0 is not correct=true, failed=0"; exit 1;; esac; \
		if [ $$w = serve-bid ]; then \
			rate=$$(echo "$$line" | sed -n 's/.*"rate_per_s":{"value":\([^,}]*\).*/\1/p'); \
			awk -v r="$$rate" 'BEGIN { exit !(r + 0 >= 2000) }' || { echo "serve-smoke: serve-bid rate_per_s '$$rate' is below 2000"; exit 1; }; \
		fi; \
	done

# Benchmark correctness gate: one short untraced run of each perfbench
# workload on seeds 0-3. Each run checks its results against the digests
# recorded in perfbench/expected.json, and its last line must report
# correct=true and failed=0. Timings are printed but never gated. Then the
# benchmark module's own tests, which `go test ./...` at the root does not
# reach because perfbench is a separate module.
perf-smoke:
	@for w in sweep fleet; do for s in 0 1 2 3; do \
		line=$$(bash perfbench/run.sh --workload $$w --seed $$s --seconds 1 --trace 0 2>/dev/null | tail -n 1); \
		echo "$$w seed $$s: $$line"; \
		case "$$line" in *'"correct":true,'*'"failed":0,'*) ;; *) echo "perf-smoke: $$w seed $$s is not correct=true, failed=0"; exit 1;; esac; \
	done; done
	cd perfbench && $(GO) test ./...

check: build vet fmt-check test race race-determinism lint market-smoke results-check fleet-smoke fuzz-smoke distrib-smoke serve-smoke perf-smoke
