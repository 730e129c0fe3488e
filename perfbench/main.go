// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed measurement window, checks every output it gets back, and
// prints its metrics as one JSON object on the last line of standard
// output. The lines before it are the human-readable report: the host
// record, then every figure with its unit and sample count.
//
//	perfbench -sharingd PATH -workload NAME -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints the end-to-end metrics, measured with nothing
// wrapped. With -trace 1 it prints the per-layer metrics instead, taken by
// timing calls into each package's public functions from outside and by
// reading the daemon's own /v1/stats and /debug/vars. NOTES.md describes the
// workloads, the metrics and the layer each metric belongs to.
//
// perfbench/run.sh builds this program and the daemon from source first;
// use it rather than calling the binary directly.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"). Each workload maps them onto its own unit of work; see
// NOTES.md.
const (
	mSetup = "setup_s"    // s: set-up time, median of several set-ups
	mRSS   = "rss_mb"     // MB: peak RSS (VmHWM) of the process under test
	mRate  = "rate_per_s" // 1/s: work completed per second
	mP50   = "p50_ms"     // ms: median latency of one unit of work
)

var endToEnd = map[string]string{mSetup: "s", mRSS: "MB", mRate: "1/s", mP50: "ms"}

// bench is the state of one benchmark run: its inputs, the operation
// counts behind failed_frac, and the metrics gathered so far.
type bench struct {
	seed     int64
	window   time.Duration
	sharingd string

	attempted, failed int64
	metrics           map[string]metric
}

// variant selects one of the recorded input variants (expected.json) from
// the seed, so the correctness digests of every seed are known in advance.
func (b *bench) variant() int { return int(uint64(b.seed) % variants) }

// rng is the seeded source of the workload's generated inputs.
func (b *bench) rng() *rand.Rand { return rand.New(rand.NewSource(b.seed)) }

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// ops records n attempted operations.
func (b *bench) ops(n int64) { b.attempted += n }

// fail records n failed operations (or one failed check) and reports why.
func (b *bench) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	b.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// printf writes one report line to standard output.
func (b *bench) printf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

var workloads = map[string]func(*bench) error{
	"sweep":       runSweep,
	"serve-bid":   runServeBid,
	"serve-churn": runServeChurn,
	"fleet":       runFleet,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: sweep, serve-bid, serve-churn or fleet")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 30, "measurement window in seconds")
		traced   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		sharingd = flag.String("sharingd", "", "path to the sharingd binary (serving workloads and the traced run)")
		record   = flag.Bool("record", false, "print the correctness digests of every input variant as expected.json and exit")
	)
	flag.Parse()
	if *record {
		if err := recordExpected(); err != nil {
			fatal(err)
		}
		return
	}
	if _, ok := workloads[*name]; !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	b := &bench{
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		sharingd: *sharingd,
		metrics:  map[string]metric{},
	}
	printHost(b, *name)
	out, err := measure(b, *name, *traced == 1)
	if err != nil {
		fatal(err)
	}
	b.printf("failed_frac = %.6f (%d failed of %d attempted)", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// measure runs the named workload (or, traced, the per-layer suite) and
// builds the result line from the declared metric set.
func measure(b *bench, name string, traced bool) (result, error) {
	run, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	want := endToEnd
	if traced {
		want, run = perLayer, runLayers
	}
	if err := run(b); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	out := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for n, unit := range want {
		m, ok := b.metrics[n]
		if !ok || m.Unit != unit {
			return result{}, fmt.Errorf("%s: metric %s missing or not in %s", name, n, unit)
		}
		out.Metrics[n] = m
	}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	out.Correct = out.Failed == 0
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printHost records the host and the code under test with every result.
func printHost(b *bench, workload string) {
	host := map[string]any{
		"workload":   workload,
		"seed":       b.seed,
		"variant":    b.variant(),
		"seconds":    b.window.Seconds(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     gitCommit(),
		"source":     sourceDigest(),
	}
	line, _ := json.Marshal(host)
	b.printf("host: %s", line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory of the working directory
// without running git; a plain source tree has none.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, l := range strings.Split(string(packed), "\n") {
			if id, r, ok := strings.Cut(l, " "); ok && r == name {
				return id
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory, identifying the code under test where there is no commit.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// The recorded correctness digests, one per input variant.

const variants = 4

//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	// Sweep maps a variant to the digest of (bench, cfg, cycles, insts)
	// over the sweep lattice.
	Sweep map[string]string `json:"sweep"`
	// Fleet maps a variant to the SHA-256 of fleet.Report.Fingerprint().
	Fleet map[string]string `json:"fleet"`
}

func expected() expectation {
	var e expectation
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		fatal(fmt.Errorf("expected.json: %w", err))
	}
	return e
}

// recordExpected recomputes every variant's digests and prints them in the
// expected.json format. Run it only after a change that is meant to alter
// simulated results, and say why in the change.
func recordExpected() error {
	e := expectation{Sweep: map[string]string{}, Fleet: map[string]string{}}
	for v := 0; v < variants; v++ {
		key := fmt.Sprint(v)
		d, _, err := sweepGrid(newSweepRunner(v, 2))
		if err != nil {
			return err
		}
		e.Sweep[key] = d
		rep, err := runFleetOnce(v)
		if err != nil {
			return err
		}
		e.Fleet[key] = fingerprintDigest(rep.report)
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
