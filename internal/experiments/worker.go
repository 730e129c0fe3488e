package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"sharing/internal/distrib"
	"sharing/internal/trace"
)

// The worker side of the procpool execution backend (see DESIGN.md,
// "Distributed execution backends"): a request/response loop over the
// binary SREQ/SRES frames of internal/trace. One loop serves one pipe
// serially; parallelism comes from the pool running several workers.

// ServeWorker reads simulation requests from in and writes one result frame
// per request to out, until in reaches EOF (the pool closed the pipe: clean
// shutdown). Requests execute through r's ordinary measurement path — its
// results memo and last-trace memo — so a worker asked twice for one key
// simulates once. Simulation failures are reported in-band (SimResult.Err)
// and the loop continues; only transport failures end it.
func ServeWorker(r *Runner, in io.Reader, out io.Writer) error {
	br := bufio.NewReader(in)
	bw := bufio.NewWriter(out)
	for {
		req, err := trace.ReadRequest(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("experiments: worker read: %w", err)
		}
		res := trace.SimResult{ID: req.ID}
		m, err := r.MeasureRequest(req)
		if err != nil {
			res.Err = err.Error()
		} else {
			res.Cycles = m.Cycles
			res.Insts = m.Insts
			res.Sampled = m.Sampled
			res.Windows = m.Windows
			res.RelCI95 = m.RelCI95
		}
		if err := trace.WriteResult(bw, res); err != nil {
			return fmt.Errorf("experiments: worker write: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("experiments: worker flush: %w", err)
		}
	}
}

// MaybeWorker diverts the current process into worker mode when the
// procpool marker environment variable is set: it serves the frame loop on
// stdin/stdout and exits. The sweep-facing commands call it first thing in
// main, which lets the procpool backend re-exec whatever binary is already
// running as its worker — there is no separate worker binary.
func MaybeWorker() {
	//ssim:nolint detrand: process-role dispatch only; the env var selects worker mode, it never reaches a simulation result
	if os.Getenv(distrib.WorkerEnv) != "1" {
		return
	}
	if err := ServeWorker(NewRunner(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// NewBackend builds the execution backend selected on a command line:
// "inproc" (nil — the Runner's built-in semaphore-bounded pool) or
// "procpool" with shards worker subprocesses re-execing the current binary
// in worker mode. The caller must Close a non-nil backend when done.
func NewBackend(kind string, shards int) (distrib.Backend, error) {
	switch kind {
	case "", "inproc":
		return nil, nil
	case "procpool":
		return distrib.NewProcpool(distrib.ProcpoolParams{Shards: shards})
	default:
		return nil, fmt.Errorf("experiments: unknown execution backend %q (want inproc or procpool)", kind)
	}
}
