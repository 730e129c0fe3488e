package distrib

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"

	"sharing/internal/trace"
)

// Environment contract between the procpool and the sweep-facing commands:
// a command launched with WorkerEnv=1 must serve the SREQ/SRES worker loop
// on stdin/stdout instead of parsing its own flags (experiments.MaybeWorker
// implements that re-exec hook, so every such command is its own worker).
const (
	// WorkerEnv marks a subprocess as a simulation worker.
	WorkerEnv = "SSIM_WORKER"
	// WorkerTraceCacheEnv optionally points workers at a shared on-disk
	// trace cache so each shard deserializes traces instead of
	// regenerating them.
	WorkerTraceCacheEnv = "SSIM_WORKER_TRACECACHE"
)

// SelfWorkerCmd returns the argv and environment markers that re-exec the
// current binary in worker mode — the default way the sweep commands spawn
// shards, so no separately installed worker binary is needed.
func SelfWorkerCmd() (argv, env []string, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("distrib: resolving worker binary: %w", err)
	}
	return []string{exe}, []string{WorkerEnv + "=1"}, nil
}

// ProcpoolParams configures a multi-process shard backend.
type ProcpoolParams struct {
	// Shards is the worker subprocess count (default 2, minimum 1).
	Shards int
	// WorkerCmd is the argv launching one worker. Empty means re-exec the
	// current binary with WorkerEnv set (SelfWorkerCmd).
	WorkerCmd []string
	// Env entries are appended to the inherited environment of every
	// worker (e.g. WorkerTraceCacheEnv).
	Env []string
	// Retries is the per-request redispatch budget after a worker crash
	// (default 2). A request failing Retries+1 transport attempts fails
	// the Execute call; simulation-level errors are never retried.
	Retries int
	// Stderr receives worker stderr (default: the parent's stderr), so
	// crash diagnostics are not swallowed.
	Stderr io.Writer
}

// call is one in-flight request: written by the shard that adopts it,
// published to the waiting Execute caller by closing done.
type call struct {
	req  trace.SimRequest
	res  trace.SimResult
	err  error
	done chan struct{}
}

// Procpool fans requests out to worker subprocesses over the binary
// SREQ/SRES frame protocol. Each shard goroutine owns one worker process
// exclusively (private state, no cross-shard sharing); crashed workers are
// restarted and the victim request re-dispatched up to Retries times.
type Procpool struct {
	p         ProcpoolParams
	reqs      chan *call
	closed    chan struct{}
	draining  chan struct{}
	wg        sync.WaitGroup
	once      sync.Once
	drainOnce sync.Once
	nextID    atomic.Uint64
}

// NewProcpool launches the shard goroutines (worker processes start lazily
// on first dispatch, so an idle backend costs nothing).
func NewProcpool(p ProcpoolParams) (*Procpool, error) {
	if p.Shards <= 0 {
		p.Shards = 2
	}
	if p.Retries <= 0 {
		p.Retries = 2
	}
	if len(p.WorkerCmd) == 0 {
		argv, env, err := SelfWorkerCmd()
		if err != nil {
			return nil, err
		}
		p.WorkerCmd = argv
		p.Env = append(env, p.Env...)
	}
	if p.Stderr == nil {
		p.Stderr = os.Stderr
	}
	b := &Procpool{
		p:        p,
		reqs:     make(chan *call),
		closed:   make(chan struct{}),
		draining: make(chan struct{}),
	}
	for i := 0; i < p.Shards; i++ {
		b.wg.Add(1)
		go b.shardLoop()
	}
	return b, nil
}

// Shards reports the worker subprocess count.
func (b *Procpool) Shards() int { return b.p.Shards }

// Remote reports that requests leave the calling process, so callers should
// not pre-generate traces the parent will never simulate with.
func (b *Procpool) Remote() bool { return true }

// String names the backend for progress banners.
func (b *Procpool) String() string { return fmt.Sprintf("procpool(%d)", b.p.Shards) }

// Execute implements Backend: enqueue, wait for a shard to finish the round
// trip. Safe for any number of concurrent callers; parallelism is bounded
// by the shard count.
func (b *Procpool) Execute(req trace.SimRequest) (trace.SimResult, error) {
	req.ID = b.nextID.Add(1)
	c := &call{req: req, done: make(chan struct{})}
	select {
	case b.reqs <- c:
	case <-b.draining:
		return trace.SimResult{}, ErrStopped
	case <-b.closed:
		return trace.SimResult{}, ErrClosed
	}
	// No draining case here: once a shard adopted the request it is
	// in-flight, and a drain lets in-flight work finish and be journaled.
	select {
	case <-c.done:
		return c.res, c.err
	case <-b.closed:
		return trace.SimResult{}, ErrClosed
	}
}

// Stop implements Stopper: requests still waiting for a shard fail fast with
// ErrStopped; requests a shard already adopted run to completion. Workers
// stay up until Close.
func (b *Procpool) Stop() { b.drainOnce.Do(func() { close(b.draining) }) }

// Close stops the shards, shuts their workers down (EOF on stdin), and
// waits for them to exit.
func (b *Procpool) Close() error {
	b.once.Do(func() { close(b.closed) })
	b.wg.Wait()
	return nil
}

// shardLoop is the dispatch loop of one shard: it owns one worker process
// (started lazily, restarted after crashes) and serves requests one at a
// time. All mutable state is goroutine-private; results cross to the
// caller only through the call's done channel.
//
//ssim:parallel
func (b *Procpool) shardLoop() {
	defer b.wg.Done()
	var w *procWorker
	defer func() {
		if w != nil {
			w.stop()
		}
	}()
	for {
		select {
		case <-b.closed:
			return
		case c := <-b.reqs:
			w = b.serve(w, c)
		}
	}
}

// serve runs one request against the shard's worker, restarting it on
// transport failures up to the retry budget. It returns the (possibly
// replaced) worker for reuse on the next request.
func (b *Procpool) serve(w *procWorker, c *call) *procWorker {
	var lastErr error
	for attempt := 0; attempt <= b.p.Retries; attempt++ {
		if w == nil {
			var err error
			w, err = b.startWorker()
			if err != nil {
				lastErr = err
				continue
			}
		}
		res, err := w.roundTrip(c.req)
		if err == nil {
			c.res = res
			close(c.done)
			return w
		}
		// Transport failure: the worker is in an unknown state (crashed,
		// torn frame, desynchronized ids) — kill it and retry fresh.
		lastErr = err
		fmt.Fprintf(b.p.Stderr, "distrib: worker crash (attempt %d/%d): %v\n", attempt+1, b.p.Retries+1, err)
		w.kill()
		w = nil
	}
	c.err = fmt.Errorf("distrib: request %d failed after %d attempts: %w", c.req.ID, b.p.Retries+1, lastErr)
	close(c.done)
	return nil
}

// procWorker is one worker subprocess and its frame pipes.
type procWorker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func (b *Procpool) startWorker() (*procWorker, error) {
	cmd := exec.Command(b.p.WorkerCmd[0], b.p.WorkerCmd[1:]...)
	//ssim:nolint detrand: workers inherit the parent environment for toolchain paths only; results derive solely from the request fields on the wire
	cmd.Env = append(os.Environ(), b.p.Env...)
	cmd.Stderr = b.p.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("distrib: worker stdin: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("distrib: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distrib: starting worker %q: %w", b.p.WorkerCmd[0], err)
	}
	return &procWorker{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// roundTrip ships one request and reads its result frame. Any failure —
// including an id mismatch, which means the byte streams are out of sync —
// is a transport error; the pool kills and replaces the worker.
func (w *procWorker) roundTrip(req trace.SimRequest) (trace.SimResult, error) {
	if err := trace.WriteRequest(w.in, req); err != nil {
		return trace.SimResult{}, fmt.Errorf("writing request: %w", err)
	}
	res, err := trace.ReadResult(w.out)
	if err != nil {
		return trace.SimResult{}, fmt.Errorf("reading result: %w", err)
	}
	if res.ID != req.ID {
		return trace.SimResult{}, fmt.Errorf("result id %d for request %d: stream desynchronized", res.ID, req.ID)
	}
	return res, nil
}

// stop shuts the worker down gracefully: EOF on stdin ends its loop, then
// reap. Used on Close, when the worker is known to be at a frame boundary.
func (w *procWorker) stop() {
	w.in.Close()
	w.cmd.Wait()
}

// kill tears the worker down hard: used after a transport failure, when the
// process may be wedged mid-frame.
func (w *procWorker) kill() {
	w.in.Close()
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	w.cmd.Wait()
}
