package experiments

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
)

// Open builds the Runner of the command named cmd: n instructions per
// thread, seed (DefaultSeed if 0), and the results cache at results, whose
// persisted measurements and checkpoint journal it loads. Unless quiet,
// every completed measurement prints a progress line to stderr. Measurements
// read back from an earlier run are counted on stderr.
//
// The first Ctrl-C drains instead of killing: the runner stops dispatching
// new simulations and lets in-flight ones finish and journal, so the
// command's driver returns ErrStopped and End saves what completed. A
// second Ctrl-C falls through to the default hard kill.
func Open(cmd string, n int, seed int64, results string, quiet bool) (*Runner, error) {
	r := NewRunner()
	r.TraceLen, r.Seed, r.ResultsPath = n, seed, results
	r.cmd, r.log = cmd, os.Stderr
	if !quiet {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if err := r.Load(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	loaded := len(r.cache)
	r.mu.Unlock()
	if loaded > 0 {
		fmt.Fprintf(r.log, "%s: recovered %d checkpointed measurements (%d from the journal)\n", cmd, loaded, r.Recovered())
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		<-sigs
		fmt.Fprintf(r.log, "%s: interrupt - draining in-flight simulations (Ctrl-C again to kill)\n", cmd)
		r.Stop()
		signal.Stop(sigs)
	}()
	return r, nil
}

// End finishes a command's run whose outcome is err: it saves the results
// cache and returns the process exit status. Status 0 is success; 130 is an
// interrupt (err wraps ErrStopped), after which rerunning the same command
// re-executes none of the completed simulations; 1 is any other failure,
// reported on stderr.
func (r *Runner) End(err error) int {
	log := r.log
	if log == nil {
		log = os.Stderr
	}
	saveErr := r.Save()
	switch {
	case errors.Is(err, ErrStopped):
		if saveErr != nil {
			fmt.Fprintf(log, "%s: saving after interrupt: %v\n", r.cmd, saveErr)
		}
		fmt.Fprintf(log, "%s: interrupted after %d simulations; completed measurements are checkpointed - rerun the same command to continue\n", r.cmd, r.SimRuns())
		return 130
	case err != nil:
		fmt.Fprintf(log, "%s: %v\n", r.cmd, err)
		return 1
	case saveErr != nil:
		fmt.Fprintf(log, "%s: %v\n", r.cmd, saveErr)
		return 1
	}
	fmt.Fprintf(log, "%s: executed %d simulations\n", r.cmd, r.SimRuns())
	return 0
}
