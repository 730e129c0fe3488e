package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The interrupt/resume test drives the real sweep binary: TestMain re-execs
// this test binary with runMainEnv set, which runs sweep's main() on the
// scripted flags.
const runMainEnv = "SWEEP_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepCmd builds an exec.Cmd running sweep's main with the given flags.
func sweepCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

var (
	executedRE    = regexp.MustCompile(`executed (\d+) simulations`)
	interruptedRE = regexp.MustCompile(`interrupted after (\d+) simulations`)
	recoveredRE   = regexp.MustCompile(`recovered (\d+) checkpointed measurements`)
)

func matchCount(t *testing.T, re *regexp.Regexp, out string) int {
	t.Helper()
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no %v in output:\n%s", re, out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSweepSigintResume scripts the kill-and-resume round trip: start a
// sweep, SIGINT it after the first measurement completes, and verify it
// drains gracefully (nonzero exit, -resume hint, checkpoint saved); then
// rerun with -resume and verify zero completed simulations re-execute.
func TestSweepSigintResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second sweeps in subprocesses")
	}
	dir := t.TempDir()
	results := filepath.Join(dir, "perf.json")
	// -jobs 1 serializes dispatch so the interrupt reliably lands with grid
	// points still undispatched; -n is big enough that the sweep cannot
	// finish before the signal arrives.
	args := []string{
		"-exp", "fig12", "-bench", "hmmer", "-n", "800000",
		"-jobs", "1", "-results", results,
	}

	cmd := sweepCmd(args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Interrupt as soon as the first progress line confirms a completed,
	// journaled measurement.
	var tail strings.Builder
	sc := bufio.NewScanner(stderr)
	interrupted := false
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(&tail, line)
		if !interrupted {
			interrupted = true
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = cmd.Wait()
	out := tail.String()
	if err == nil {
		t.Fatalf("interrupted sweep exited zero; stderr:\n%s", out)
	}
	if !strings.Contains(out, "-resume") {
		t.Fatalf("no -resume hint after interrupt; stderr:\n%s", out)
	}
	firstRuns := matchCount(t, interruptedRE, out)
	if firstRuns < 1 {
		t.Fatalf("interrupted sweep reported %d simulations; stderr:\n%s", firstRuns, out)
	}

	// Resume: the full figure completes, recovers every checkpointed
	// measurement, and re-executes none of them.
	done := make(chan struct{})
	resume := sweepCmd(append(args, "-resume")...)
	var resumeOut []byte
	go func() {
		defer close(done)
		resumeOut, err = resume.CombinedOutput()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		resume.Process.Kill()
		t.Fatal("resumed sweep hung")
	}
	if err != nil {
		t.Fatalf("resumed sweep failed: %v\n%s", err, resumeOut)
	}
	// The graceful drain folded its journal into the results file with a
	// full atomic Save, so nothing needs journal recovery — but the resume
	// accounting line must still print, and the resumed sweep must execute
	// exactly the simulations the interrupt shed, re-running none of the
	// completed ones. (The journal-only path — a kill with no chance to
	// save — is covered by TestCheckpointResumeZeroReruns in
	// internal/experiments.)
	matchCount(t, recoveredRE, string(resumeOut))
	secondRuns := matchCount(t, executedRE, string(resumeOut))
	const gridPoints = 8 // fig12: len(experiments.StdSlices) per benchmark
	if firstRuns+secondRuns != gridPoints {
		t.Fatalf("interrupted run executed %d + resumed run executed %d != %d grid points (completed work re-ran or was lost)",
			firstRuns, secondRuns, gridPoints)
	}
}
