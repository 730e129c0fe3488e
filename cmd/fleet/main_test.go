package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The flag test drives the real fleet binary: TestMain re-execs this test
// binary with runMainEnv set, which runs fleet's main() on the given flags.
const runMainEnv = "FLEET_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFleet runs fleet's main with args and returns its exit code and
// standard error.
func runFleet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestRemovedFlagsRefused: the K-type share sweep moved to market -exp
// fig17k, and a rerun resumes without asking, so fleet refuses the flags
// that used to select them rather than running the event simulation.
func TestRemovedFlagsRefused(t *testing.T) {
	for _, arg := range []string{"-fig17k", "-steps=2", "-resume"} {
		code, stderr := runFleet(t, arg, "-synthetic", "-machines", "8", "-events", "10", "-q")
		name, _, _ := strings.Cut(arg, "=")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+name) {
			t.Errorf("fleet %s: exit %d, stderr %q; want exit 2, %s not defined", arg, code, stderr, name)
		}
	}
}
