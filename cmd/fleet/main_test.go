package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The flag tests drive the real fleet binary: TestMain re-execs this test
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

// TestFig17KRefusesEventFlags sets each event-simulation flag together with
// -fig17k and requires fleet to exit 1 naming that flag before it builds a
// Runner. A single benchmark would make the share sweep fail at once, so a
// refusal that came too late would show as that error instead.
func TestFig17KRefusesEventFlags(t *testing.T) {
	values := map[string]string{
		"synthetic": "", "adaptive": "", "fingerprint": "",
		"machines": "64", "events": "500", "rate": "100", "life": "5", "epoch": "2",
		"seed": "3", "objective": "perwatt", "place": "spread",
	}
	for _, name := range eventFlags {
		arg := "-" + name
		if v := values[name]; v != "" {
			arg += "=" + v
		}
		code, stderr := runFleet(t, "-fig17k", arg, "-bench", "mcf", "-q")
		if code != 1 || !strings.Contains(stderr, "drop -"+name) || strings.Contains(stderr, "at least 2 benchmarks") {
			t.Errorf("fleet -fig17k %s: exit %d, stderr %q; want exit 1 refusing -%s", arg, code, stderr, name)
		}
	}
	code, stderr := runFleet(t, "-fig17k", "-seed", "1", "-synthetic", "-bench", "mcf", "-q")
	if code != 1 || !strings.Contains(stderr, "drop -seed, -synthetic") {
		t.Errorf("fleet -fig17k -seed 1 -synthetic: exit %d, stderr %q; want both flags refused", code, stderr)
	}
}

// TestFig17KPlainPassesCheck runs -fig17k with only its own flags and one
// benchmark: the flag check must let it through to the share sweep, which
// refuses a single benchmark before simulating anything.
func TestFig17KPlainPassesCheck(t *testing.T) {
	code, stderr := runFleet(t, "-fig17k", "-steps", "2", "-n", "2000", "-bench", "mcf", "-q")
	if code != 1 || !strings.Contains(stderr, "fig17k needs at least 2 benchmarks") || strings.Contains(stderr, "drop -") {
		t.Errorf("fleet -fig17k: exit %d, stderr %q; want it past the flag check to the sweep's benchmark count", code, stderr)
	}
}
