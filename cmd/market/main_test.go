package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The flag tests drive the real market binary: TestMain re-execs this test
// binary with runMainEnv set, which runs market's main() on the given flags.
const runMainEnv = "MARKET_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMarket runs market's main with args and returns its exit code,
// standard output and standard error.
func runMarket(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String(), errb.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String(), errb.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// TestFig17KNeedsTwoBenchmarks: the K-type share sweep has one core type
// per benchmark, so a single benchmark is refused before any simulation.
// Two are enough, and each printed job mix names its nonzero classes.
func TestFig17KNeedsTwoBenchmarks(t *testing.T) {
	code, _, stderr := runMarket(t, "-exp", "fig17k", "-bench", "mcf", "-n", "2000", "-q")
	if code != 1 || !strings.Contains(stderr, "needs at least 2 benchmarks") {
		t.Errorf("market -exp fig17k -bench mcf: exit %d, stderr %q; want exit 1, at least 2 benchmarks", code, stderr)
	}
	code, stdout, stderr := runMarket(t, "-exp", "fig17k", "-bench", "hmmer,mcf", "-n", "2000", "-q")
	if code != 0 {
		t.Fatalf("market -exp fig17k -bench hmmer,mcf: exit %d, stderr %q", code, stderr)
	}
	var mixes []string
	for _, line := range strings.Split(stdout, "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "mix "); ok {
			m, _, _ = strings.Cut(m, " -> ")
			mixes = append(mixes, m)
		}
	}
	want := []string{"hmmer=0.5 mcf=0.5", "hmmer=1", "mcf=1"}
	if strings.Join(mixes, "|") != strings.Join(want, "|") {
		t.Errorf("fig17k mixes %q, want %q; stdout:\n%s", mixes, want, stdout)
	}
}

// TestResumeFlagRefused: a rerun resumes without asking, so market has no
// -resume flag.
func TestResumeFlagRefused(t *testing.T) {
	code, _, stderr := runMarket(t, "-resume", "-exp", "table5")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -resume") {
		t.Errorf("market -resume: exit %d, stderr %q; want exit 2, -resume not defined", code, stderr)
	}
}
