package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The drain test drives the real phases binary: TestMain re-execs this test
// binary with runMainEnv set, which runs phases' main() on the given flags.
const runMainEnv = "PHASES_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var interruptedRE = regexp.MustCompile(`phases: interrupted after (\d+) simulations`)

// TestPhasesDrainsOnInterrupt interrupts Table 7 after its first completed
// measurement: phases must stop dispatching, let in-flight simulations
// finish, save every completed one to the results file, and exit 130 with
// the rerun hint.
func TestPhasesDrainsOnInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a multi-second table in a subprocess")
	}
	results := filepath.Join(t.TempDir(), "perf.json")
	// Table 7 is 720 simulations; at this length they take far longer than
	// the interrupt takes to land.
	cmd := exec.Command(os.Args[0], "-n", "100000", "-results", results)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var tail strings.Builder
	sc := bufio.NewScanner(stderr)
	for interrupted := false; sc.Scan(); {
		tail.WriteString(sc.Text() + "\n")
		if !interrupted {
			interrupted = true
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
		}
	}
	cmd.Wait()
	out := tail.String()
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("interrupted phases exited %d, want 130; stderr:\n%s", code, out)
	}
	m := interruptedRE.FindStringSubmatch(out)
	if m == nil || !strings.Contains(out, "rerun the same command") {
		t.Fatalf("no interrupt report with a rerun hint; stderr:\n%s", out)
	}
	runs, _ := strconv.Atoi(m[1])
	b, err := os.ReadFile(results)
	if err != nil {
		t.Fatalf("drain saved no results file: %v", err)
	}
	var saved map[string]json.RawMessage
	if err := json.Unmarshal(b, &saved); err != nil {
		t.Fatal(err)
	}
	if runs < 1 || len(saved) != runs {
		t.Fatalf("drain saved %d measurements after %d simulations", len(saved), runs)
	}
}
