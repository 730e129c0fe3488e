package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sharing/internal/econ"
)

// TestRunnerEndStatuses: End saves the results cache on every outcome and
// maps it to the command's exit status — 0 on success, 1 on a failure, 130
// on an interrupt drain, with a hint to rerun the same command.
func TestRunnerEndStatuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  func(r *Runner) error
		code int
		line string
	}{
		{"success", func(*Runner) error { return nil }, 0, "lifecycle: executed 1 simulations"},
		{"failure", func(*Runner) error { return errors.New("no such table") }, 1, "lifecycle: no such table"},
		{"interrupt", func(r *Runner) error {
			r.Stop()
			_, err := r.Measure("swaptions", econ.Config{Slices: 2, CacheKB: 0})
			return err
		}, 130, "lifecycle: interrupted after 1 simulations; completed measurements are checkpointed - rerun the same command to continue"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "perf.json")
			var log strings.Builder
			r := tiny(t)
			r.ResultsPath, r.cmd, r.log = path, "lifecycle", &log
			if err := r.Load(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Measure("swaptions", econ.Config{Slices: 1, CacheKB: 0}); err != nil {
				t.Fatal(err)
			}
			if code := r.End(tc.err(r)); code != tc.code {
				t.Errorf("End returned %d, want %d", code, tc.code)
			}
			if got := strings.TrimSpace(log.String()); got != tc.line {
				t.Errorf("End printed %q, want %q", got, tc.line)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("End did not save: %v", err)
			}
			var saved map[string]Measurement
			if err := json.Unmarshal(b, &saved); err != nil || len(saved) != 1 {
				t.Fatalf("saved %d measurements (%v), want the 1 completed", len(saved), err)
			}
		})
	}
}
