// Package distrib is the checkpoint/resume layer of the experiment runner
// (DESIGN.md, "Execution and checkpoint/resume"): a write-ahead Journal of
// completed measurements kept next to the results cache, and
// WriteFileAtomic for the cache itself, so a killed sweep resumes without
// re-executing any completed simulation. The simulations themselves run in
// the runner's own process (internal/experiments).
package distrib

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The checkpoint/resume layer.
//
// The results cache (experiments.Runner) is one JSON map, written whole.
// Saving it only at natural barriers means a killed sweep loses every
// measurement since the last Save. The Journal closes that window: every
// completed measurement is appended — one self-contained JSON line — to a
// write-ahead journal next to the cache file, and on load the journal is
// replayed into the cache before any simulation dispatches. A torn tail
// (the kill landed mid-append) invalidates only that line: replay keeps the
// complete prefix, so a resumed run re-executes at most the single
// measurement whose append was interrupted.
//
// After a successful atomic cache save the journal is reset: its entries
// are folded into the main file first (rename), then dropped, so a crash
// between the two steps merely leaves duplicate entries that replay
// idempotently.

// journalEntry is one appended line.
type journalEntry struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// Journal appends key/value checkpoint records to a file, one JSON line per
// record, each line written with a single Write call under a mutex so
// concurrent completions never interleave bytes.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal opens (creating if needed) the journal at path for appending.
func OpenJournal(path string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, path: path}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append journals one completed record.
func (j *Journal) Append(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line, err := json.Marshal(journalEntry{K: key, V: raw})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("distrib: journal closed")
	}
	_, err = j.f.Write(line)
	return err
}

// Reset truncates the journal after its contents were folded into the main
// results file by an atomic save.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("distrib: journal closed")
	}
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	_, err := j.f.Seek(0, io.SeekStart)
	return err
}

// Close closes the journal file. The journal is left on disk; only a
// successful Save-and-Reset empties it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// ReplayJournal streams the journal at path through fn in append order and
// returns how many records were recovered. A missing file is an empty
// journal. A torn or corrupt line ends the replay at the last complete
// record — the journal is a crash artifact, so a damaged tail is expected,
// not an error — and the count reflects only the intact prefix.
func ReplayJournal(path string, fn func(key string, raw json.RawMessage)) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.K == "" {
			return n, nil // torn tail: keep the intact prefix
		}
		fn(e.K, e.V)
		n++
	}
	// A scanner error (e.g. an over-long garbage line) is also a tail
	// artifact: everything before it already replayed.
	return n, nil
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// and an atomic rename, so readers — and a resumed run after a mid-write
// kill — see either the old complete file or the new complete file, never a
// torn one.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("distrib: atomic rename: %w", err)
	}
	return nil
}
