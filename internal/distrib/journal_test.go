package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.json.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Cycles int64 `json:"cycles"`
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(fmt.Sprintf("key%d", i), m{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	n, err := ReplayJournal(path, func(k string, raw json.RawMessage) {
		var v m
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		got[k] = v.Cycles
	})
	if err != nil || n != 5 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	for i := 0; i < 5; i++ {
		if got[fmt.Sprintf("key%d", i)] != int64(i) {
			t.Fatalf("replayed %v", got)
		}
	}
}

// TestJournalTornTail: a kill mid-append leaves a partial last line; replay
// must recover the complete prefix and ignore the tail.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.json.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(fmt.Sprintf("key%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half.
	torn := raw[:len(raw)-len(`":2}`)-1]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayJournal(path, func(string, json.RawMessage) {})
	if err != nil || n != 2 {
		t.Fatalf("torn-tail replay: n=%d err=%v (want 2, nil)", n, err)
	}
}

func TestJournalMissingFile(t *testing.T) {
	n, err := ReplayJournal(filepath.Join(t.TempDir(), "absent.wal"), func(string, json.RawMessage) {
		t.Fatal("callback on missing journal")
	})
	if n != 0 || err != nil {
		t.Fatalf("missing journal: n=%d err=%v", n, err)
	}
}

func TestJournalResetAfterSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.json.wal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("b", 2); err != nil {
		t.Fatal(err)
	}
	keys := []string{}
	if _, err := ReplayJournal(path, func(k string, _ json.RawMessage) { keys = append(keys, k) }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "b" {
		t.Fatalf("post-reset journal replays %v", keys)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "file.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("read back %q, %v", got, err)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}
