package experiments

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sharing/internal/distrib"
)

// FuzzRunnerLoad feeds Runner.Load an arbitrary results file and a
// checkpoint journal whose last record is torn mid-line. The journal's
// records are decoded from the second input, 5 bytes each (a key picked
// from a few names the results file may also hold, and a measurement), and
// its tail keeps only the first cut bytes of one more record.
//
// Properties: Load never panics or fails; the memo is the results file
// (when it parses) plus every complete journal record whose key the file
// lacks, first record winning, and never the torn one; and a Save followed
// by a fresh Load gives a DeepEqual memo.
func FuzzRunnerLoad(f *testing.F) {
	f.Add([]byte(`{"k1":{"cycles":10,"insts":5}}`), []byte{1, 20, 0, 7, 0, 2, 30, 0, 9, 0, 3, 1, 1, 1, 1}, uint16(9))
	f.Add([]byte(`{broken`), []byte{0, 1, 2, 3, 4}, uint16(0))
	// A results file written while measurements could be sampled: the
	// fields of that mode are unknown now and must be ignored.
	f.Add([]byte(`{"k0":null,"k2":{"sampled":true,"windows":3,"relCI95":0.25}}`), []byte{2, 9, 9, 9, 9, 0, 0, 0, 0, 0}, uint16(200))
	f.Fuzz(func(t *testing.T, results, records []byte, cut uint16) {
		dir := t.TempDir()
		path := filepath.Join(dir, "perf.json")
		if err := os.WriteFile(path, results, 0o644); err != nil {
			t.Fatal(err)
		}
		type rec struct {
			k string
			m Measurement
		}
		var recs []rec
		for len(records) >= 5 && len(recs) < 64 {
			b := records[:5]
			records = records[5:]
			recs = append(recs, rec{
				k: "k" + string(rune('0'+b[0]%4)),
				m: Measurement{
					Cycles: int64(binary.LittleEndian.Uint16(b[1:3])) - 100,
					Insts:  uint64(binary.LittleEndian.Uint16(b[3:5])),
				},
			})
		}
		// Journal every record, then tear the last one: keep a strict prefix
		// of its line short of the closing brace, so it cannot parse.
		wal := path + ".wal"
		j, err := distrib.OpenJournal(wal)
		if err != nil {
			t.Fatal(err)
		}
		complete := recs
		var lastStart int64
		for i, r := range recs {
			if i == len(recs)-1 {
				st, err := os.Stat(wal)
				if err != nil {
					t.Fatal(err)
				}
				lastStart = st.Size()
			}
			if err := j.Append(r.k, r.m); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 {
			st, err := os.Stat(wal)
			if err != nil {
				t.Fatal(err)
			}
			lineLen := st.Size() - lastStart // the record's JSON and its newline
			if err := os.Truncate(wal, lastStart+int64(cut)%(lineLen-1)); err != nil {
				t.Fatal(err)
			}
			complete = recs[:len(recs)-1]
		}

		want := map[string]Measurement{}
		var file map[string]Measurement
		if json.Unmarshal(results, &file) == nil {
			for k, m := range file {
				want[k] = m
			}
		}
		for _, r := range complete {
			if _, ok := want[r.k]; !ok {
				want[r.k] = r.m
			}
		}

		load := func() *Runner {
			r := NewRunner()
			r.ResultsPath = path
			r.Progress = func(string) {} // corrupt-file warnings are expected
			if err := r.Load(); err != nil {
				t.Fatalf("Load: %v", err)
			}
			return r
		}
		r := load()
		if !reflect.DeepEqual(r.cache, want) {
			t.Fatalf("memo after Load:\n got %v\nwant %v", r.cache, want)
		}
		if err := r.Save(); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if err := r.journal.Close(); err != nil {
			t.Fatal(err)
		}
		r2 := load()
		defer r2.journal.Close()
		if !reflect.DeepEqual(r2.cache, r.cache) {
			t.Fatalf("memo after Save and Load:\n got %v\nwant %v", r2.cache, r.cache)
		}
	})
}
