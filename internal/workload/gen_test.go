package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"reflect"
	"runtime"
	"testing"

	"sharing/internal/isa"
	"sharing/internal/trace"
)

// hashTrace feeds every field of every instruction of m, its thread names
// and its barrier sets into h.
func hashTrace(h hash.Hash, m *trace.MultiTrace) {
	var b []byte
	b = append(b, m.Name...)
	for _, t := range m.Threads {
		b = append(b, t.Name...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(t.Insts)))
		for _, in := range t.Insts {
			b = binary.LittleEndian.AppendUint64(b, in.PC)
			b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
			b = binary.LittleEndian.AppendUint64(b, in.Addr)
			b = binary.LittleEndian.AppendUint64(b, in.Target)
			var taken byte
			if in.Taken {
				taken = 1
			}
			b = append(b, byte(in.Op), byte(in.Dest), byte(in.Src1), byte(in.Src2), taken)
		}
		h.Write(b)
		b = b[:0]
	}
	for _, bs := range m.Barriers {
		for _, at := range bs.At {
			b = binary.LittleEndian.AppendUint64(b, uint64(at))
		}
	}
	h.Write(b)
}

// generateDigest is the SHA-256 of the encoded traces of every catalog
// profile and every gcc phase at seeds 2014 and 7, n = 20,000, in catalog
// order. It was recorded from the sequential generator (one goroutine, a
// Go map for the memory image); any change to a generated trace moves it.
const generateDigest = "6fd5178f4f53cc5029784baedd3edaac6a680dbc89236c9f6391bfc3edd350cf"

func TestGenerateDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 52 traces")
	}
	const n = 20000
	h := sha256.New()
	for _, seed := range []int64{2014, 7} {
		for _, name := range Names() {
			p, _ := Lookup(name)
			mt, err := p.Generate(n, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			hashTrace(h, mt)
		}
		gcc, _ := Lookup("gcc")
		for pi := 0; pi < gcc.NumPhases(); pi++ {
			tr, err := gcc.GeneratePhase(pi, n, seed)
			if err != nil {
				t.Fatalf("gcc phase %d: %v", pi, err)
			}
			hashTrace(h, trace.Single(tr))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generateDigest {
		t.Fatalf("trace digest %s, want %s", got, generateDigest)
	}
}

// TestGenerateWidthAndChunks requires the same traces from a pool of one
// worker as from a pool of two, for a single-threaded profile, a
// four-threaded one, one forced to eight threads (four per worker at width
// two), a trace shorter than one chunk and one of whole chunks; each
// thread must also run cleanly on the reference interpreter.
func TestGenerateWidthAndChunks(t *testing.T) {
	mcf, _ := Lookup("mcf")
	dedup, _ := Lookup("dedup")
	wide := *dedup
	wide.Threads = 8
	for _, c := range []struct {
		name string
		p    *Profile
		n    int
	}{
		{"mcf", mcf, 20000},
		{"dedup", dedup, 20000},
		{"dedup-8-threads", &wide, 20000},
		{"mcf-under-one-chunk", mcf, genChunk / 2},
		{"mcf-whole-chunks", mcf, 2 * genChunk},
	} {
		var got [2]*trace.MultiTrace
		for i, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			mt, err := c.p.Generate(c.n, 2015)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got[i] = mt
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("%s: traces differ between GOMAXPROCS 1 and 2", c.name)
		}
		for ti, tr := range got[1].Threads {
			if err := isa.NewInterp().Run(tr.Insts); err != nil {
				t.Fatalf("%s thread %d: %v", c.name, ti, err)
			}
		}
	}
	// A thread's trace depends on its tid, not on how many threads there
	// are (beyond being multi-threaded), so the first four of eight are
	// dedup's four.
	four, _ := dedup.Generate(20000, 2015)
	eight, _ := wide.Generate(20000, 2015)
	for ti := range four.Threads {
		if !reflect.DeepEqual(four.Threads[ti], eight.Threads[ti]) {
			t.Fatalf("thread %d differs between 4 and 8 threads", ti)
		}
	}
}

// BenchmarkGenerate times one Generate of each profile behind perfbench's
// workload.gen_ms.* at the sweep workload's trace length.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"mcf", "gobmk", "libquantum", "dedup"} {
		b.Run(name, func(b *testing.B) {
			p, _ := Lookup(name)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Generate(50000, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
