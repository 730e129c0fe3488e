package isa

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// checkImage requires m to agree with the map reference ref: Load must
// return ref's value (zero when absent) for every word in probes, and
// RangeWords must visit exactly ref's non-zero words, each once.
func checkImage(t *testing.T, m *MemImage, ref map[uint64]uint64, probes []uint64) {
	t.Helper()
	for _, w := range probes {
		if got := m.Load(w); got != ref[w] {
			t.Fatalf("Load(%#x) = %#x, want %#x", w, got, ref[w])
		}
	}
	seen := map[uint64]bool{}
	m.RangeWords(func(w, v uint64) {
		if seen[w] {
			t.Fatalf("RangeWords visited %#x twice", w)
		}
		seen[w] = true
		if v == 0 || ref[w] != v {
			t.Fatalf("RangeWords gave %#x = %#x, want %#x", w, v, ref[w])
		}
	})
	for w, v := range ref {
		if v != 0 && !seen[w] {
			t.Fatalf("RangeWords missed %#x = %#x", w, v)
		}
	}
}

// TestMemImageMatchesReference stores into the image and a map side by
// side: the two ends of the address space, zero stores to absent and to
// present words, overwrites, and enough distinct words for eight
// doublings of the table.
func TestMemImageMatchesReference(t *testing.T) {
	const top = ^uint64(7) // word 2^64-8
	var m MemImage
	ref := map[uint64]uint64{}
	probes := []uint64{0, 8, top, top - 8}
	checkImage(t, &m, ref, probes) // the empty image reads zero everywhere
	st := func(w, v uint64) {
		m.Store(w, v)
		ref[w] = v
	}
	st(0, 0) // zero to an absent word
	checkImage(t, &m, ref, probes)
	if m.slots != nil {
		t.Fatal("storing zero to an absent word built a table")
	}
	st(0, 1)
	st(top, 2)
	st(top, 3) // overwrite
	checkImage(t, &m, ref, probes)
	st(0, 0) // zero over a present word
	checkImage(t, &m, ref, probes)
	rng := rand.New(rand.NewSource(2014))
	for i := 0; i < 8000; i++ {
		var w uint64
		switch i % 4 {
		case 0: // dense words near zero
			w = uint64(rng.Intn(4096)) * 8
		case 1: // dense words near the top
			w = top - uint64(rng.Intn(4096))*8
		case 2: // scattered words
			w = rng.Uint64() &^ 7
		case 3: // one word per 4 KB page, the old layout's worst case
			w = uint64(rng.Intn(1<<20)) << 12
		}
		v := rng.Uint64()
		if rng.Intn(8) == 0 {
			v = 0
		}
		st(w, v)
		probes = append(probes, w, w+8)
	}
	checkImage(t, &m, ref, probes)
	if len(m.slots) < memMinSlots<<8 {
		t.Fatalf("table has %d slots; the test should grow it past eight doublings", len(m.slots))
	}
	if 2*m.used > len(m.slots) {
		t.Fatalf("table is %d/%d full, more than half", m.used, len(m.slots))
	}
}

// FuzzMemImage decodes 9-byte records (a selector byte and a word) into
// loads and stores of fuzz-chosen values, mirrored into a map reference.
func FuzzMemImage(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 8, 0, 0, 0, 0, 0, 0, 0, 2, 8, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m MemImage
		ref := map[uint64]uint64{}
		var probes []uint64
		for len(data) >= 9 {
			sel, w := data[0], binary.LittleEndian.Uint64(data[1:9])&^7
			data = data[9:]
			if sel%4 == 0 {
				if got := m.Load(w); got != ref[w] {
					t.Fatalf("Load(%#x) = %#x, want %#x", w, got, ref[w])
				}
				continue
			}
			// Values: zero, a small count, or the word itself (distinct).
			v := [4]uint64{0, 0, uint64(sel), w ^ 0x5555}[sel%4]
			m.Store(w, v)
			ref[w] = v
			probes = append(probes, w)
		}
		checkImage(t, &m, ref, probes)
	})
}
