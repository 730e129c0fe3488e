package isa

import "math/bits"

// MemImage is the memory image of one thread: an open-addressing hash table
// from 8-byte-aligned word addresses to 64-bit values, with the values
// inline in the slots. The timing engine reads it on every load hit and
// writes it on every store commit, and the workload generator's value pass
// on every load and store it emits, so an access is one multiply and a
// short linear probe, with no Go map operation and no pointer chase. The
// table holds only the words a thread has stored, at most half full, and
// doubles when it would pass that; a run that stores a few hundred
// scattered words keeps a table of a few KB, where 4 KB pages would spend
// one page per word. Absent words read as zero, the same semantics as
// ArchState.Mem, so storing zero to an absent word adds nothing.
//
// The zero value is an empty image.
type MemImage struct {
	slots []memSlot // power-of-two length, or nil while empty
	used  int       // slots holding a key
	shift uint      // 64 - log2(len(slots)): home(key) keeps the top bits
}

// memSlot holds one stored word. Its key is the word address with bit 0
// set, so every key is nonzero and a zero key marks a free slot; word
// addresses are 8-byte aligned, so bit 0 carries no information.
type memSlot struct{ key, val uint64 }

// memMinSlots is the table's first size (power of two).
const memMinSlots = 64

// home returns key's first probe position (Fibonacci hashing).
func (m *MemImage) home(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> m.shift }

// probe returns the index of the slot holding key, or of the free slot
// where key would go. The table must be non-empty and have a free slot.
func (m *MemImage) probe(key uint64) uint64 {
	mask := uint64(len(m.slots) - 1)
	i := m.home(key)
	for m.slots[i].key != key && m.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// Load returns the value at the word-aligned address.
//
//ssim:hotpath
func (m *MemImage) Load(word uint64) uint64 {
	if len(m.slots) == 0 {
		return 0
	}
	return m.slots[m.probe(word|1)].val // a free slot's val is zero
}

// Store writes a value at the word-aligned address.
//
//ssim:hotpath
func (m *MemImage) Store(word, val uint64) {
	key := word | 1
	if len(m.slots) != 0 {
		if i := m.probe(key); m.slots[i].key == key {
			m.slots[i].val = val
			return
		}
	}
	if val == 0 {
		return // an absent word already reads as zero
	}
	if 2*(m.used+1) > len(m.slots) {
		m.grow()
	}
	m.slots[m.probe(key)] = memSlot{key: key, val: val}
	m.used++
}

// grow doubles the table (or creates it) and reinserts every stored word.
func (m *MemImage) grow() {
	n := 2 * len(m.slots)
	if n == 0 {
		n = memMinSlots
	}
	old := m.slots
	m.slots = make([]memSlot, n) //ssim:nolint hotalloc: doubling, so O(log words) allocations per run
	// n is a power of two, so this is 64 - log2(n).
	m.shift = uint(bits.LeadingZeros64(uint64(n)) + 1)
	for _, s := range old {
		if s.key != 0 {
			m.slots[m.probe(s.key)] = s
		}
	}
}

// RangeWords visits every non-zero word (zero-valued words are
// indistinguishable from untouched memory, matching ArchState semantics).
func (m *MemImage) RangeWords(f func(word, val uint64)) {
	for _, s := range m.slots {
		if s.val != 0 {
			f(s.key&^1, s.val)
		}
	}
}
