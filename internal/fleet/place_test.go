package fleet

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"
)

// refPick is the brute-force reference for placer.pick, straight from the
// per-machine freeS/freeB arrays: among the machines with room, packed takes
// the fewest free Slices and spread the most, ties going to the lowest ID.
func refPick(p *placer, slices, banks int) int {
	best := -1
	for m := range p.freeS {
		if p.freeS[m] < slices || p.freeB[m] < banks {
			continue
		}
		if best < 0 ||
			p.policy == PlacePacked && p.freeS[m] < p.freeS[best] ||
			p.policy == PlaceSpread && p.freeS[m] > p.freeS[best] {
			best = m
		}
	}
	return best
}

// checkIndex verifies the bitset index against freeS: every machine's bit is
// set in bucket freeS[m], and the counts are the buckets' popcounts and sum
// to the machine count (so no other bit is set anywhere). Each summary bit
// must be set iff its word is nonzero, and no summary bit may be set past
// the bucket's last word.
func checkIndex(t *testing.T, p *placer, step int) {
	t.Helper()
	total := 0
	for f := 0; f <= p.chipSlices; f++ {
		set := p.bits[f*p.words : (f+1)*p.words]
		pop := 0
		for _, x := range set {
			pop += bits.OnesCount64(x)
		}
		if pop != p.count[f] {
			t.Fatalf("step %d: bucket %d count %d, popcount %d", step, f, p.count[f], pop)
		}
		total += pop
		for s, sx := range p.sum[f*p.sumWords : (f+1)*p.sumWords] {
			for i := 0; i < 64; i++ {
				w, on := s<<6|i, sx&(1<<i) != 0
				if w >= p.words {
					if on {
						t.Fatalf("step %d: bucket %d summary bit %d set past the last word %d", step, f, w, p.words-1)
					}
					continue
				}
				if on != (set[w] != 0) {
					t.Fatalf("step %d: bucket %d summary bit %d is %v, word is %#x", step, f, w, on, set[w])
				}
			}
		}
	}
	if total != len(p.freeS) {
		t.Fatalf("step %d: %d bits set for %d machines", step, total, len(p.freeS))
	}
	for m, f := range p.freeS {
		if p.bits[f*p.words+m>>6]&(1<<(m&63)) == 0 {
			t.Fatalf("step %d: machine %d missing from bucket %d", step, m, f)
		}
	}
}

// placerHarness drives a placer with alloc and free ops, checking every
// pick against refPick and keeping the live leases.
type placerHarness struct {
	t                *testing.T
	p                *placer
	live             []lease
	placed, rejected int
}

// alloc picks a machine for a (slices, banks) VCore and, if one fits,
// commits the lease.
func (h *placerHarness) alloc(step, slices, banks int) {
	h.t.Helper()
	got, want := h.p.pick(slices, banks), refPick(h.p, slices, banks)
	if got != want {
		h.t.Fatalf("%v/%d machines step %d: pick(%d, %d) = %d, reference %d",
			h.p.policy, len(h.p.freeS), step, slices, banks, got, want)
	}
	if got < 0 {
		h.rejected++
		return
	}
	h.placed++
	l := newLease(got, slices, banks, 0)
	h.p.alloc(l)
	h.live = append(h.live, l)
}

// free releases the i-th live lease.
func (h *placerHarness) free(i int) {
	l := h.live[i]
	h.live[i] = h.live[len(h.live)-1]
	h.live = h.live[:len(h.live)-1]
	h.p.free(l)
}

const testChipSlices, testChipBanks = 8, 16

// TestPlacerMatchesReference drives long random alloc/free sequences through
// both policies and demands that after every step pick agrees with the
// brute-force reference and the index is consistent (on the large fleets
// every 64th step, to keep the race-detector run short). The machine counts
// sit around the word and summary boundaries: one machine, a partial word,
// exactly one word, one bit into a second word, three words, exactly one
// full summary word (64 words), and one bit into a second summary word (65
// words). Allocation outpaces release, so every fleet fills, rejects, and
// keeps churning at capacity.
func TestPlacerMatchesReference(t *testing.T) {
	for _, policy := range []Placement{PlacePacked, PlaceSpread} {
		for _, machines := range []int{1, 63, 64, 65, 130, 64 * 64, 64*64 + 1} {
			h := &placerHarness{t: t, p: newPlacer(machines, testChipSlices, testChipBanks, policy)}
			x := uint64(machines)<<8 | uint64(policy)
			rnd := func(n int) int {
				x++
				return int(splitmix64(x) % uint64(n))
			}
			checkIndex(t, h.p, 0)
			for step := 1; step <= 2000+3*machines; step++ {
				if len(h.live) == 0 || rnd(5) < 4 {
					h.alloc(step, 1+rnd(testChipSlices), rnd(testChipBanks+1))
				} else {
					h.free(rnd(len(h.live)))
				}
				if machines < 1000 || step%64 == 0 {
					checkIndex(t, h.p, step)
				}
			}
			if h.placed == 0 || h.rejected == 0 {
				t.Fatalf("%v/%d machines: %d placed, %d rejected — the sequence never filled the fleet",
					policy, machines, h.placed, h.rejected)
			}
		}
	}
}

// FuzzPlacer's fleets stop at 65 words, one word into a second summary
// word, and an input's ops past the 8192nd are ignored: the reference and
// the index check are O(machines) per op, so this bounds an exec.
const placerFuzzMaxMachines, placerFuzzMaxOps = 65 * 64, 8192

// placerFuzzInput encodes a FuzzPlacer input: the policy, the machine count,
// then one byte per op (see FuzzPlacer).
func placerFuzzInput(policy Placement, machines int, ops []byte) []byte {
	in := []byte{byte(policy), 0, 0}
	binary.LittleEndian.PutUint16(in[1:], uint16(machines-1))
	return append(in, ops...)
}

// FuzzPlacer decodes bytes into alloc and free ops on a small fleet and
// demands that every pick equals refPick and the index (summary included)
// stays consistent after every op. Byte 0 selects the policy and bytes 1-2
// the machine count; each later byte b is an op: below 0xC0 it allocates
// 1+b%8 Slices and (b/8)%17 banks, otherwise it frees live lease
// (b-0xC0) % live (a no-op while nothing is live). The seeds sit on the
// word and summary boundaries, so plain `go test` exercises them.
func FuzzPlacer(f *testing.F) {
	full := byte(testChipSlices - 1) // alloc(8, 0): fills one machine
	one := byte(0)                   // alloc(1, 0)
	free := byte(0xC0)
	// Fill the fleet (emptying the full bucket word by word, then the
	// summary word), overfill it, free a run, and refill.
	churn := func(machines int) []byte {
		ops := bytes.Repeat([]byte{full}, machines+1)
		ops = append(ops, bytes.Repeat([]byte{free, free + 7}, 40)...)
		return append(ops, bytes.Repeat([]byte{one, 0x55, full}, 40)...)
	}
	for _, policy := range []Placement{PlacePacked, PlaceSpread} {
		f.Add(placerFuzzInput(policy, 1, []byte{full, full, free, one, free}))
		f.Add(placerFuzzInput(policy, 64, churn(64)))
		f.Add(placerFuzzInput(policy, 65, churn(65)))
	}
	// Both policies fill with full machines in ID order, so the summary
	// boundary seeds need only one.
	f.Add(placerFuzzInput(PlacePacked, 64*64, churn(64*64)))
	f.Add(placerFuzzInput(PlacePacked, 64*64+1, churn(64*64+1)))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		policy := Placement(in[0] & 1)
		machines := 1 + int(binary.LittleEndian.Uint16(in[1:3]))%placerFuzzMaxMachines
		h := &placerHarness{t: t, p: newPlacer(machines, testChipSlices, testChipBanks, policy)}
		checkIndex(t, h.p, 0)
		ops := in[3:]
		ops = ops[:min(len(ops), placerFuzzMaxOps)]
		for i, b := range ops {
			switch {
			case b < 0xC0:
				h.alloc(i+1, 1+int(b)%testChipSlices, int(b)/8%(testChipBanks+1))
			case len(h.live) > 0:
				h.free(int(b-0xC0) % len(h.live))
			}
			checkIndex(t, h.p, i+1)
		}
	})
}

// TestPlacerAllocsZero pins BenchmarkPlacer's 0 allocs/op as a test: pick +
// alloc + free at 20,000 machines with the fleet workload's lease mix. The
// ops run as one measured batch, so a single stray allocation shows.
func TestPlacerAllocsZero(t *testing.T) {
	for _, policy := range []Placement{PlacePacked, PlaceSpread} {
		c := newPlacerChurn(policy)
		if n := testing.AllocsPerRun(1, func() {
			for range 20_000 {
				c.step()
			}
		}); n != 0 {
			t.Errorf("%v: %v allocations over 20,000 placer ops, want 0", policy, n)
		}
	}
}
