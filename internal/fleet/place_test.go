package fleet

import (
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
// to the machine count (so no other bit is set anywhere).
func checkIndex(t *testing.T, p *placer, step int) {
	t.Helper()
	total := 0
	for f := 0; f <= p.chipSlices; f++ {
		pop := 0
		for _, x := range p.bits[f*p.words : (f+1)*p.words] {
			pop += bits.OnesCount64(x)
		}
		if pop != p.count[f] {
			t.Fatalf("step %d: bucket %d count %d, popcount %d", step, f, p.count[f], pop)
		}
		total += pop
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

// TestPlacerMatchesReference drives long random alloc/free sequences through
// both policies and demands that after every step pick agrees with the
// brute-force reference and the index is consistent (on the largest fleet
// every 64th step, to keep the race-detector run short). The machine counts
// sit around the word boundaries: one machine, a partial word, exactly one
// word, one bit into a second word, three words, and 65 words. Allocation outpaces release, so every fleet fills,
// rejects, and keeps churning at capacity.
func TestPlacerMatchesReference(t *testing.T) {
	const chipSlices, chipBanks = 8, 16
	for _, policy := range []Placement{PlacePacked, PlaceSpread} {
		for _, machines := range []int{1, 63, 64, 65, 130, 64*64 + 1} {
			p := newPlacer(machines, chipSlices, chipBanks, policy)
			var live []lease
			placed, rejected := 0, 0
			h := uint64(machines)<<8 | uint64(policy)
			rnd := func(n int) int {
				h++
				return int(splitmix64(h) % uint64(n))
			}
			checkIndex(t, p, 0)
			for step := 1; step <= 2000+3*machines; step++ {
				if len(live) == 0 || rnd(5) < 4 {
					slices, banks := 1+rnd(chipSlices), rnd(chipBanks+1)
					got, want := p.pick(slices, banks), refPick(p, slices, banks)
					if got != want {
						t.Fatalf("%v/%d machines step %d: pick(%d, %d) = %d, reference %d",
							policy, machines, step, slices, banks, got, want)
					}
					if got < 0 {
						rejected++
						continue
					}
					placed++
					l := lease{machine: got, slices: slices, banks: banks}
					p.alloc(l)
					live = append(live, l)
				} else {
					i := rnd(len(live))
					l := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					p.free(l)
				}
				if machines < 1000 || step%64 == 0 {
					checkIndex(t, p, step)
				}
			}
			if placed == 0 || rejected == 0 {
				t.Fatalf("%v/%d machines: %d placed, %d rejected — the sequence never filled the fleet",
					policy, machines, placed, rejected)
			}
		}
	}
}
