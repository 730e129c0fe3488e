package fleet

import "math/bits"

// placer is the fleet's machine-choice structure: a bucket ladder indexed by
// free Slices, each bucket a bitset over machine IDs plus its population
// count, all bitsets in one slab. pick walks the ladder from the tightest
// viable bucket (best-fit/"packed") or the loosest (worst-fit/"spread"),
// skipping empty buckets by count; within a bucket the lowest machine ID
// with enough free banks wins, and ascending bit order is ascending machine
// ID. Each bucket also has a summary bitset whose bit s is set iff the
// bucket's word s is nonzero, so a scan skips 64 empty words per summary
// word: O(machines/4096 + nonzero words), not O(machines/64). Moving a
// machine between buckets clears one bit and sets one (plus at most two
// summary bits), so alloc and free cost O(1) whatever the fleet size.
// Everything is integer state mutated only by the sequential placement
// step, so placement is deterministic by construction.
type placer struct {
	policy     Placement
	chipSlices int
	words      int      // uint64 words per bucket bitset
	sumWords   int      // uint64 words per bucket summary
	freeS      []int    // free Slices per machine
	freeB      []int    // free banks per machine
	bits       []uint64 // bucket f's word w is bits[f*words+w]
	sum        []uint64 // bit i of sum[f*sumWords+s]: bits[f*words+s*64+i] != 0
	count      []int    // machines per bucket
	usedSlices int
	usedBanks  int
}

func newPlacer(machines, chipSlices, chipBanks int, policy Placement) *placer {
	words := (machines + 63) / 64
	sumWords := (words + 63) / 64
	p := &placer{
		policy:     policy,
		chipSlices: chipSlices,
		words:      words,
		sumWords:   sumWords,
		freeS:      make([]int, machines),
		freeB:      make([]int, machines),
		bits:       make([]uint64, (chipSlices+1)*words),
		sum:        make([]uint64, (chipSlices+1)*sumWords),
		count:      make([]int, chipSlices+1),
	}
	for m := range p.freeS {
		p.freeS[m] = chipSlices
		p.freeB[m] = chipBanks
	}
	fill(p.bits[chipSlices*words:], machines)
	fill(p.sum[chipSlices*sumWords:], words)
	p.count[chipSlices] = machines
	return p
}

// fill sets the first n bits of set, which holds exactly ceil(n/64) words.
func fill(set []uint64, n int) {
	for w := range set {
		set[w] = ^uint64(0)
	}
	if tail := n % 64; tail != 0 {
		set[len(set)-1] = 1<<tail - 1
	}
}

// pick returns the machine to place a (slices, banks) VCore on, or -1 if
// nothing fits.
func (p *placer) pick(slices, banks int) int {
	if p.policy == PlaceSpread {
		for f := p.chipSlices; f >= slices; f-- {
			if m := p.scan(f, banks); m >= 0 {
				return m
			}
		}
		return -1
	}
	for f := slices; f <= p.chipSlices; f++ {
		if m := p.scan(f, banks); m >= 0 {
			return m
		}
	}
	return -1
}

// scan returns the lowest machine ID in bucket f with enough free banks,
// visiting only the words its summary marks nonzero, in ascending order.
//
//ssim:hotpath
func (p *placer) scan(f, banks int) int {
	if p.count[f] == 0 {
		return -1
	}
	set := p.bits[f*p.words : (f+1)*p.words]
	for s, sx := range p.sum[f*p.sumWords : (f+1)*p.sumWords] {
		for ; sx != 0; sx &= sx - 1 {
			w := s<<6 | bits.TrailingZeros64(sx)
			for x := set[w]; x != 0; x &= x - 1 {
				m := w<<6 | bits.TrailingZeros64(x)
				if p.freeB[m] >= banks {
					return m
				}
			}
		}
	}
	return -1
}

// alloc commits a placement.
func (p *placer) alloc(l lease) {
	m, slices, banks := int(l.machine), int(l.slices), int(l.banks)
	p.move(m, p.freeS[m]-slices)
	p.freeB[m] -= banks
	p.usedSlices += slices
	p.usedBanks += banks
}

// free releases a departure's resources.
func (p *placer) free(l lease) {
	m, slices, banks := int(l.machine), int(l.slices), int(l.banks)
	p.move(m, p.freeS[m]+slices)
	p.freeB[m] += banks
	p.usedSlices -= slices
	p.usedBanks -= banks
}

// move reslots machine m into the bucket for its new free-Slice count,
// clearing the old bucket's summary bit if its word empties.
//
//ssim:hotpath
func (p *placer) move(m, newFree int) {
	w, b := m>>6, uint64(1)<<(m&63)
	s, sb := w>>6, uint64(1)<<(w&63)
	old := p.freeS[m]
	ow := old*p.words + w
	p.bits[ow] &^= b
	if p.bits[ow] == 0 {
		p.sum[old*p.sumWords+s] &^= sb
	}
	p.count[old]--
	p.bits[newFree*p.words+w] |= b
	p.sum[newFree*p.sumWords+s] |= sb
	p.count[newFree]++
	p.freeS[m] = newFree
}
