package fleet

import (
	"math"
	"math/bits"
)

// calendar is the pending-departure set: a calendar queue keyed by epoch
// (Brown, CACM 1988). Bucket b holds the departures with int(t/w) == b,
// where w is the epoch length. A push appends to its bucket in O(1); the
// first time the stream needs a bucket it sorts it by (t, seq) in linear
// expected time (sortList) and hands it out in order.
//
// Concatenating the sorted buckets in index order gives exactly the (t, seq)
// order: correctly rounded division is monotone, so t < t' implies
// t/w <= t'/w and int(t/w) <= int(t'/w). A bucket never holds a departure
// later than one in a higher bucket, and ties on t share a bucket.
//
// Three regions surround the ring of buckets:
//
//   - run holds the absorbed buckets, sorted, up to bucket head. A departure
//     pushed at or before head (a lifetime shorter than the rest of its
//     epoch) goes to early, which is sorted into late before the next read;
//     reads take the earlier of run's and late's heads, so a late departure
//     still comes out at its true timestamp, and a caller that reads in
//     small steps never pays to re-sort run.
//   - ring holds buckets head+1 .. head+ringBuckets, one slot each.
//   - Departures beyond the ring wait in an overflow: unsorted in over as
//     they are pushed, sorted into far once one of them comes within reach.
//     As the ring turns, far's due prefix is re-bucketed, so a far-future
//     lifetime costs one overflow entry, never a bucket per empty epoch, and
//     sparse far departures are each moved once rather than rescanned.
//
// A bucket is absorbed only once its earliest departure is due, so however
// finely a caller slices time, run never gets ahead of the stream and the
// early path stays the exception.
//
// Departures are stored as events in fixed-size, pointer-free chunks
// recycled through a free list. A bucket is sorted straight out of its
// chunks into a reused buffer, and a read copies due departures out as
// they are: once the pending population peaks, pushing and taking allocate
// nothing.
type calendar struct {
	w    float64 // bucket width: the epoch length
	head int     // last bucket absorbed into run (-1 before the first)
	n    int     // departures pending in all regions

	run   sorted // absorbed departures
	late  sorted // pushed at or before head (delivered an epoch late), sorted
	early list   // the same, as pushed, awaiting a merge into late
	ring  [ringBuckets]list
	occ   [ringBuckets / 64]uint64 // non-empty ring slots
	over  list                     // beyond the ring when pushed, unsorted
	far   sorted                   // beyond the ring, sorted

	slab   []*chunk
	link   []int   // link[k]: the chunk after slab[k] in its list
	free   []int   // indices of unused chunks in slab
	added  []event // merge's input, sorted
	counts []int   // sort sub-bucket offsets
}

const (
	ringBuckets = 1024 // a power of two, so a bucket's slot is a mask
	chunkCap    = 128  // departures per chunk: 4 KB
)

// chunk is a fixed-size, pointer-free block of departures: exactly 4 KB, a
// Go size class, so the GC neither scans nor pads it (TestEventLayout).
type chunk [chunkCap]event

// list is a FIFO of departures in chunks, with its (t, seq)-earliest entry
// and its latest time.
type list struct {
	first, last int // slab indices; meaningless while n == 0
	fill        int // departures in the last chunk
	n           int
	minT        float64
	minSeq      int
	maxT        float64
}

// before reports whether the list's earliest departure precedes (t, seq).
func (l *list) before(t float64, seq int) bool { return precedes(l.minT, l.minSeq, t, seq) }

// sorted is a run of departures in (t, seq) order, read from pos.
type sorted struct {
	d   []event
	pos int
}

func (s *sorted) empty() bool { return s.pos == len(s.d) }

// head is the next departure to read; s must not be empty.
func (s *sorted) head() *event { return &s.d[s.pos] }

func newCalendar(w float64) calendar { return calendar{w: w, head: -1} }

// push schedules d.
//
//ssim:hotpath
func (c *calendar) push(d event) {
	c.n++
	c.place(d)
}

// place files d in early, its ring bucket, or overflow, by comparing t/w
// against the ring's bounds as floats: a far-future t/w never meets an
// integer conversion.
//
//ssim:hotpath
func (c *calendar) place(d event) {
	q := d.t / c.w
	switch {
	case q < float64(c.head+1):
		c.append(&c.early, d)
	case q < float64(c.head+1+ringBuckets):
		slot := int(q) & (ringBuckets - 1)
		c.append(&c.ring[slot], d)
		c.occ[slot>>6] |= 1 << (slot & 63)
	default:
		c.append(&c.over, d)
	}
}

// append adds d at the tail of l.
//
//ssim:hotpath
func (c *calendar) append(l *list, d event) {
	if l.n == 0 || l.fill == chunkCap {
		k := c.chunk()
		if l.n == 0 {
			l.first = k
		} else {
			c.link[l.last] = k
		}
		l.last, l.fill = k, 0
	}
	c.slab[l.last][l.fill] = d
	l.fill++
	if l.n == 0 {
		l.minT, l.minSeq, l.maxT = d.t, d.seq, d.t
	} else if d.before(l.minT, l.minSeq) {
		l.minT, l.minSeq = d.t, d.seq
	} else {
		l.maxT = max(l.maxT, d.t)
	}
	l.n++
}

// chunk takes a chunk off the free list, or grows the slab when none is free.
func (c *calendar) chunk() int {
	if n := len(c.free); n > 0 {
		k := c.free[n-1]
		c.free = c.free[:n-1]
		return k
	}
	return c.refill()
}

// refill allocates a chunk. It runs only while the pending population
// reaches a new peak; afterwards drained chunks are reused.
func (c *calendar) refill() int {
	c.slab = append(c.slab, &chunk{})
	c.link = append(c.link, 0)
	return len(c.slab) - 1
}

// popBefore appends to out, in order, every pending departure that
// precedes (t, seq), and returns out. It absorbs a bucket only when that
// bucket's earliest departure precedes (t, seq), so it never sorts a bucket
// that is not due. While late is empty, run's due prefix goes out in one
// copy.
//
//ssim:hotpath
func (c *calendar) popBefore(out []event, t float64, seq int) []event {
	if c.early.n > 0 {
		c.merge(&c.late, &c.early)
	}
	for {
		if c.run.empty() && c.late.empty() && !c.advance(t, seq) {
			return out
		}
		if c.late.empty() {
			r := c.run.d[c.run.pos:]
			i := 0
			for i < len(r) && r[i].before(t, seq) {
				i++
			}
			out = append(out, r[:i]...)
			c.run.pos += i
			c.n -= i
			if i < len(r) {
				return out
			}
			continue
		}
		s := c.first()
		if !s.head().before(t, seq) {
			return out
		}
		out = append(out, *s.head())
		s.pos++
		c.n--
	}
}

// first returns whichever of run and late holds the earlier head; one of
// them is non-empty.
//
//ssim:hotpath
func (c *calendar) first() *sorted {
	if c.late.empty() {
		return &c.run
	}
	if !c.run.empty() {
		if l := c.late.head(); c.run.head().before(l.t, l.seq) {
			return &c.run
		}
	}
	return &c.late
}

// advance, called once run and late are exhausted, absorbs the first
// non-empty bucket into run if its earliest departure precedes (t, seq), and
// reports whether it did. With the ring empty, it first turns the ring to
// the overflow's earliest bucket.
func (c *calendar) advance(t float64, seq int) bool {
	b, ok := c.firstBucket()
	if !ok {
		ft, fseq, ok := c.beyond()
		if !ok || !precedes(ft, fseq, t, seq) {
			return false
		}
		// Every overflow entry lies beyond head+ringBuckets, so this only
		// moves head forward. Run keeps t/w below 2^53 (maxEpoch).
		c.head = int(ft/c.w) - 1
		c.rebucket()
		b, _ = c.firstBucket()
	}
	slot := b & (ringBuckets - 1)
	l := &c.ring[slot]
	if !l.before(t, seq) {
		return false
	}
	c.occ[slot>>6] &^= 1 << (slot & 63)
	c.head = b
	c.merge(&c.run, l)
	c.rebucket()
	return true
}

// firstBucket returns the lowest non-empty bucket in the ring.
func (c *calendar) firstBucket() (int, bool) {
	start := (c.head + 1) & (ringBuckets - 1)
	w := start >> 6
	word := c.occ[w] &^ (1<<(start&63) - 1)
	// One extra step revisits the first word's low bits: the ring's far end.
	for i := 0; i <= len(c.occ); i++ {
		if word != 0 {
			slot := w<<6 | bits.TrailingZeros64(word)
			return c.head + 1 + (slot-start)&(ringBuckets-1), true
		}
		w = (w + 1) % len(c.occ)
		word = c.occ[w]
	}
	return 0, false
}

// beyond returns the earliest departure beyond the ring, by (t, seq).
func (c *calendar) beyond() (float64, int, bool) {
	t, seq, ok := c.over.minT, c.over.minSeq, c.over.n > 0
	if !c.far.empty() {
		if d := c.far.head(); !ok || d.before(t, seq) {
			t, seq, ok = d.t, d.seq, true
		}
	}
	return t, seq, ok
}

// rebucket moves the overflow departures that head's last move brought
// within the ring into their buckets. over is sorted into far only when one
// of its entries is due to move, so the common case costs two comparisons.
func (c *calendar) rebucket() {
	lim := float64(c.head + 1 + ringBuckets)
	if c.over.n > 0 && c.over.minT/c.w < lim {
		c.merge(&c.far, &c.over)
	}
	for ; !c.far.empty() && c.far.head().t/c.w < lim; c.far.pos++ {
		c.place(*c.far.head())
	}
}

// merge moves l's departures into s, keeping s in (t, seq) order. An empty
// s takes the sorted list as is. Otherwise only l is sorted, then merged
// into s from the back, in s's own storage: s's unread departures are
// never sorted again, so a caller reading in small steps while placement
// pushes a few late departures pays for those few.
//
//ssim:hotpath
func (c *calendar) merge(s *sorted, l *list) {
	if s.empty() {
		s.d, s.pos = c.sortList(s.d[:0], l), 0
		return
	}
	add := c.sortList(c.added[:0], l)
	c.added = add
	n := copy(s.d, s.d[s.pos:])
	s.d, s.pos = append(s.d[:n], add...), 0
	i, j := n-1, len(add)-1
	for w := len(s.d) - 1; j >= 0; w-- {
		if i >= 0 && add[j].before(s.d[i].t, s.d[i].seq) {
			s.d[w] = s.d[i]
			i--
		} else {
			s.d[w] = add[j]
			j--
		}
	}
}

// sortList empties l into dst's storage in (t, seq) order and returns it,
// reading l's chunks in place and returning them to the free list. One pass
// counts the departures into l.n sub-buckets spanning [l.minT, l.maxT] (one
// sub-bucket when that span is too narrow to divide), a second distributes
// them, and an insertion sort orders each sub-bucket.
// The sub-bucket index is monotone in t, for the same reason bucket order
// is, so sorting within sub-buckets sorts the whole. Departure times are
// arrival times plus exponential lifetimes, spread smoothly over a bucket,
// so a sub-bucket holds O(1) departures on average and the sort is linear
// in expectation. Departures sharing one time arrive in seq order, which
// insertion sort passes over in one comparison each.
//
//ssim:hotpath
func (c *calendar) sortList(dst []event, l *list) []event {
	n := l.n
	lo, scale := l.minT, float64(n)/(l.maxT-l.minT)
	if !(scale <= math.MaxFloat64) { // every t equal, or too close to spread
		scale = 0 // one sub-bucket: insertion sort alone
	}
	cnt := c.counts[:0]
	for range n + 1 {
		cnt = append(cnt, 0)
	}
	for k, left := l.first, n; left > 0; k, left = c.link[k], left-chunkCap {
		for _, d := range c.slab[k][:min(left, chunkCap)] {
			cnt[min(int((d.t-lo)*scale), n-1)+1]++
		}
	}
	for j := 1; j <= n; j++ {
		cnt[j] += cnt[j-1] // cnt[j]: where sub-bucket j starts
	}
	dst = dst[:cap(dst)]
	for len(dst) < n { // grows only while buckets reach a new peak size
		dst = append(dst, event{})
	}
	dst = dst[:n]
	for k, left := l.first, n; left > 0; k, left = c.link[k], left-chunkCap {
		for _, d := range c.slab[k][:min(left, chunkCap)] {
			j := min(int((d.t-lo)*scale), n-1)
			dst[cnt[j]] = d
			cnt[j]++ // ends as where sub-bucket j stops
		}
		c.free = append(c.free, k)
	}
	*l = list{}
	start := 0
	for _, end := range cnt[:n] {
		if end-start > 1 {
			insertionSort(dst[start:end])
		}
		start = end
	}
	c.counts = cnt
	return dst
}

// insertionSort sorts r by (t, seq).
//
//ssim:hotpath
func insertionSort(r []event) {
	for i := 1; i < len(r); i++ {
		d := r[i]
		j := i
		for ; j > 0 && d.before(r[j-1].t, r[j-1].seq); j-- {
			r[j] = r[j-1]
		}
		r[j] = d
	}
}

// earliest returns the earliest pending departure time, and false when none
// is pending. It reads the bucket minima and sorts nothing.
func (c *calendar) earliest() (float64, bool) {
	t, ok := math.Inf(1), false
	if !c.run.empty() || !c.late.empty() {
		t, ok = c.first().head().t, true
	}
	if c.early.n > 0 {
		t, ok = min(t, c.early.minT), true
	}
	if ok {
		return t, true
	}
	if b, ok := c.firstBucket(); ok {
		return c.ring[b&(ringBuckets-1)].minT, true
	}
	t, _, ok = c.beyond()
	return t, ok
}
