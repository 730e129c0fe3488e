// Package cache implements the tag-array models of the Sharing
// Architecture's memory hierarchy: per-Slice L1 instruction and data caches,
// 64 KB L2 cache banks spread across the fabric, and the L2-resident
// directory that keeps multiple VCores of one VM coherent (the paper places
// the coherence point between the L1s and the shared L2, §3.5).
//
// The package models timing-relevant state only (tags, LRU, dirty bits,
// sharer sets); data values flow through the simulator's memory image and
// load/store queues.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache array.
type Config struct {
	// SizeBytes is the total capacity. Zero is legal and means "no cache":
	// every lookup misses and fills are ignored.
	SizeBytes int
	// LineSize is the block size in bytes (power of two).
	LineSize int
	// Ways is the set associativity.
	Ways int
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.SizeBytes == 0 {
		return nil
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a positive power of two", c.LineSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d not positive", c.Ways)
	}
	lines := c.SizeBytes / c.LineSize
	if lines*c.LineSize != c.SizeBytes {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineSize)
	}
	sets := lines / c.Ways
	if sets == 0 {
		return fmt.Errorf("cache: size %d too small for %d ways of %d-byte lines", c.SizeBytes, c.Ways, c.LineSize)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.LineSize == 1 && sets == 1 {
		// A tag entry stores a 64-bit address less its line-offset and
		// set-index bits, plus the dirty bit: it needs one of them.
		return fmt.Errorf("cache: a single set of 1-byte lines leaves no tag bit for the dirty flag")
	}
	return nil
}

// Cache is a set-associative, write-back, LRU cache tag array.
//
// The tags live in one flat array of nSets × Ways entries. Set s owns
// tags[s*Ways : (s+1)*Ways], and its first count(s) entries are its
// resident lines in LRU order, most-recently-used first; the rest are
// free. An entry packs a line's tag above its dirty bit (entry>>1 is the
// tag, entry&1 the dirty flag). The tag omits the line-offset and set-index
// bits, which the entry's position already names, so Validate's demand that
// together they be at least one bit leaves room for the dirty flag.
//
// The per-set fill counts are packed into fill, 1<<fillShift bits each:
// the smallest power-of-two width that holds Ways, so that a field never
// straddles two words. A 2-way cache spends 2 bits per set.
type Cache struct {
	cfg       Config
	tags      []uint64
	fill      []uint64
	ways      uint64
	setMask   uint64
	lineShift uint
	setShift  uint // log2 of the set count
	fillShift uint // log2 of the bits per fill count
	fillMask  uint64

	// Statistics.
	Hits, Misses, Evictions, Writebacks uint64
}

// New builds a cache from cfg. It panics on invalid configuration; callers
// validate user-supplied configs with Config.Validate first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	if cfg.SizeBytes == 0 {
		return c
	}
	nSets := cfg.SizeBytes / cfg.LineSize / cfg.Ways
	c.lineShift = uint(bits.TrailingZeros(uint(cfg.LineSize)))
	c.setShift = uint(bits.TrailingZeros(uint(nSets)))
	c.setMask = uint64(nSets - 1)
	c.ways = uint64(cfg.Ways)
	c.fillShift = uint(bits.Len(uint(bits.Len(uint(cfg.Ways)) - 1)))
	c.fillMask = ^uint64(0) >> (64 - 1<<c.fillShift)
	c.tags = make([]uint64, nSets*cfg.Ways)
	c.fill = make([]uint64, (nSets<<c.fillShift+63)/64)
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	if c.cfg.SizeBytes == 0 {
		return addr
	}
	return addr &^ (uint64(c.cfg.LineSize) - 1)
}

// locate returns the set index of addr, the resident part of that set
// (MRU first) and addr's tag. The slice's capacity runs to the end of the
// set, so a fill can extend it in place.
//
//ssim:hotpath
func (c *Cache) locate(addr uint64) (s uint64, set []uint64, tag uint64) {
	line := addr >> c.lineShift
	s = line & c.setMask
	base := s * c.ways
	return s, c.tags[base : base+c.count(s) : base+c.ways], line >> c.setShift
}

// find returns the position of tag in set, or -1.
//
//ssim:hotpath
func find(set []uint64, tag uint64) int {
	for i, e := range set {
		if e>>1 == tag {
			return i
		}
	}
	return -1
}

// count returns how many lines set s holds.
//
//ssim:hotpath
func (c *Cache) count(s uint64) uint64 {
	b := s << c.fillShift
	return c.fill[b>>6] >> (b & 63) & c.fillMask
}

// setCount records that set s holds n lines.
//
//ssim:hotpath
func (c *Cache) setCount(s, n uint64) {
	b := s << c.fillShift
	w := &c.fill[b>>6]
	*w = *w&^(c.fillMask<<(b&63)) | n<<(b&63)
}

// lineOf rebuilds the line address of an entry resident in set s.
func (c *Cache) lineOf(e, s uint64) uint64 {
	return (e>>1<<c.setShift | s) << c.lineShift
}

// toFront moves set[i] to the front, ORing dirty into it.
//
//ssim:hotpath
func toFront(set []uint64, i int, dirty bool) {
	e := set[i]
	if dirty {
		e |= 1
	}
	copy(set[1:i+1], set[:i])
	set[0] = e
}

// insert makes tag the most-recently-used line of set s, which does not
// hold it, evicting the least-recently-used line when the set is full.
//
//ssim:hotpath
func (c *Cache) insert(s uint64, set []uint64, tag uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	e := tag << 1
	if dirty {
		e |= 1
	}
	if n := uint64(len(set)); n < c.ways {
		set = set[:n+1]
		copy(set[1:], set[:n])
		set[0] = e
		c.setCount(s, n+1)
		return 0, false, false
	}
	v := set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = e
	return c.lineOf(v, s), v&1 != 0, true
}

// Lookup probes the cache. On a hit it updates LRU order and, if write is
// set, marks the line dirty. It returns whether the access hit.
//
//ssim:hotpath
func (c *Cache) Lookup(addr uint64, write bool) bool {
	if c.cfg.SizeBytes == 0 {
		c.Misses++
		return false
	}
	_, set, tag := c.locate(addr)
	if i := find(set, tag); i >= 0 {
		toFront(set, i, write)
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Contains probes without updating LRU or statistics.
//
//ssim:hotpath
func (c *Cache) Contains(addr uint64) bool {
	if c.cfg.SizeBytes == 0 {
		return false
	}
	_, set, tag := c.locate(addr)
	return find(set, tag) >= 0
}

// Fill inserts the line containing addr as most-recently-used, marking it
// dirty if dirty is set. If an existing line must be evicted, Fill returns
// its line address and dirty status with evicted=true. Filling a line that
// is already present just refreshes its LRU position (and ORs in dirty).
//
//ssim:hotpath
func (c *Cache) Fill(addr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	if c.cfg.SizeBytes == 0 {
		return 0, false, false
	}
	s, set, tag := c.locate(addr)
	if i := find(set, tag); i >= 0 {
		toFront(set, i, dirty)
		return 0, false, false
	}
	victim, victimDirty, evicted = c.insert(s, set, tag, dirty)
	if evicted {
		c.Evictions++
		if victimDirty {
			c.Writebacks++
		}
	}
	return victim, victimDirty, evicted
}

// Invalidate removes the line containing addr if present, reporting whether
// it was present and whether it was dirty.
//
//ssim:hotpath
func (c *Cache) Invalidate(addr uint64) (present, wasDirty bool) {
	if c.cfg.SizeBytes == 0 {
		return false, false
	}
	s, set, tag := c.locate(addr)
	i := find(set, tag)
	if i < 0 {
		return false, false
	}
	wasDirty = set[i]&1 != 0
	copy(set[i:], set[i+1:])
	c.setCount(s, uint64(len(set)-1))
	return true, wasDirty
}

// FlushAll invalidates every line and returns how many dirty lines were
// written back. Used when an L2 bank is reassigned to a different VM
// (§3.8: reconfiguring cache requires flushing banks to main memory).
func (c *Cache) FlushAll() (dirtyLines int) {
	if c.cfg.SizeBytes == 0 {
		return 0
	}
	for s := uint64(0); s <= c.setMask; s++ {
		base := s * c.ways
		for _, e := range c.tags[base : base+c.count(s)] {
			dirtyLines += int(e & 1)
		}
	}
	clear(c.fill)
	c.Writebacks += uint64(dirtyLines)
	return dirtyLines
}

// MissRate returns the fraction of lookups that missed.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
