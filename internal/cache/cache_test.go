package cache

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func cfg16k() Config { return Config{SizeBytes: 16 << 10, LineSize: 64, Ways: 2} }

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{}, // zero size = no cache
		cfg16k(),
		{SizeBytes: 64 << 10, LineSize: 64, Ways: 4},
		{SizeBytes: 16 << 10, LineSize: 8, Ways: 2}, // the paper's L1I (8B lines)
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 1024, LineSize: 48, Ways: 2},    // non-power-of-two line
		{SizeBytes: 1000, LineSize: 64, Ways: 2},    // not multiple of line
		{SizeBytes: 1024, LineSize: 64, Ways: 0},    // no ways
		{SizeBytes: 128, LineSize: 64, Ways: 4},     // fewer lines than ways
		{SizeBytes: 64 * 48, LineSize: 64, Ways: 4}, // sets not power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(cfg16k())
	if c.Lookup(0x1000, false) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("filled line missed")
	}
	if !c.Lookup(0x1038, false) {
		t.Fatal("same 64B line must hit")
	}
	if c.Lookup(0x1040, false) {
		t.Fatal("next line must miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if r := c.MissRate(); r != 0.5 {
		t.Fatalf("miss rate %f", r)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way: fill A, B (same set), touch A, fill C -> B evicted, A stays.
	c := New(cfg16k())
	sets := uint64(16 << 10 / 64 / 2)
	a := uint64(0x10000)
	b := a + sets*64
	d := a + 2*sets*64
	c.Fill(a, false)
	c.Fill(b, false)
	c.Lookup(a, false)
	victim, _, evicted := c.Fill(d, false)
	if !evicted || victim != b {
		t.Fatalf("victim = %#x (evicted=%v), want %#x", victim, evicted, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(cfg16k())
	sets := uint64(16 << 10 / 64 / 2)
	a := uint64(0)
	c.Fill(a, false)
	c.Lookup(a, true) // dirty it
	c.Fill(a+sets*64, false)
	victim, victimDirty, evicted := c.Fill(a+2*sets*64, false)
	if !evicted || victim != a || !victimDirty {
		t.Fatalf("dirty eviction wrong: %#x dirty=%v evicted=%v", victim, victimDirty, evicted)
	}
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Writebacks)
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := New(cfg16k())
	c.Fill(0x40, true)
	if _, _, evicted := c.Fill(0x40, false); evicted {
		t.Fatal("re-filling a resident line must not evict")
	}
	// Dirty bit must be sticky.
	_, wasDirty := c.Invalidate(0x40)
	if !wasDirty {
		t.Fatal("dirty bit lost on refresh")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(cfg16k())
	c.Fill(0x80, false)
	present, dirty := c.Invalidate(0x80)
	if !present || dirty {
		t.Fatalf("invalidate = %v,%v", present, dirty)
	}
	if c.Contains(0x80) {
		t.Fatal("line still present")
	}
	if present, _ := c.Invalidate(0x80); present {
		t.Fatal("double invalidate reported present")
	}
}

func TestFlushAll(t *testing.T) {
	c := New(cfg16k())
	for i := uint64(0); i < 32; i++ {
		c.Fill(i*64, i%2 == 0)
	}
	dirty := c.FlushAll()
	if dirty != 16 {
		t.Fatalf("flushed %d dirty lines, want 16", dirty)
	}
	for i := uint64(0); i < 32; i++ {
		if c.Contains(i * 64) {
			t.Fatal("line survived flush")
		}
	}
}

func TestZeroSizeCache(t *testing.T) {
	c := New(Config{})
	if c.Lookup(0x40, false) || c.Contains(0x40) {
		t.Fatal("zero-size cache can never hit")
	}
	if _, _, evicted := c.Fill(0x40, true); evicted {
		t.Fatal("zero-size cache cannot evict")
	}
	if p, _ := c.Invalidate(0x40); p {
		t.Fatal("zero-size cache holds nothing")
	}
}

// TestSetInvariants: no set overflows its ways; the most recently touched
// line is never the next victim; occupancy equals distinct fills bounded by
// capacity.
func TestSetInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{SizeBytes: 2048, LineSize: 64, Ways: 4})
		resident := make(map[uint64]bool)
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(256)) * 64
			if rng.Intn(2) == 0 {
				hit := c.Lookup(addr, rng.Intn(4) == 0)
				if hit != resident[addr] {
					return false
				}
				if !hit {
					victim, _, evicted := c.Fill(addr, false)
					if evicted {
						if !resident[victim] {
							return false
						}
						delete(resident, victim)
					}
					resident[addr] = true
				}
			} else {
				victim, _, evicted := c.Fill(addr, false)
				if evicted {
					if victim == addr || !resident[victim] {
						return false
					}
					delete(resident, victim)
				}
				resident[addr] = true
			}
			if len(resident) > 2048/64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLineAddr(t *testing.T) {
	c := New(cfg16k())
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Fatalf("LineAddr = %#x", got)
	}
	z := New(Config{})
	if got := z.LineAddr(0x1234); got != 0x1234 {
		t.Fatalf("zero-size LineAddr = %#x", got)
	}
}

// refLine and refCache are the earlier tag array, one slice of 16-byte
// entries per set, kept as the reference the flat packed array must match
// return for return and counter for counter.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
}

type refCache struct {
	cfg       Config
	sets      [][]refLine
	setMask   uint64
	lineShift uint

	Hits, Misses, Evictions, Writebacks uint64
}

func newRef(cfg Config) *refCache {
	c := &refCache{cfg: cfg}
	if cfg.SizeBytes == 0 {
		return c
	}
	for 1<<c.lineShift != cfg.LineSize {
		c.lineShift++
	}
	nSets := cfg.SizeBytes / cfg.LineSize / cfg.Ways
	c.setMask = uint64(nSets - 1)
	c.sets = make([][]refLine, nSets)
	backing := make([]refLine, nSets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return c
}

func (c *refCache) find(addr uint64) (uint64, []refLine, uint64, int) {
	tag := addr >> c.lineShift
	s := tag & c.setMask
	set := c.sets[s]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return s, set, tag, i
		}
	}
	return s, set, tag, -1
}

func (c *refCache) Lookup(addr uint64, write bool) bool {
	if c.cfg.SizeBytes == 0 {
		c.Misses++
		return false
	}
	_, set, _, i := c.find(addr)
	if i < 0 {
		c.Misses++
		return false
	}
	l := set[i]
	l.dirty = l.dirty || write
	copy(set[1:i+1], set[:i])
	set[0] = l
	c.Hits++
	return true
}

func (c *refCache) Contains(addr uint64) bool {
	if c.cfg.SizeBytes == 0 {
		return false
	}
	_, _, _, i := c.find(addr)
	return i >= 0
}

// Fill refreshes a present line, else inserts it as MRU and evicts the LRU
// line of a full set.
func (c *refCache) Fill(addr uint64, dirty bool) (uint64, bool, bool) {
	if c.cfg.SizeBytes == 0 {
		return 0, false, false
	}
	s, set, tag, i := c.find(addr)
	if i >= 0 {
		l := set[i]
		l.dirty = l.dirty || dirty
		copy(set[1:i+1], set[:i])
		set[0] = l
		return 0, false, false
	}
	nl := refLine{tag: tag, valid: true, dirty: dirty}
	if len(set) < c.cfg.Ways {
		set = append(set, refLine{})
		copy(set[1:], set[:len(set)-1])
		set[0] = nl
		c.sets[s] = set
		return 0, false, false
	}
	v := set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = nl
	c.Evictions++
	if v.dirty {
		c.Writebacks++
	}
	return v.tag << c.lineShift, v.dirty, true
}

func (c *refCache) Invalidate(addr uint64) (bool, bool) {
	if c.cfg.SizeBytes == 0 {
		return false, false
	}
	s, set, _, i := c.find(addr)
	if i < 0 {
		return false, false
	}
	d := set[i].dirty
	c.sets[s] = append(set[:i], set[i+1:]...)
	return true, d
}

func (c *refCache) FlushAll() int {
	n := 0
	for i := range c.sets {
		for _, l := range c.sets[i] {
			if l.valid && l.dirty {
				n++
			}
		}
		c.sets[i] = c.sets[i][:0]
	}
	c.Writebacks += uint64(n)
	return n
}

func (c *refCache) lineAddr(addr uint64) uint64 {
	if c.cfg.SizeBytes == 0 {
		return addr
	}
	return addr &^ (uint64(c.cfg.LineSize) - 1)
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// oracleGeometries are the simulator's caches (the paper's L1I and L1D, an
// L2 bank) plus direct-mapped, 8-way, 3-way, fully associative, 2048-way
// and 1-byte-line arrays, so every fill-count width from 1 to 16 bits and
// both extremes of tag width are exercised.
var oracleGeometries = []Config{
	{SizeBytes: 16 << 10, LineSize: 8, Ways: 2},
	{SizeBytes: 16 << 10, LineSize: 64, Ways: 2},
	{SizeBytes: 64 << 10, LineSize: 64, Ways: 4},
	{SizeBytes: 4 << 10, LineSize: 64, Ways: 1},
	{SizeBytes: 8 << 10, LineSize: 64, Ways: 8},
	{SizeBytes: 3 * 64 * 4, LineSize: 64, Ways: 3},
	{SizeBytes: 2 << 10, LineSize: 64, Ways: 32},
	{SizeBytes: 2048 * 64, LineSize: 64, Ways: 2048},
	{SizeBytes: 8, LineSize: 1, Ways: 4},
	{},
}

// runOracle replays the operation stream ops over geometry cfg on the flat
// cache and on the reference, failing on the first return value, counter
// or derived value that differs. Each op is three bytes: an opcode, and two
// bytes that pick an address whose lines crowd a few sets, including the
// top and bottom of the address space.
func runOracle(t *testing.T, cfg Config, ops []byte) {
	t.Helper()
	c, r := New(cfg), newRef(cfg)
	line := uint64(cfg.LineSize)
	if line == 0 {
		line = 64
	}
	sets := uint64(1)
	if cfg.SizeBytes > 0 {
		sets = uint64(cfg.SizeBytes / cfg.LineSize / cfg.Ways)
	}
	for n := 0; n+3 <= len(ops); n += 3 {
		op, a, b := ops[n], ops[n+1], ops[n+2]
		// Lines spaced a set apart share a set; the low bits of b move the
		// line within it and off its boundary, and its top bit moves it to
		// the top of the address space.
		addr := (uint64(a)%4 + uint64(a)/4%8*sets) * line
		addr += uint64(b&0x7f) % line
		if b&0x80 != 0 {
			addr = ^addr
		}
		var got, want [4]uint64
		switch op % 8 {
		case 0, 1:
			got[0] = b2u(c.Lookup(addr, op%8 == 1))
			want[0] = b2u(r.Lookup(addr, op%8 == 1))
		case 2:
			got[0], want[0] = b2u(c.Contains(addr)), b2u(r.Contains(addr))
		case 3, 4:
			v, d, e := c.Fill(addr, op%8 == 4)
			got = [4]uint64{v, b2u(d), b2u(e)}
			v, d, e = r.Fill(addr, op%8 == 4)
			want = [4]uint64{v, b2u(d), b2u(e)}
		case 5, 6:
			p, d := c.Invalidate(addr)
			got = [4]uint64{b2u(p), b2u(d)}
			p, d = r.Invalidate(addr)
			want = [4]uint64{b2u(p), b2u(d)}
		case 7:
			if a%16 != 0 { // flushes are rare, so sets fill up between them
				got[0], want[0] = c.LineAddr(addr), r.lineAddr(addr)
				break
			}
			got[0], want[0] = uint64(c.FlushAll()), uint64(r.FlushAll())
		}
		if got != want {
			t.Fatalf("%+v op %d (code %d, addr %#x): got %v, want %v", cfg, n/3, op%8, addr, got, want)
		}
		gs := [4]uint64{c.Hits, c.Misses, c.Evictions, c.Writebacks}
		ws := [4]uint64{r.Hits, r.Misses, r.Evictions, r.Writebacks}
		if gs != ws {
			t.Fatalf("%+v op %d: counters %v, want %v", cfg, n/3, gs, ws)
		}
	}
	if c.MissRate() != (&Cache{Hits: r.Hits, Misses: r.Misses}).MissRate() {
		t.Fatalf("%+v: miss rate differs", cfg)
	}
}

// TestCacheMatchesReference replays seeded operation streams over every
// oracle geometry on the flat cache and the earlier per-set-slice cache.
func TestCacheMatchesReference(t *testing.T) {
	for gi, cfg := range oracleGeometries {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(gi)))
			ops := make([]byte, 3*4000)
			rng.Read(ops)
			runOracle(t, cfg, ops)
		}
	}
}

// FuzzCache decodes a geometry and an operation stream from the input and
// requires the flat cache to match the reference on it.
func FuzzCache(f *testing.F) {
	f.Add(byte(0), []byte{3, 0, 0, 3, 4, 0, 3, 8, 0, 0, 0, 0})
	f.Add(byte(7), []byte{4, 1, 0x80, 4, 5, 0x81, 6, 1, 0x80, 7, 0, 0})
	f.Add(byte(8), []byte{3, 0, 0, 4, 1, 0xff, 5, 2, 0x80, 1, 0, 0})
	f.Fuzz(func(t *testing.T, geom byte, ops []byte) {
		runOracle(t, oracleGeometries[int(geom)%len(oracleGeometries)], ops)
	})
}

// TestCacheFootprint pins the tag array's size: a default 16 KB L1I (8-byte
// lines, 2-way, 1,024 sets) models 2,048 tags, so 16 KB of packed entries
// plus 2 bits of fill count per set; the whole cache must allocate at most
// 17 KB.
func TestCacheFootprint(t *testing.T) {
	cfg := Config{SizeBytes: 16 << 10, LineSize: 8, Ways: 2}
	const n = 32
	keep := make([]*Cache, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(cfg)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	if per > 17<<10 {
		t.Fatalf("a default L1I allocates %d bytes, want at most %d", per, 17<<10)
	}
	runtime.KeepAlive(keep)
}
