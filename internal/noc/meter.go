package noc

// Meter is a bandwidth meter: a resource that can be used `width` times per
// cycle. Unlike a single moving cursor, it tolerates reservations arriving
// out of timestamp order (an eagerly computed future writeback must not
// delay a later-issued request for an earlier cycle), which the simulator's
// eager latency-chain computation requires.
//
// Bookkeeping is a circular window over cycles: slot i holds the usage count
// for one specific cycle c with c mod 2048 = i. A slot is one uint32 packing
// (c>>11 mod 2^24)<<8 | count, so a reservation touches a single load and
// store and the whole window is 8 KiB. The low 11 bits of c are the slot
// index, so the tag plus the index name c exactly for every cycle below
// ExactCycles (2^35), and a width of at most MaxWidth (255) fits the count.
// In that range the meter grants exactly what a window of cycle<<16 | count
// words would. The simulator refuses MaxCycles above 2^34, and live
// reservations cluster within a few hundred cycles of each other, far below
// the window span; in the rare case two live cycles alias, the older count
// is forgotten, slightly under-modelling contention but never blocking
// progress.
type Meter struct {
	width uint32
	slot  *[1 << meterBits]uint32
}

const (
	meterBits = 11 // 2048-cycle window
	countBits = 8  // low bits of a slot: the cycle's usage count
	countMask = 1<<countBits - 1

	// MaxWidth is the largest per-cycle capacity a Meter accepts: the count
	// shares its 32-bit slot with a 24-bit window tag.
	MaxWidth = countMask
	// ExactCycles bounds the cycles a Meter tells apart: the 24-bit tag and
	// the 11-bit slot index name every cycle below 2^35 exactly. Two cycles
	// 2^35 apart share a slot and a tag.
	ExactCycles = 1 << (meterBits + 32 - countBits)
)

// NewMeter builds a meter with the given per-cycle capacity.
func NewMeter(width int) *Meter {
	if width <= 0 || width > MaxWidth {
		panic("noc: meter width must be in [1, 255]")
	}
	// The zero value of the window is a valid empty meter: a never-used slot
	// reads as the window-0 cycle with count 0, and a zero count is empty
	// whatever its tag. So the window needs no initialization pass beyond
	// the zeroed memory the allocator hands out. The window is its own
	// allocation so that it is exactly 8 KiB, one size class with nothing to
	// round up; inlined beside width it would round up to 9,472 bytes.
	return &Meter{width: uint32(width), slot: new([1 << meterBits]uint32)} //ssim:nolint cyclemath: width is in [1, MaxWidth], checked above
}

// Reserve claims one slot at the earliest cycle >= at with spare capacity
// and returns that cycle.
//
//ssim:hotpath
func (m *Meter) Reserve(at int64) int64 {
	if at < 0 {
		at = 0
	}
	for {
		i := at & (1<<meterBits - 1)
		s := m.slot[i]
		//ssim:nolint cyclemath: the tag is the window number mod 2^24 by design, exact below ExactCycles
		tag := uint32(uint64(at)>>meterBits) << countBits
		if s&^countMask != tag {
			m.slot[i] = tag | 1
			return at
		}
		if s&countMask < m.width {
			m.slot[i] = s + 1
			return at
		}
		at++
	}
}

// Reset clears all reservations.
func (m *Meter) Reset() { clear(m.slot[:]) }
