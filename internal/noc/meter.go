package noc

// Meter is a bandwidth meter: a resource that can be used `width` times per
// cycle. Unlike a single moving cursor, it tolerates reservations arriving
// out of timestamp order (an eagerly computed future writeback must not
// delay a later-issued request for an earlier cycle), which the simulator's
// eager latency-chain computation requires.
//
// Bookkeeping is a circular window over cycles: slot i holds the usage count
// for one specific cycle, packed into one word as cycle<<16 | count so a
// reservation touches a single load and store. Cycles must stay below 2^48
// (the simulator's default MaxCycles is 2e9) and width below 2^16. Live
// reservations cluster within a few hundred cycles of each other, far below
// the window span; in the rare case two live cycles alias, the older count
// is forgotten, slightly under-modelling contention but never blocking
// progress.
type Meter struct {
	width uint64
	slot  []uint64
}

const (
	meterBits = 11 // 2048-cycle window
	countBits = 16 // low bits of a slot: the cycle's usage count
	countMask = 1<<countBits - 1
)

// NewMeter builds a meter with the given per-cycle capacity.
func NewMeter(width int) *Meter {
	if width <= 0 || width > countMask {
		panic("noc: meter width must be in [1, 65535]")
	}
	// The zero value of the window is a valid empty meter: a never-used slot
	// reads as cycle 0 with count 0, and a zero count is empty whatever its
	// tag. So no initialization pass is needed — meters are created lazily
	// per tile on runs that may only live milliseconds, and a write pass
	// over the window would dominate their cost.
	return &Meter{width: uint64(width), slot: make([]uint64, 1<<meterBits)}
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
		tag := uint64(at) << countBits
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
func (m *Meter) Reset() { clear(m.slot) }
