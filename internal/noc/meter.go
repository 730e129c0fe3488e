package noc

import "math/bits"

// Meter is a bandwidth meter: a resource that can be used `width` times per
// cycle. Unlike a single moving cursor, it tolerates reservations arriving
// out of timestamp order (an eagerly computed future writeback must not
// delay a later-issued request for an earlier cycle), which the simulator's
// eager latency-chain computation requires.
//
// Bookkeeping is a circular window over cycles: slot i holds the usage count
// for one specific cycle c with c mod window = i. The window is a power of
// two between MinWindow and MaxWindow, sized by the caller to the furthest a
// reservation can land below the meter's highest one (WindowFor). A slot is
// one uint32 holding the low 32 bits of c with its low 8 bits replaced by
// the count: a 24-bit tag (c>>8 mod 2^24) above an 8-bit count. So a
// reservation touches a single load and store, and the default 256-slot
// window is 1 KiB. The slot index holds at least c's low 8 bits, so the tag
// and the index name c exactly for every cycle below ExactCycles (2^32) at
// any window, and a width of at most MaxWidth (255) fits the count.
//
// In that range the meter grants exactly what an unbounded per-cycle meter
// would, unless a reservation probes a slot that holds a later cycle's
// count: that later cycle has displaced the probed cycle's own count, if it
// had one. Every departure from the unbounded meter needs such a probe, and
// the meter counts them (Aliased), so a meter that ends a run with a zero
// count granted every reservation of the run as the unbounded meter would.
//
// The zero Meter has no window: it meters nothing and grants every
// reservation at the cycle asked.
type Meter struct {
	width   uint32
	slot    []uint32
	aliases uint64
}

const (
	countBits = 8 // low bits of a slot: the cycle's usage count
	countMask = 1<<countBits - 1

	// MaxWidth is the largest per-cycle capacity a Meter accepts: the count
	// shares its 32-bit slot with a 24-bit window tag.
	MaxWidth = countMask
	// MinWindow and MaxWindow bound a meter's window in cycles (slots).
	// The smallest window's index must hold the cycle bits the count
	// displaces from the slot.
	MinWindow = 1 << countBits
	MaxWindow = 2048
	// MaxHorizon is the longest horizon WindowFor covers: the largest
	// window is twice it.
	MaxHorizon = MaxWindow / 2
	// ExactCycles bounds the cycles a Meter tells apart at any window: a
	// slot keeps bits 8-31 of its cycle and the slot index at least bits
	// 0-7, so two cycles 2^32 apart share a slot and a tag.
	ExactCycles = 1 << 32
)

// WindowFor returns the window for a meter whose reservations land at most
// horizon cycles below its highest one: the smallest power of two at least
// twice the horizon, clamped to [MinWindow, MaxWindow]. A horizon above
// MaxHorizon gets MaxWindow, which no longer covers it twice over.
func WindowFor(horizon int64) int {
	if horizon <= MinWindow/2 {
		return MinWindow
	}
	if horizon > MaxHorizon {
		return MaxWindow
	}
	return 1 << bits.Len64(uint64(2*horizon-1))
}

// NewMeter builds a meter with the given per-cycle capacity over a window of
// the given number of cycles, a power of two in [MinWindow, MaxWindow].
func NewMeter(width, window int) *Meter {
	if width <= 0 || width > MaxWidth {
		panic("noc: meter width must be in [1, 255]")
	}
	if !validWindow(window) {
		panic("noc: meter window must be a power of two in [256, 2048]")
	}
	// The zero value of the window is a valid empty meter: a never-used slot
	// reads as the window-0 cycle with count 0, and a zero count is empty
	// whatever its tag. So the window needs no initialization pass beyond
	// the zeroed memory the allocator hands out. Each window size is a size
	// class of its own, so nothing is rounded up.
	return &Meter{width: uint32(width), slot: make([]uint32, window)} //ssim:nolint cyclemath: width is in [1, MaxWidth], checked above
}

func validWindow(window int) bool {
	return window >= MinWindow && window <= MaxWindow && window&(window-1) == 0
}

// Reserve claims one slot at the earliest cycle >= at with spare capacity
// and returns that cycle. It is small enough to inline into Network.Send,
// and the loop condition on the window's length is what proves every
// masked index in bounds.
//
//ssim:hotpath
func (m *Meter) Reserve(at int64) int64 {
	at = max(at, 0)
	slot := m.slot
	for len(slot) > 0 {
		i := int(at) & (len(slot) - 1)
		//ssim:nolint cyclemath: the tag is bits 8-31 of the cycle by design, exact below ExactCycles
		s, tag := slot[i], uint32(at)&^countMask
		if s&^countMask != tag {
			if s > tag {
				m.aliases++ // the slot holds a later cycle's count
			}
			s = tag
		} else if s&countMask >= m.width {
			at++
			continue
		}
		slot[i] = s + 1
		return at
	}
	return at
}

// Aliased returns how many of the meter's probes found their slot holding a
// later cycle's count. Zero means every grant so far equals the unbounded
// per-cycle meter's.
func (m *Meter) Aliased() uint64 { return m.aliases }

// Reset clears all reservations and the alias count.
func (m *Meter) Reset() {
	clear(m.slot)
	m.aliases = 0
}
