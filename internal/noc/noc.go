// Package noc models the 2-D switched on-chip networks of the Sharing
// Architecture. Three logical networks connect the sea of Slices and cache
// banks (§5.1 of the paper): the Scalar Operand Network (operand requests and
// replies), the load/store sorting network, and the rename/coherence/memory
// network.
//
// The latency model follows the paper exactly: one cycle of injection plus
// one cycle per network hop, so nearest-neighbour communication costs two
// cycles (§3.4, Fig. 12 caption). Dimension-ordered routing on a mesh gives
// Manhattan-distance hop counts. Port bandwidth is finite (Width messages
// per cycle per port), which is what makes the paper's "a second operand
// network would buy only ~1%" ablation reproducible.
package noc

import "fmt"

// Coord is a tile position on the fabric grid.
type Coord struct{ X, Y int }

// Manhattan returns the hop count between two tiles under dimension-ordered
// (X then Y) routing.
func Manhattan(a, b Coord) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Latency returns the zero-load message latency between two tiles: one cycle
// of injection plus one cycle per hop. A tile talking to itself (e.g. a
// load sorted to its own Slice) still pays the injection cycle.
func Latency(a, b Coord) int64 { return int64(1 + Manhattan(a, b)) }

// Stats aggregates network activity counters.
type Stats struct {
	Messages  uint64
	TotalHops uint64
	// StallCycles counts cycles messages spent waiting for port bandwidth
	// beyond their zero-load latency.
	StallCycles uint64
}

// Network is one logical 2-D switched network over a W x H box of tiles
// whose lowest corner is Origin: the whole fabric for a network every tile
// uses, or the few tiles of one VCore for a network only they use. It is
// fire-and-forget: Send models port contention and returns the delivery
// cycle, and the simulator consumes that cycle directly, so no message is
// ever buffered.
type Network struct {
	Name   string
	Origin Coord
	W, H   int
	Width  int // messages per cycle per injection/ejection port

	window  int      // cycles each port meter's window spans (see WindowFor)
	egress  []*Meter // per source tile
	ingress []*Meter // per destination tile
	stats   Stats
}

// New creates a network over a w x h grid with the given per-port bandwidth
// in messages per cycle and port-meter window in cycles. Port meters are
// created lazily per tile.
func New(name string, w, h, width, window int) *Network {
	return NewBox(name, Coord{}, w, h, width, window)
}

// NewBox creates a network over the w x h box of tiles whose lowest corner
// is origin. A coordinate outside the box panics in Send, as one outside
// the grid does for New. Hop counts and latencies are those of the fabric:
// the box only sizes the port tables.
func NewBox(name string, origin Coord, w, h, width, window int) *Network {
	if w <= 0 || h <= 0 || width <= 0 || width > MaxWidth || !validWindow(window) {
		panic(fmt.Sprintf("noc: invalid network geometry %dx%d width %d window %d", w, h, width, window))
	}
	n := w * h
	return &Network{
		Name: name, Origin: origin, W: w, H: h, Width: width,
		window:  window,
		egress:  make([]*Meter, n),
		ingress: make([]*Meter, n),
	}
}

// BoundingBox returns the lowest corner and size of the smallest box that
// holds every tile in tiles, which must be non-empty.
func BoundingBox(tiles []Coord) (origin Coord, w, h int) {
	lo, hi := tiles[0], tiles[0]
	for _, c := range tiles[1:] {
		lo.X, hi.X = min(lo.X, c.X), max(hi.X, c.X)
		lo.Y, hi.Y = min(lo.Y, c.Y), max(hi.Y, c.Y)
	}
	return lo, hi.X - lo.X + 1, hi.Y - lo.Y + 1
}

func (n *Network) meter(ms []*Meter, i int) *Meter {
	if ms[i] == nil {
		ms[i] = NewMeter(n.Width, n.window) //ssim:nolint hotalloc: lazy one-time port-meter init, at most one per tile per run
	}
	return ms[i]
}

func (n *Network) index(c Coord) int {
	x, y := c.X-n.Origin.X, c.Y-n.Origin.Y
	if x < 0 || x >= n.W || y < 0 || y >= n.H {
		panic(fmt.Sprintf("noc: %s: coordinate %v outside the %dx%d box at %v", n.Name, c, n.W, n.H, n.Origin))
	}
	return y*n.W + x
}

// Send injects a message from src to dst at cycle now and returns its
// delivery cycle, which accounts for injection-port contention at the
// source, per-hop latency, and ejection-port contention at the destination.
//
//ssim:hotpath
func (n *Network) Send(now int64, src, dst Coord) int64 {
	si, di := n.index(src), n.index(dst)
	depart := n.meter(n.egress, si).Reserve(now)
	zeroLoad := depart + Latency(src, dst)
	arrive := n.meter(n.ingress, di).Reserve(zeroLoad)
	n.stats.Messages++
	n.stats.TotalHops += uint64(Manhattan(src, dst))
	//ssim:nolint cyclemath: Reserve(at) >= at by the Meter contract, so both differences are non-negative
	n.stats.StallCycles += uint64((depart - now) + (arrive - zeroLoad))
	return arrive
}

// Stats returns a copy of the accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// Aliased sums Meter.Aliased over every port meter of the network.
func (n *Network) Aliased() uint64 {
	var a uint64
	for _, ms := range [2][]*Meter{n.egress, n.ingress} {
		for _, m := range ms {
			if m != nil {
				a += m.Aliased()
			}
		}
	}
	return a
}
