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

// Network is one logical 2-D switched network over a W x H tile grid. It is
// fire-and-forget: Send models port contention and returns the delivery
// cycle, and the simulator consumes that cycle directly, so no message is
// ever buffered.
type Network struct {
	Name  string
	W, H  int
	Width int // messages per cycle per injection/ejection port

	egress  []*Meter // per source tile
	ingress []*Meter // per destination tile
	stats   Stats
}

// New creates a network over a w x h grid with the given per-port bandwidth
// in messages per cycle. Port meters are created lazily per tile.
func New(name string, w, h, width int) *Network {
	if w <= 0 || h <= 0 || width <= 0 {
		panic(fmt.Sprintf("noc: invalid network geometry %dx%d width %d", w, h, width))
	}
	n := w * h
	return &Network{
		Name: name, W: w, H: h, Width: width,
		egress:  make([]*Meter, n),
		ingress: make([]*Meter, n),
	}
}

func (n *Network) meter(ms []*Meter, i int) *Meter {
	if ms[i] == nil {
		ms[i] = NewMeter(n.Width) //ssim:nolint hotalloc: lazy one-time port-meter init, at most one per tile per run
	}
	return ms[i]
}

func (n *Network) index(c Coord) int {
	if c.X < 0 || c.X >= n.W || c.Y < 0 || c.Y >= n.H {
		panic(fmt.Sprintf("noc: %s: coordinate %v outside %dx%d grid", n.Name, c, n.W, n.H))
	}
	return c.Y*n.W + c.X
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
