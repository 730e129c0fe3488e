package vcore

import (
	"fmt"

	"sharing/internal/noc"
)

// This file is the engine half of quantum execution (sim.Machine's
// conservative parallel mode). During a quantum the engine runs entirely on
// private state: instead of calling into the shared uncore inline, it
// appends each outbound fabric request to a per-engine outbox. At the
// quantum barrier the machine merges all engines' outboxes in deterministic
// (cycle, engine, sequence) order, applies them against the shared L2
// banks, directory, networks and memory, and injects the response events
// back into the engines' event queues — with the ordinals the engine
// reserved at request time, so the queue order matches the inline path.

// FabricOpKind enumerates the buffered fabric request types.
type FabricOpKind uint8

const (
	// FabricLoad is an L2 line fetch (Uncore.L2Load); its response is an
	// evLoadFill or evIFill event delivered via DeliverFill.
	FabricLoad FabricOpKind = iota
	// FabricStore is a committed store's directory visibility pass
	// (Uncore.StoreVisible). The drain-latency charge was already taken
	// from the quantum-start directory state via StoreVisiblePeek; the
	// merge applies only the directory and remote-L1 mutations.
	FabricStore
	// FabricWriteback is a dirty L1 victim writeback
	// (Uncore.WritebackDirty). No response.
	FabricWriteback
)

// FabricOp is one buffered fabric request.
type FabricOp struct {
	// Kind selects which Uncore call the merge applies.
	Kind FabricOpKind
	// IFill distinguishes instruction fills from data fills (FabricLoad).
	IFill bool
	// Slice is the requesting Slice index (response event routing).
	Slice uint8
	// Cycle is the engine-local cycle the request was made on: the primary
	// deterministic merge key across engines.
	Cycle int64
	// At is the request's timestamp argument (may trail Cycle for
	// port-serialized L1D accesses, exactly as on the inline path).
	At int64
	// From is the requesting Slice's tile coordinate.
	From noc.Coord
	// Line is the line address.
	Line uint64
	// Ord is the event-queue ordinal reserved for the response event
	// (FabricLoad only).
	Ord uint64
}

// StoreVisiblePeeker is the read-only twin of Uncore.StoreVisible: it
// computes the drain's coherence delay against the directory state frozen
// at the last quantum barrier without mutating the directory or any remote
// L1. An uncore must implement it for the engine to buffer fabric requests;
// during a quantum it is the only shared state an engine reads, and the
// machine guarantees that state is only written between quanta, so
// concurrent private phases stay race-free.
type StoreVisiblePeeker interface {
	StoreVisiblePeek(now int64, from noc.Coord, addr uint64) int64
}

// SetFabricBuffering switches the engine between inline fabric calls
// (off, the default) and the buffered quantum mode described above. It
// fails if the uncore does not implement StoreVisiblePeeker.
func (e *Engine) SetFabricBuffering(on bool) error {
	if !on {
		e.fabricBuf = false
		return nil
	}
	p, ok := e.uncore.(StoreVisiblePeeker)
	if !ok {
		return fmt.Errorf("vcore: %s: uncore %T does not support fabric buffering (no StoreVisiblePeek)", e.name, e.uncore)
	}
	e.peekU = p
	e.fabricBuf = true
	return nil
}

// FabricOps returns the requests buffered since the last ResetFabricOps,
// in request order (nondecreasing Cycle). The slice aliases the engine's
// outbox: it is valid until the engine runs again.
func (e *Engine) FabricOps() []FabricOp { return e.outbox }

// ResetFabricOps clears the outbox (capacity is retained).
func (e *Engine) ResetFabricOps() { e.outbox = e.outbox[:0] }

// DeliverFill injects the response event for a buffered FabricLoad: the
// line lands at the Slice at cycle done, under the ordinal reserved when
// the request was buffered. Called by the machine while the engine is
// stopped at a quantum barrier.
//
//ssim:hotpath
func (e *Engine) DeliverFill(done int64, sl int, line uint64, ifill bool, ord uint64) {
	kind := evLoadFill
	if ifill {
		kind = evIFill
	}
	e.events.pushOrd(done, kind, uint64(sl), 0, line, ord)
}

// requestLine starts an L2 line fetch for Slice k: inline when fabric
// buffering is off, buffered with a reserved response ordinal when on.
//
//ssim:hotpath
func (e *Engine) requestLine(at int64, k int, line uint64, ifill bool) {
	if e.fabricBuf {
		e.outbox = append(e.outbox, FabricOp{
			Kind: FabricLoad, IFill: ifill,
			Slice: uint8(k), //ssim:nolint cyclemath: k is a Slice index, bounded by MaxSlices (8)
			Cycle: e.tickNow, At: at, From: e.pos[k], Line: line,
			Ord: e.events.reserveOrd(),
		})
		return
	}
	done := e.uncore.L2Load(at, e.pos[k], line)
	kind := evLoadFill
	if ifill {
		kind = evIFill
	}
	e.events.push(done, kind, uint64(k), 0, line)
}

// storeVisible runs a committed store's directory visibility pass for
// Slice o and returns the coherence delay charged to the drain. Buffered
// mode charges from the quantum-start directory state (StoreVisiblePeek)
// and defers the mutations to the merge.
//
//ssim:hotpath
func (e *Engine) storeVisible(at int64, o int, line uint64) int64 {
	if e.fabricBuf {
		e.outbox = append(e.outbox, FabricOp{
			Kind:  FabricStore,
			Slice: uint8(o), //ssim:nolint cyclemath: o is a Slice index, bounded by MaxSlices (8)
			Cycle: e.tickNow, At: at, From: e.pos[o], Line: line,
		})
		return e.peekU.StoreVisiblePeek(at, e.pos[o], line)
	}
	return e.uncore.StoreVisible(at, e.pos[o], line)
}

// writebackDirty hands a dirty L1 victim to the uncore (inline or
// buffered).
//
//ssim:hotpath
func (e *Engine) writebackDirty(at int64, o int, line uint64) {
	if e.fabricBuf {
		e.outbox = append(e.outbox, FabricOp{
			Kind:  FabricWriteback,
			Slice: uint8(o), //ssim:nolint cyclemath: o is a Slice index, bounded by MaxSlices (8)
			Cycle: e.tickNow, At: at, From: e.pos[o], Line: line,
		})
		return
	}
	e.uncore.WritebackDirty(at, e.pos[o], line)
}
