package vcore

// evKind enumerates the Engine's internal event types.
type evKind uint8

const (
	// evComplete: an instruction's result becomes available at its Slice.
	evComplete evKind = iota
	// evBranchResolve: a branch executes and its prediction is verified.
	evBranchResolve
	// evLoadArrive: a sorted load (address) arrives at its LSQ bank.
	evLoadArrive
	// evStoreArrive: a sorted store address arrives at its LSQ bank.
	evStoreArrive
	// evStoreData: a store's data value arrives at its LSQ bank.
	evStoreData
	// evLoadRetry: a load retries its bank access (MSHR or bank full).
	evLoadRetry
	// evIFill: an instruction-cache line fill completes at a Slice.
	evIFill
	// evDrain: a Slice's store buffer should attempt to drain its head.
	evDrain
	// evLoadFill: an outstanding L1D line fill completes at a Slice.
	evLoadFill
)

// event is one scheduled occurrence. gen guards against events that outlive
// a pipeline flush of their instruction.
//
// Fields are ordered widest first, so the event packs into 40 bytes with no
// interior padding (TestEventLayout pins it). The queue moves whole events
// when it inserts, so the record's size is its per-step cost.
type event struct {
	at   int64
	ord  uint64
	seq  uint64 // instruction age tag (or Slice index for evDrain/evIFill)
	a    uint64 // kind-specific payload (e.g. line address)
	gen  uint32
	kind evKind
}

// eventQueue is a deterministic time-ordered queue: one sorted run. The
// pending events are h[head:] in ascending (at, ord) order, so the next
// event is h[head] and popping it is head++. A push walks the new event
// back past the later entries; most events land a few cycles ahead of
// everything queued, and an engine holds a handful at a time, so the walk
// is short and cheaper than a binary heap's sift-down. Ordinals are unique,
// so (at, ord) is a total order and the pop order is the one any
// (at, ord) min-queue gives. The queue reuses its backing array for the
// whole run.
type eventQueue struct {
	h    []event
	head int
	ord  uint64
}

func (q *eventQueue) push(at int64, kind evKind, seq uint64, gen uint32, a uint64) {
	q.ord++
	q.pushOrd(at, kind, seq, gen, a, q.ord)
}

// reserveOrd allocates and returns the next ordinal without inserting an
// event. Quantum execution buffers fabric requests and inserts their
// response events later (at the quantum barrier) via pushOrd; reserving the
// ordinal at the request point keeps the queue's tie-break order identical
// to the unbuffered path, where the response is pushed inline.
//
//ssim:hotpath
func (q *eventQueue) reserveOrd() uint64 {
	q.ord++
	return q.ord
}

// pushOrd inserts an event with an explicitly assigned ordinal (previously
// obtained from reserveOrd). It does not advance the ordinal counter. An
// older ordinal sorts before younger events of the same cycle, exactly
// where it would sit had it been pushed when it was reserved.
//
// An empty run restarts at the front, and a full run with a spent prefix
// moves its pending events to the front, so the array grows only when every
// slot holds a pending event. Like the walk, that move costs at most one
// step per pending event.
//
//ssim:hotpath
func (q *eventQueue) pushOrd(at int64, kind evKind, seq uint64, gen uint32, a uint64, ord uint64) {
	switch n := len(q.h); {
	case q.head == n:
		q.h, q.head = q.h[:0], 0
	case n == cap(q.h) && q.head > 0:
		q.h, q.head = q.h[:copy(q.h, q.h[q.head:])], 0
	}
	ev := event{at: at, ord: ord, kind: kind, seq: seq, gen: gen, a: a}
	q.h = append(q.h, ev)
	i := len(q.h) - 1
	for ; i > q.head; i-- {
		p := &q.h[i-1]
		if p.at < at || p.at == at && p.ord < ord {
			break
		}
		q.h[i] = *p
	}
	q.h[i] = ev
}

// popReady removes and returns the next event with at <= now, or ok=false.
func (q *eventQueue) popReady(now int64) (event, bool) {
	if q.head == len(q.h) || q.h[q.head].at > now {
		return event{}, false
	}
	q.head++
	return q.h[q.head-1], true
}

// nextAt returns the time of the earliest pending event.
func (q *eventQueue) nextAt() (int64, bool) {
	if q.head == len(q.h) {
		return 0, false
	}
	return q.h[q.head].at, true
}
