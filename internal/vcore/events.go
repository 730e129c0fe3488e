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
// interior padding (TestEventLayout pins it).
type event struct {
	at   int64
	ord  uint64
	seq  uint64 // instruction age tag (or Slice index for evDrain/evIFill)
	a    uint64 // kind-specific payload (e.g. line address)
	gen  uint32
	kind evKind
}

// eventQueue is a deterministic time-ordered queue: a hand-rolled binary
// min-heap over (at, ord). container/heap would box every event into an
// interface value and allocate on each push; this queue reuses its backing
// array for the whole run.
type eventQueue struct {
	h   []event
	ord uint64
}

func (q *eventQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].ord < q.h[j].ord
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
// obtained from reserveOrd). It does not advance the ordinal counter.
//
//ssim:hotpath
func (q *eventQueue) pushOrd(at int64, kind evKind, seq uint64, gen uint32, a uint64, ord uint64) {
	q.h = append(q.h, event{at: at, ord: ord, kind: kind, seq: seq, gen: gen, a: a})
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

// popReady removes and returns the next event with at <= now, or ok=false.
func (q *eventQueue) popReady(now int64) (event, bool) {
	if len(q.h) == 0 || q.h[0].at > now {
		return event{}, false
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q.less(l, m) {
			m = l
		}
		if r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
	return top, true
}

// nextAt returns the time of the earliest pending event.
func (q *eventQueue) nextAt() (int64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}
