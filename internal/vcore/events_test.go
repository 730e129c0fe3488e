package vcore

import (
	"math/rand"
	"testing"
)

// refQueue is the event queue's earlier layout, kept as the oracle the
// sorted run must match: a binary min-heap over (at, ord).
type refQueue struct {
	h   []event
	ord uint64
}

func (q *refQueue) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].ord < q.h[j].ord
}

func (q *refQueue) push(at int64, kind evKind, seq uint64, gen uint32, a uint64) {
	q.ord++
	q.pushOrd(at, kind, seq, gen, a, q.ord)
}

func (q *refQueue) reserveOrd() uint64 {
	q.ord++
	return q.ord
}

func (q *refQueue) pushOrd(at int64, kind evKind, seq uint64, gen uint32, a uint64, ord uint64) {
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

func (q *refQueue) popReady(now int64) (event, bool) {
	if len(q.h) == 0 || q.h[0].at > now {
		return event{}, false
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	q.down(0)
	return top, true
}

func (q *refQueue) down(i int) {
	n := len(q.h)
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
			return
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
}

func (q *refQueue) nextAt() (int64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].at, true
}

// queueStream replays a decoded operation stream through the sorted run
// and the reference heap and fails on the first pop or peek that differs.
// Each byte pair (op, arg) is one operation: a push a few cycles ahead
// (same-cycle ties), up to 255 cycles ahead, or far in the future; a push
// behind the current cycle; reserving an ordinal, or pushing the oldest
// reserved one as a delayed fill does; popping at a lagging cycle; and
// moving the cycle forward a little or a lot and popping what is ready.
// Seqs are drawn out of ordinal order, so a queue that broke ties by seq
// would show.
func queueStream(t *testing.T, ops []byte) {
	t.Helper()
	var (
		q        eventQueue
		ref      refQueue
		now      int64
		seq      uint64
		reserved []uint64
	)
	push := func(at int64, kind evKind, arg byte) {
		seq++
		s := seq + uint64(arg%32)
		q.push(at, kind, s, uint32(arg), uint64(at))
		ref.push(at, kind, s, uint32(arg), uint64(at))
	}
	pop := func(k int, at int64) {
		got, gok := q.popReady(at)
		want, wok := ref.popReady(at)
		if got != want || gok != wok {
			t.Fatalf("op %d: popReady(%d) = %+v, %v; reference %+v, %v", k, at, got, gok, want, wok)
		}
	}
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k], ops[k+1]
		kind := evKind(op>>4) % (evLoadFill + 1)
		switch op % 9 {
		case 0:
			push(now+int64(arg%4), kind, arg)
		case 1:
			push(now+int64(arg), kind, arg)
		case 2:
			push(now+int64(arg)<<12, kind, arg)
		case 3:
			push(now-int64(arg%16), kind, arg)
		case 4:
			o := q.reserveOrd()
			if r := ref.reserveOrd(); r != o {
				t.Fatalf("op %d: reserveOrd = %d, reference %d", k, o, r)
			}
			reserved = append(reserved, o)
		case 5:
			if len(reserved) == 0 {
				break
			}
			o := reserved[0]
			reserved = reserved[1:]
			at := now + int64(arg%8)
			q.pushOrd(at, evLoadFill, uint64(arg%8), 0, uint64(o), o)
			ref.pushOrd(at, evLoadFill, uint64(arg%8), 0, uint64(o), o)
		case 6:
			pop(k, now-int64(arg%8))
		case 7:
			now += int64(arg % 4)
			for i := 0; i <= int(arg>>2); i++ {
				pop(k, now)
			}
		case 8:
			now += int64(arg) << 8
			pop(k, now)
		}
		got, gok := q.nextAt()
		want, wok := ref.nextAt()
		if got != want || gok != wok {
			t.Fatalf("op %d: nextAt = %d, %v; reference %d, %v", k, got, gok, want, wok)
		}
	}
	for {
		got, gok := q.popReady(now)
		want, wok := ref.popReady(now)
		if got != want || gok != wok {
			t.Fatalf("draining: popReady(%d) = %+v, %v; reference %+v, %v", now, got, gok, want, wok)
		}
		if !gok {
			if at, ok := ref.nextAt(); ok {
				now = at
				continue
			}
			return
		}
	}
}

// TestEventQueueMatchesReference runs seeded operation streams through the
// sorted run and the earlier binary heap and requires the same event from
// every pop and the same time from every peek. Streams differ in their mix
// of pushes and pops, so some keep the run near empty (it restarts at the
// front) and some let it grow and compact.
func TestEventQueueMatchesReference(t *testing.T) {
	for s := int64(0); s < 200; s++ {
		r := rand.New(rand.NewSource(s))
		pushBias := r.Intn(4)
		ops := make([]byte, 0, 4000)
		for len(ops) < cap(ops) {
			op := byte(r.Intn(256))
			if r.Intn(4) < pushBias {
				op = op&^15 | byte(r.Intn(6)) // a push, reserve or delayed fill
			}
			ops = append(ops, op, byte(r.Intn(256)))
		}
		queueStream(t, ops)
	}
}

// FuzzEventQueue is the coverage-guided form of
// TestEventQueueMatchesReference: any operation stream must pop and peek
// what the reference heap does.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 0, 0, 2, 5, 1, 7, 3, 7, 8})
	f.Add([]byte{4, 0, 1, 9, 3, 5, 0, 0, 5, 0, 9, 3, 6, 0, 8, 1})
	f.Add([]byte{2, 200, 1, 255, 0, 0, 3, 15, 7, 255, 8, 255, 9, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		queueStream(t, ops)
	})
}
