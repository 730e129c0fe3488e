package vcore

import (
	"testing"

	"sharing/internal/isa"
	"sharing/internal/noc"
	"sharing/internal/trace"
	"sharing/internal/workload"
)

// TestFlushDropsSquashedEvents drives generated traces through detailed
// windows separated by FlushInFlight and FastForward, as sampled
// simulation does. After every flush no queued event may name a squashed
// instruction, every fill and drain must still be queued, the pending run
// must stay in (at, ord) order, and the run must end in the reference
// interpreter's architectural state.
func TestFlushDropsSquashedEvents(t *testing.T) {
	for _, bench := range []string{"mcf", "libquantum"} {
		prof, err := workload.Lookup(bench)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := prof.Generate(6000, 3)
		if err != nil {
			t.Fatal(err)
		}
		insts := mt.Threads[0].Insts
		e, err := New(DefaultConfig(4), &trace.Trace{Name: bench, Insts: insts}, positions(4),
			noc.New("op", 4, MaxSlices, 1, noc.MinWindow), noc.New("sort", 4, MaxSlices, 1, noc.MinWindow), &stubUncore{l2Lat: 30})
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		var now int64
		for steps := 1; !e.Done(); steps++ {
			e.Step(now)
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			if steps%300 == 0 && !e.Done() {
				kept := 0
				for _, ev := range e.events.h[e.events.head:] {
					if !ev.kind.perInst() {
						kept++
					} else if ev.seq >= e.commitHead {
						dropped++
					}
				}
				e.FlushInFlight(now)
				pending := e.events.h[e.events.head:]
				for i, ev := range pending {
					if ev.kind.perInst() && ev.seq >= e.commitHead {
						t.Fatalf("%s: after the flush at cycle %d (commit head %d) an event of kind %d names squashed seq %d",
							bench, now, e.commitHead, ev.kind, ev.seq)
					}
					if !ev.kind.perInst() {
						kept--
					}
					if i == 0 {
						continue
					}
					if p := pending[i-1]; p.at > ev.at || p.at == ev.at && p.ord >= ev.ord {
						t.Fatalf("%s: after the flush at cycle %d pending event %d (at %d, ord %d) follows (at %d, ord %d)",
							bench, now, i, ev.at, ev.ord, p.at, p.ord)
					}
				}
				if kept != 0 {
					t.Fatalf("%s: the flush at cycle %d changed the number of fills and drains by %d", bench, now, -kept)
				}
				if err := e.FastForward(e.Committed()+500, now); err != nil {
					t.Fatal(err)
				}
			}
			now++
		}
		if dropped == 0 {
			t.Errorf("%s: no flush found a squashed instruction's event; the test shows nothing", bench)
		}
		ref := isa.NewInterp()
		if err := ref.Run(insts); err != nil {
			t.Fatal(err)
		}
		if diff := e.FinalState().Diff(ref.State); diff != "" {
			t.Fatalf("%s: architectural mismatch: %s", bench, diff)
		}
	}
}
