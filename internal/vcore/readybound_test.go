package vcore

import (
	"fmt"
	"testing"

	"sharing/internal/noc"
	"sharing/internal/trace"
	"sharing/internal/workload"
)

// The issue windows' ready bounds (aluRdy/lsRdy) replace two exhaustive
// window scans: the per-cycle pickReady pass and NextWake's walk over every
// entry. The functions below keep those scans as a test-only oracle.

// oracleMin is the earliest readyAt over win's operand-ready entries,
// NeverWake if it has none: the exact value the ready bound must not exceed.
func oracleMin(e *Engine, win []uint64) int64 {
	lo := NeverWake
	for _, seq := range win {
		f := e.flight(seq)
		if f.state == stInWindow && f.pendingSrc == 0 && f.readyAt < lo {
			lo = f.readyAt
		}
	}
	return lo
}

// oraclePick is the unconditional scan: the oldest operand-ready entry of
// win whose readyAt is at or before now.
func oraclePick(e *Engine, win []uint64, now int64) (uint64, bool) {
	for _, seq := range win {
		f := e.flight(seq)
		if f.state == stInWindow && f.pendingSrc == 0 && f.readyAt <= now {
			return seq, true
		}
	}
	return 0, false
}

// oracleNextWake is NextWake as it was before the ready bounds: every
// window entry is visited.
func oracleNextWake(e *Engine, now int64) int64 {
	if e.Done() || e.err != nil {
		return NeverWake
	}
	next := NeverWake
	if at, ok := e.events.nextAt(); ok && at < next {
		next = at
	}
	for k := 0; k < e.cfg.NumSlices; k++ {
		if lo := oracleMin(e, e.aluWin[k]); lo < NeverWake {
			next = min(next, maxi64(lo, e.aluBusy[k]))
		}
		if lo := oracleMin(e, e.lsWin[k]); lo < NeverWake {
			next = min(next, maxi64(lo, e.lsBusy[k]))
		}
	}
	if e.fetchSeq < uint64(len(e.tr)) && !e.atBarrier &&
		!(e.barrierIdx < len(e.barriers) && e.fetchSeq >= uint64(e.barriers[e.barrierIdx])) &&
		!e.waitingIFill && e.blockedBranch < 0 &&
		e.fetchBlockedUntil > now && e.fetchBlockedUntil < next {
		next = e.fetchBlockedUntil
	}
	if next <= now {
		return now + 1
	}
	return next
}

// checkReadyBounds compares the engine against the oracle after the Step at
// cycle now: every bound is at most its window's exact minimum, the
// bound-gated pick equals the oracle's at the next cycle and at the
// window's first ready cycle, and NextWake is a lower bound on the
// oracle's wake that is NeverWake exactly when the oracle's is.
func checkReadyBounds(t *testing.T, e *Engine, now int64) {
	t.Helper()
	for k := 0; k < e.cfg.NumSlices; k++ {
		for _, w := range []struct {
			name  string
			win   []uint64
			bound int64
		}{
			{"alu", e.aluWin[k], e.aluRdy[k]},
			{"ls", e.lsWin[k], e.lsRdy[k]},
		} {
			lo := oracleMin(e, w.win)
			if w.bound > lo {
				t.Fatalf("cycle %d: Slice %d %s window bound %d above its earliest ready entry %d", now, k, w.name, w.bound, lo)
			}
			for _, at := range []int64{now + 1, lo} {
				var got uint64
				ok := false
				if w.bound <= at {
					b := w.bound // pickReady may tighten it; keep the engine's as is
					got, ok = e.pickReady(w.win, &b, at)
				}
				want, wantOK := oraclePick(e, w.win, at)
				if got != want || ok != wantOK {
					t.Fatalf("cycle %d: Slice %d %s window at %d: picked (%d, %v), oracle (%d, %v)", now, k, w.name, at, got, ok, want, wantOK)
				}
			}
		}
	}
	got, want := e.NextWake(now), oracleNextWake(e, now)
	if got > want {
		t.Fatalf("cycle %d: NextWake %d after the oracle's %d", now, got, want)
	}
	if (got == NeverWake) != (want == NeverWake) {
		t.Fatalf("cycle %d: NextWake %d, oracle %d: NeverWake must match exactly", now, got, want)
	}
}

// TestReadyBoundMatchesOracle steps engines of 1, 3 and 8 Slices over
// generated workloads with the event-driven loop and checks the ready
// bounds against the exhaustive scans after every Step. Small LSQs force
// overflow squashes, so the squash recomputation is covered.
func TestReadyBoundMatchesOracle(t *testing.T) {
	type variant struct {
		name string
		lsq  int
	}
	variants := []variant{{"base", 0}, {"lsq4", 4}}
	n := 4000
	if testing.Short() {
		n = 1500
	}
	for _, bench := range []string{"mcf", "gobmk", "libquantum", "sjeng"} {
		prof, err := workload.Lookup(bench)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := prof.Generate(n, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, slices := range []int{1, 3, 8} {
			for _, v := range variants {
				bench, slices, v := bench, slices, v
				th := mt.Threads[0]
				t.Run(fmt.Sprintf("%s/%d/%s", bench, slices, v.name), func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig(slices)
					if v.lsq > 0 {
						cfg.LSQSize, cfg.LSWindow = v.lsq, v.lsq
					}
					op := noc.New("op", 4, MaxSlices, 1, noc.MinWindow)
					srt := noc.New("sort", 4, MaxSlices, 1, noc.MinWindow)
					e, err := New(cfg, &trace.Trace{Name: bench, Insts: th.Insts}, positions(slices), op, srt, &stubUncore{l2Lat: 30})
					if err != nil {
						t.Fatal(err)
					}
					var now int64
					for !e.Done() {
						active := e.Step(now)
						if err := e.Err(); err != nil {
							t.Fatal(err)
						}
						checkReadyBounds(t, e, now)
						next := now + 1
						if !active && !e.Done() {
							next = e.NextWake(now)
							if next == NeverWake {
								t.Fatalf("deadlock at cycle %d", now)
							}
							e.AccountIdle(next-now-1, now)
						}
						now = next
					}
					if v.lsq > 0 && e.Stats().LSQOverflows == 0 {
						t.Error("no LSQ overflow squash: the variant does not cover squash")
					}
				})
			}
		}
	}
}
