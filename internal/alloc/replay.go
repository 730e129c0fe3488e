package alloc

import (
	"fmt"
	"reflect"

	"sharing/internal/econ"
	"sharing/internal/market"
)

// Sequential replay: the determinism witness. A concurrent Allocator run
// commits a total order of membership ops (the op log); replaying that
// stream ONE OP AT A TIME through a fresh single-goroutine allocator — one
// reprice per op, the fully serialized execution batching is supposed to be
// equivalent to — must reach a reflect.DeepEqual-identical final clearing.
//
// Why this holds: every resident response is the same pure search (fixed
// start, stateless search, memoized surface data), so a clearing's outcome
// is a function of the resident set it covers and nothing else. The batched run and the
// serialized run apply the same ops in the same order, so they end with the
// same resident set — and therefore the same final clearing, regardless of
// how ops were grouped into epochs along the way. The race tests, the
// sharingd churn test and perfbench's serving workloads assert this
// equivalence after concurrent churn.

// ReplaySequential replays a committed op log, one op per epoch, through a
// fresh allocator over the same lattice, supply, and prober, and returns
// the final clearing result (nil when the market ends empty). The caller
// supplies either a prober or Params with a shared SurfaceCache.
func ReplaySequential(p Params, prober market.Prober, log []OpRecord) (*econ.ClearingResult, error) {
	b, err := New(p, prober)
	if err != nil {
		return nil, err
	}
	for _, rec := range log {
		switch rec.Kind {
		case "arrive":
			if _, err := b.Arrive(rec.Name, rec.Bench, econ.Utility{K: rec.K, Budget: rec.Budget}); err != nil {
				return nil, fmt.Errorf("alloc: replay seq %d: %w", rec.Seq, err)
			}
		case "depart":
			if _, err := b.Depart(rec.Name); err != nil {
				return nil, fmt.Errorf("alloc: replay seq %d: %w", rec.Seq, err)
			}
		case "phase":
			if _, err := b.Reconfigure(rec.Name, rec.Phase); err != nil {
				return nil, fmt.Errorf("alloc: replay seq %d: %w", rec.Seq, err)
			}
		default:
			return nil, fmt.Errorf("alloc: replay seq %d: unknown op kind %q", rec.Seq, rec.Kind)
		}
	}
	return b.Snapshot().Result, nil
}

// VerifySequential replays a's committed op log one op at a time (through a
// fresh allocator over prober) and checks the final clearing against a's
// published view with reflect.DeepEqual. It returns the replayed result on
// success so callers can report it.
func VerifySequential(a *Allocator, prober market.Prober) (*econ.ClearingResult, error) {
	return verify(a, a.p, prober)
}

// Verify is VerifySequential for callers that no longer hold the prober:
// the replay reads the allocator's own surface cache, which memoizes every
// point the concurrent run probed — same data, zero re-probing.
func (a *Allocator) Verify() (*econ.ClearingResult, error) {
	p := a.p
	p.Surfaces = a.cache
	return verify(a, p, nil)
}

// verify replays a's op log through a fresh allocator built from p and
// prober and compares the final clearings.
func verify(a *Allocator, p Params, prober market.Prober) (*econ.ClearingResult, error) {
	want, err := ReplaySequential(p, prober, a.Log())
	if err != nil {
		return nil, err
	}
	got := a.Snapshot().Result
	if !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("alloc: concurrent clearing diverged from sequential replay:\n got %+v\nwant %+v", got, want)
	}
	return want, nil
}

// NormalizeBid strips the execution-telemetry field from a bid result —
// the probe count — leaving the allocation-relevant fields that must be
// DeepEqual-identical between concurrent serving and a sequential pricing
// of the same bid.
func NormalizeBid(br market.BidResult) market.BidResult {
	br.Probes = 0
	return br
}
