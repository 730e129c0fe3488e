package fleet

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"sharing/internal/area"
	"sharing/internal/econ"
)

var testBenches = []string{"astar", "bzip2", "gobmk", "hmmer", "mcf", "sjeng"}

func testParams(shards int) Params {
	return Params{
		Machines:       64,
		Shards:         shards,
		Events:         2000,
		ArrivalsPerSec: 50,
		MeanLifetime:   2,
		Seed:           7,
		Benches:        testBenches,
	}
}

func runFleet(t *testing.T, p Params) *Report {
	t.Helper()
	f, err := New(p, SyntheticProber{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFleetDeterminismAcrossShards is the differential the whole sharding
// design answers to: the same fleet run at 1, 2, 4, and 8 shards must
// produce byte-identical fingerprints — placements, counts, utilities,
// energy totals, per-machine energies, probe economy, prices — under every
// policy combination. The package's tests run under -race in CI, so this
// also exercises the shared SurfaceCache and parallel phases for races.
func TestFleetDeterminismAcrossShards(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Params)
	}{
		{"base", func(p *Params) {}},
		{"perwatt-adaptive", func(p *Params) {
			p.Objective = ObjUtilityPerWatt
			p.AdaptivePrices = true
		}},
		{"spread", func(p *Params) { p.Place = PlaceSpread }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			base := testParams(1)
			v.mod(&base)
			want := runFleet(t, base).Fingerprint()
			for _, shards := range []int{2, 4, 8} {
				p := testParams(shards)
				v.mod(&p)
				got := runFleet(t, p).Fingerprint()
				if got != want {
					t.Errorf("%d shards diverge from 1 shard:\n--- 1 shard\n%s--- %d shards\n%s",
						shards, want, shards, got)
				}
			}
		})
	}
}

// TestMachineEnergyHandComputed pins the energy integration against a
// by-hand trace: park 10 s, host one VCore (4 Slices + 256 KB at activity
// 0.5) for 10 s, park 10 s. Every component must match the closed-form
// integral of the area power model to float precision.
func TestMachineEnergyHandComputed(t *testing.T) {
	var m machine
	pw := newChipPower(64, 128)
	l := lease{slices: 4, banks: 4, perf: 2.0} // 256 KB = 4 banks; activity 2.0/(4*1) = 0.5
	m.admit(10, l, &pw)
	m.evict(20, l, &pw)
	m.accrue(30, &pw)

	ssW := 64 * area.SliceStaticW() // chip Slice leakage when on
	bsW := 128 * area.BankStaticW()
	sdW := 4 * area.SliceDynamicW() * 0.5 // the VM's 4 Slices at activity 0.5
	bdW := 4 * area.BankDynamicW() * 0.5  // 256 KB = 4 banks

	want := EnergyBreakdown{
		// 20 s parked at the ParkedLeakFrac floor + 10 s fully leaking.
		SliceStaticJ:  area.ParkedLeakFrac*ssW*20 + ssW*10,
		BankStaticJ:   area.ParkedLeakFrac*bsW*20 + bsW*10,
		SliceDynamicJ: sdW * 10,
		BankDynamicJ:  bdW * 10,
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %v J, hand-computed %v J", name, got, want)
		}
	}
	check("SliceStaticJ", m.energy.SliceStaticJ, want.SliceStaticJ)
	check("SliceDynamicJ", m.energy.SliceDynamicJ, want.SliceDynamicJ)
	check("BankStaticJ", m.energy.BankStaticJ, want.BankStaticJ)
	check("BankDynamicJ", m.energy.BankDynamicJ, want.BankDynamicJ)
	check("TotalJ", m.energy.TotalJ(),
		want.SliceStaticJ+want.SliceDynamicJ+want.BankStaticJ+want.BankDynamicJ)
	if !m.everUsed || m.vms != 0 || m.dynSliceW != 0 || m.dynBankW != 0 {
		t.Errorf("machine state after evict: vms=%d dynSliceW=%v dynBankW=%v", m.vms, m.dynSliceW, m.dynBankW)
	}
}

// TestMachineEnergyMonotonicAccrual: departures are delivered one barrier
// late with their true (earlier) timestamp, so evict can run with t before a
// prior touch. The integral must stay monotonic — the old code rewound lastT
// backwards and double-counted the span [depart, prevTouch] on the next
// accrual.
func TestMachineEnergyMonotonicAccrual(t *testing.T) {
	var m machine
	pw := newChipPower(64, 128)
	l := lease{slices: 4, banks: 4, perf: 2.0}
	m.admit(10, l, &pw)
	m.evict(5, l, &pw) // backward: true departure predates the admit touch
	if m.lastT != 10 {
		t.Fatalf("lastT rewound to %v, want 10", m.lastT)
	}
	m.accrue(30, &pw)

	// The whole run must integrate exactly 30 s at the parked floor: [0, 10)
	// parked before the admit, and — since the backward evict takes effect at
	// lastT=10, leaving the machine parked again — [10, 30) parked too. The
	// old rewind re-counted [5, 10) and inflated statics by 5 s.
	ssW := 64 * area.SliceStaticW()
	bsW := 128 * area.BankStaticW()
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %v J, want %v J", name, got, want)
		}
	}
	check("SliceStaticJ", m.energy.SliceStaticJ, area.ParkedLeakFrac*ssW*30)
	check("BankStaticJ", m.energy.BankStaticJ, area.ParkedLeakFrac*bsW*30)
	if m.energy.SliceDynamicJ != 0 || m.energy.BankDynamicJ != 0 {
		t.Errorf("dynamic energy %v/%v J over a zero-length residency, want 0",
			m.energy.SliceDynamicJ, m.energy.BankDynamicJ)
	}
}

// TestChipPowerMatchesAreaModel pins the precomputed power constants to the
// per-call area-model expressions they replace, bit for bit: chipPower's
// static watts are float64(chip size) * per-unit leakage, then (parked)
// * ParkedLeakFrac, and vmDynamicW is slices * per-Slice dynamic watts *
// activity, in that evaluation order. Equal operands in the same order give
// equal results, so hoisting them keeps every energy integral — and every
// fingerprint — byte-identical. It also pins machine at one 64-byte line.
func TestChipPowerMatchesAreaModel(t *testing.T) {
	same := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v (%#x), area model %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, chip := range [][2]int{{64, 128}, {8, 16}, {1, 1}, {7, 3}} {
		pw := newChipPower(chip[0], chip[1])
		sliceW := float64(chip[0]) * area.SliceStaticW()
		bankW := float64(chip[1]) * area.BankStaticW()
		same("sliceOnW", pw.sliceOnW, sliceW)
		same("bankOnW", pw.bankOnW, bankW)
		sliceW *= area.ParkedLeakFrac
		bankW *= area.ParkedLeakFrac
		same("sliceParkedW", pw.sliceParkedW, sliceW)
		same("bankParkedW", pw.bankParkedW, bankW)
		same("sliceDynW", pw.sliceDynW, area.SliceDynamicW())
		same("bankDynW", pw.bankDynW, area.BankDynamicW())
		for _, l := range []lease{{slices: 4, banks: 4, perf: 2.0}, {slices: 1, perf: 0.37}, {slices: 8, banks: 32, perf: 9.1}, {slices: 3, banks: 7, perf: 1e-3}} {
			a := area.Activity(l.perf, int(l.slices))
			s, b := vmDynamicW(l, &pw)
			same("vmDynamicW slice", s, float64(l.slices)*area.SliceDynamicW()*a)
			same("vmDynamicW bank", b, float64(l.banks)*area.BankDynamicW()*a)
		}
	}
	if size := unsafe.Sizeof(machine{}); size != 64 {
		t.Errorf("machine is %d bytes, want one 64-byte cache line", size)
	}
}

// TestEventLayout pins the one record the epoch loop moves: event is 32
// bytes and lease 16, a calendar chunk is exactly one Go size class (so no
// allocation rounds it up), and all three are pointer-free, so the GC never
// scans the calendar, the epoch batch or an apply queue.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 32 {
		t.Errorf("event is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof(lease{}); size != 16 {
		t.Errorf("lease is %d bytes, want 16", size)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	size := uint32(unsafe.Sizeof(chunk{}))
	class := false
	for _, c := range ms.BySize {
		class = class || c.Size == size
	}
	if !class {
		t.Errorf("a chunk is %d bytes, not a Go size class", size)
	}
	for _, v := range []any{event{}, lease{}, chunk{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// pointerFree reports whether values of typ hold no pointers.
func pointerFree(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() == 0 || pointerFree(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}

// TestFleetReportConsistency checks the report's internal arithmetic on a
// real run: event conservation, energy reduction identities, and the probe
// economy bounds the acceptance criteria quote.
func TestFleetReportConsistency(t *testing.T) {
	rep := runFleet(t, testParams(4))
	if rep.Events != rep.Placed+rep.Rejected+rep.Departed {
		t.Errorf("events %d != placed %d + rejected %d + departed %d",
			rep.Events, rep.Placed, rep.Rejected, rep.Departed)
	}
	if rep.Departed != rep.Placed {
		// The stream drains every scheduled departure before ending.
		t.Errorf("departed %d != placed %d", rep.Departed, rep.Placed)
	}
	var perShard, perMachine float64
	for _, e := range rep.PerShard {
		perShard += e.TotalJ()
	}
	for _, e := range rep.MachineEnergy {
		perMachine += e
	}
	tot := rep.Energy.TotalJ()
	if math.Abs(perShard-tot) > 1e-6*tot || math.Abs(perMachine-tot) > 1e-6*tot {
		t.Errorf("energy reductions disagree: total %v, per-shard %v, per-machine %v", tot, perShard, perMachine)
	}
	if rep.UniqueProbes == 0 || rep.UniqueProbes > rep.GridProbes {
		t.Errorf("unique probes %d outside (0, grid %d]", rep.UniqueProbes, rep.GridProbes)
	}
	if rep.NaiveGridProbes < 10*rep.UniqueProbes {
		t.Errorf("probe economy too weak: %d unique vs %d naive per-bid sweeps",
			rep.UniqueProbes, rep.NaiveGridProbes)
	}
	if rep.UtilityAdmitted <= 0 || rep.MachinesUsed == 0 {
		t.Errorf("degenerate run: utility %v, machines used %d", rep.UtilityAdmitted, rep.MachinesUsed)
	}
}

// TestPlacementPolicies: best-fit consolidates onto fewer machines than
// worst-fit spreads across, and consolidation must show up as less energy
// (parked machines draw only the leakage floor).
func TestPlacementPolicies(t *testing.T) {
	packed := testParams(2)
	packed.Machines = 256 // headroom so the policies can actually differ
	spread := packed
	spread.Place = PlaceSpread
	rp := runFleet(t, packed)
	rs := runFleet(t, spread)
	if rp.MachinesUsed >= rs.MachinesUsed {
		t.Errorf("packed used %d machines, spread %d — packing should consolidate",
			rp.MachinesUsed, rs.MachinesUsed)
	}
	if rp.Energy.TotalJ() >= rs.Energy.TotalJ() {
		t.Errorf("packed energy %.1f J >= spread %.1f J — parking should save leakage",
			rp.Energy.TotalJ(), rs.Energy.TotalJ())
	}
	// Same bid stream, same pricing: the admitted utility must agree.
	if math.Abs(rp.UtilityAdmitted-rs.UtilityAdmitted) > 1e-9*rp.UtilityAdmitted {
		t.Errorf("utility differs across placement policies: %v vs %v", rp.UtilityAdmitted, rs.UtilityAdmitted)
	}
}

// TestFleetRejectsWhenFull: a one-machine fleet under sustained load must
// reject bids rather than oversubscribe.
func TestFleetRejectsWhenFull(t *testing.T) {
	p := testParams(1)
	p.Machines = 1
	p.MeanLifetime = 1000 // effectively no departures during arrivals
	rep := runFleet(t, p)
	if rep.Rejected == 0 {
		t.Fatal("no rejections on a saturated one-machine fleet")
	}
	if rep.MachinesUsed != 1 {
		t.Fatalf("machines used = %d, want 1", rep.MachinesUsed)
	}
}

// TestEventStreamDeterministic: the synthetic stream is a pure function of
// its parameters — identical replay, seed sensitivity, ordering, and counts.
func TestEventStreamDeterministic(t *testing.T) {
	gen := func(seed uint64) []event {
		s := newEventStream(seed, 100, 1, 1, 400, len(testBenches))
		var out []event
		for i := 1.0; !s.done() && i < 1000; i++ {
			out = append(out, s.take(i)...)
		}
		return out
	}
	a, b := gen(7), gen(7)
	if len(a) != 200 {
		t.Fatalf("%d arrivals, want 200", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := gen(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 generate identical streams")
	}
	last := -1.0
	for i, ev := range a {
		if ev.t < last {
			t.Fatalf("event %d out of order: %v after %v", i, ev.t, last)
		}
		last = ev.t
		if ev.k() < 1 || ev.k() > 3 {
			t.Fatalf("event %d: utility exponent %d", i, ev.k())
		}
	}
}

// TestAdaptivePricesMove: under sustained load the ratchet must move prices
// off the initial vector, deterministically.
func TestAdaptivePricesMove(t *testing.T) {
	p := testParams(2)
	p.Machines = 4 // high utilization so the ratchet engages upward
	p.AdaptivePrices = true
	p.MeanLifetime = 50
	rep := runFleet(t, p)
	if rep.FinalPrices == econ.Market2() {
		t.Fatalf("adaptive prices never moved: %+v", rep.FinalPrices)
	}
}

// TestParamValidation covers New's error paths.
func TestParamValidation(t *testing.T) {
	if _, err := New(Params{Benches: testBenches}, SyntheticProber{}); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := New(Params{Machines: 4}, SyntheticProber{}); err == nil {
		t.Error("no benchmarks accepted")
	}
	half := Params{Machines: 4, Benches: testBenches, Market: econ.Market{SliceCost: 1}}
	if _, err := New(half, SyntheticProber{}); err == nil {
		t.Error("market with only SliceCost accepted")
	}
	half.Market = econ.Market{BankCost: 0.1}
	if _, err := New(half, SyntheticProber{}); err == nil {
		t.Error("market with only BankCost accepted")
	}
	// The NaN and infinite cases once made Run spin forever. The negative
	// ones once ran silently on defaults: only zero selects a default. The
	// rest exceed what a lease's int32 machine ID and uint16 Slice and bank
	// counts hold, or name no benchmark.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		mod  func(*Params)
	}{
		{"NaN Epoch", func(p *Params) { p.Epoch = nan }},
		{"+Inf Epoch", func(p *Params) { p.Epoch = inf }},
		{"-Inf Epoch", func(p *Params) { p.Epoch = -inf }},
		{"negative Epoch", func(p *Params) { p.Epoch = -1 }},
		{"NaN MeanLifetime", func(p *Params) { p.MeanLifetime = nan }},
		{"+Inf MeanLifetime", func(p *Params) { p.MeanLifetime = inf }},
		{"-Inf MeanLifetime", func(p *Params) { p.MeanLifetime = -inf }},
		{"negative MeanLifetime", func(p *Params) { p.MeanLifetime = -1 }},
		{"NaN ArrivalsPerSec", func(p *Params) { p.ArrivalsPerSec = nan }},
		{"-Inf ArrivalsPerSec", func(p *Params) { p.ArrivalsPerSec = -inf }},
		{"negative ArrivalsPerSec", func(p *Params) { p.ArrivalsPerSec = -1 }},
		{"negative Events", func(p *Params) { p.Events = -1 }},
		{"negative Shards", func(p *Params) { p.Shards = -1 }},
		{"negative ChipSlices", func(p *Params) { p.ChipSlices = -1 }},
		{"negative ChipBanks", func(p *Params) { p.ChipBanks = -1 }},
		{"Machines beyond int32", func(p *Params) { p.Machines = math.MaxInt32 + 1 }},
		{"ChipSlices beyond uint16", func(p *Params) { p.ChipSlices = math.MaxUint16 + 1 }},
		{"ChipBanks beyond uint16", func(p *Params) { p.ChipBanks = math.MaxUint16 + 1 }},
		{"empty bench name", func(p *Params) { p.Benches = []string{"hmmer", "", "gobmk"} }},
	} {
		p := Params{Machines: 4, Benches: testBenches}
		c.mod(&p)
		if _, err := New(p, SyntheticProber{}); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// A finite lifetime whose departures lie beyond the epoch counter's
	// range is an error from Run, not a stall.
	far, err := New(Params{Machines: 4, Events: 4, MeanLifetime: 1e300, Benches: testBenches}, SyntheticProber{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := far.Run(); err == nil {
		t.Error("departures beyond 2^53 epochs accepted")
	}
	// The largest chip a lease can describe is legal.
	if _, err := New(Params{Machines: 4, ChipSlices: math.MaxUint16, ChipBanks: math.MaxUint16, Benches: testBenches}, SyntheticProber{}); err != nil {
		t.Errorf("65535-Slice, 65535-bank chips rejected: %v", err)
	}
	// An infinite arrival rate stays legal: every arrival at one instant.
	p := Params{Machines: 4, Events: 40, ArrivalsPerSec: inf, Benches: testBenches}
	if rep := runFleet(t, p); rep.Placed+rep.Rejected != 20 {
		t.Errorf("+Inf ArrivalsPerSec: %d arrivals, want 20", rep.Placed+rep.Rejected)
	}
}

// TestFleetRunAllocsDoNotScaleWithEvents is the deterministic allocation
// gate on the epoch loop: quadrupling the events of a run must add far
// fewer allocations than it adds arrivals. What a run may allocate grows
// with its epochs (pricing groups, phase goroutines) and, logarithmically,
// with its peak backlog (buffer growth) — never once per VM.
func TestFleetRunAllocsDoNotScaleWithEvents(t *testing.T) {
	allocs := func(events int) float64 {
		p := Params{
			Machines:       2000,
			Shards:         2,
			Events:         events,
			ArrivalsPerSec: 5000,
			MeanLifetime:   1,
			Seed:           7,
			Benches:        testBenches,
			AdaptivePrices: true,
		}
		return testing.AllocsPerRun(1, func() { runFleet(t, p) })
	}
	small, large := allocs(20000), allocs(80000)
	added := (80000 - 20000) / 2 // arrivals
	if grew := large - small; grew > float64(added)/20 {
		t.Errorf("allocations grew by %.0f (%.0f -> %.0f) for %d added arrivals, want under %d",
			grew, small, large, added, added/20)
	}
}
