package fleet

import "testing"

// TestFleetGoldenFingerprints pins the full fingerprints of nine runs.
//
// The first two run at a scale where the placement index spans many 64-bit
// words (2,000 machines, 20,000 events): packed placement under adaptive
// prices, and spread placement, which touches every machine. Their values
// were recorded from the sorted-slice bucket ladder and linear-scan
// departure queue that the bitset index and heap-merged stream replaced, so
// any change to which machine a VCore lands on, or to the event order, shows
// up here byte for byte.
//
// The last two pin the departure path. In short-lifetime, the mean lifetime
// is a twentieth of an epoch, so most departures fall inside their
// arrival's own epoch and are delivered one epoch late with their true,
// earlier timestamp. In saturated, 20 machines cannot hold the offered
// load, so many bids are rejected, and a rejected bid must never yield a
// departure. Both were recorded from the fleet that tracked every resident
// VM in a live map, before departures carried their lease.
//
// The remaining five were recorded from the binary-heap departure queue that
// the epoch-keyed calendar replaced, whose order did not depend on the epoch
// length. The calendar's bucket width is the epoch, so four of them vary it
// (0.3 s and 2.5 s) against short and long lifetimes. In far-lifetime the
// mean lifetime is 10^6 s: departures land up to ~10^7 epochs out, far
// beyond the calendar's ring, and almost every epoch between them is empty.
func TestFleetGoldenFingerprints(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Params)
		want string
	}{
		{"packed-adaptive", func(p *Params) { p.AdaptivePrices = true }, "" +
			"machines=2000 epochs=86 events=20000 placed=10000 rejected=0 departed=10000 used=359 searches=360\n" +
			"utility=1196798.8338571345 simsec=108.11391255885428\n" +
			"energy=95072.657288675822/19053.368332487131/95072.657288675822/3676.0383409178021\n" +
			"probes=328 surfaces=6 prices=0.13060114380750582/0.060981016257982017\n" +
			"machinehash=8181c07b5187614f\n"},
		{"spread", func(p *Params) { p.Place = PlaceSpread }, "" +
			"machines=2000 epochs=86 events=20000 placed=10000 rejected=0 departed=10000 used=2000 searches=360\n" +
			"utility=959523.55852549127 simsec=108.11391255885428\n" +
			"energy=214856.00397170294/18996.280599549616/214856.00397170294/3523.0151364630842\n" +
			"probes=324 surfaces=6 prices=1/0.5\n" +
			"machinehash=7583ced1bbf2606d\n"},
		{"short-lifetime", func(p *Params) {
			p.MeanLifetime = 0.05
			p.AdaptivePrices = true
		}, "" +
			"machines=2000 epochs=21 events=20000 placed=10000 rejected=0 departed=10000 used=46 searches=360\n" +
			"utility=1223958.6223579464 simsec=20.105683758328748\n" +
			"energy=11028.872429846571/115.66766200892944/11028.872429846571/21.463815290982797\n" +
			"probes=324 surfaces=6 prices=0.59598736364349825/0.29590789639212184\n" +
			"machinehash=3e384af8ce0759f7\n"},
		{"saturated", func(p *Params) {
			p.Machines = 20
			p.AdaptivePrices = true
		}, "" +
			"machines=20 epochs=72 events=11681 placed=1681 rejected=8319 departed=1681 used=20 searches=360\n" +
			"utility=87656.916768820069 simsec=108.11391255885428\n" +
			"energy=3639.0719816801688/1628.1519573969574/3639.0719816801688/214.85842937508556\n" +
			"probes=348 surfaces=6 prices=0.72687517036491256/0.12159444954279411\n" +
			"machinehash=11ba4a9fd4a3fba1\n"},
		{"epoch0.3-short-lifetime", func(p *Params) {
			p.Epoch = 0.3
			p.MeanLifetime = 0.05
			p.AdaptivePrices = true
		}, "" +
			"machines=2000 epochs=68 events=20000 placed=10000 rejected=0 departed=10000 used=16 searches=1206\n" +
			"utility=2445724.2724053278 simsec=20.105683758328748\n" +
			"energy=11002.154285965349/130.99478564469874/11002.154285965349/24.26073361471402\n" +
			"probes=324 surfaces=6 prices=0.18132501064591738/0.090027419963427488\n" +
			"machinehash=f31a737876e476f2\n"},
		{"epoch0.3", func(p *Params) {
			p.Epoch = 0.3
			p.AdaptivePrices = true
		}, "" +
			"machines=2000 epochs=246 events=20000 placed=10000 rejected=0 departed=10000 used=358 searches=1206\n" +
			"utility=2195678.4449990969 simsec=108.11391255885428\n" +
			"energy=95298.340321751486/19175.208242762888/95298.340321751486/4047.5836172780018\n" +
			"probes=328 surfaces=6 prices=0.0031531924975113316/0.0012766942952363992\n" +
			"machinehash=f59dd62830e6f9fb\n"},
		{"epoch2.5-short-lifetime", func(p *Params) {
			p.Epoch = 2.5
			p.MeanLifetime = 0.05
			p.AdaptivePrices = true
		}, "" +
			"machines=2000 epochs=9 events=20000 placed=10000 rejected=0 departed=10000 used=106 searches=144\n" +
			"utility=1044034.5012968463 simsec=20.105683758328748\n" +
			"energy=11032.916581930669/110.95174446484329/11032.916581930669/20.731342078277905\n" +
			"probes=324 surfaces=6 prices=0.80756671662758639/0.40095934657767351\n" +
			"machinehash=5c574ef6f191987d\n"},
		{"epoch2.5", func(p *Params) {
			p.Epoch = 2.5
			p.AdaptivePrices = true
		}, "" +
			"machines=2000 epochs=39 events=20000 placed=10000 rejected=0 departed=10000 used=368 searches=144\n" +
			"utility=1038041.0095989032 simsec=108.11391255885428\n" +
			"energy=95627.259891594003/19051.557463895329/95627.259891594003/3532.9545291703639\n" +
			"probes=324 surfaces=6 prices=0.39481701394219848/0.19180712747963632\n" +
			"machinehash=571bf1caf329574e\n"},
		{"far-lifetime", func(p *Params) {
			p.MeanLifetime = 1e6
			p.AdaptivePrices = true
		}, "" +
			"machines=2000 epochs=9992 events=20000 placed=10000 rejected=0 departed=10000 used=828 searches=360\n" +
			"utility=1179197.6911255806 simsec=9021538.7552918661\n" +
			"energy=10812280112.577265/1911194400.9431674/10812280112.577265/386308684.0682857\n" +
			"probes=328 surfaces=6 prices=0.001/0.001\n" +
			"machinehash=be332593737f4013\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := Params{
				Machines:       2000,
				Events:         20000,
				ArrivalsPerSec: 500,
				MeanLifetime:   10,
				Seed:           7,
				Benches:        testBenches,
			}
			c.mod(&p)
			if got := runFleet(t, p).Fingerprint(); got != c.want {
				t.Errorf("fingerprint drifted:\n--- got\n%s--- want\n%s", got, c.want)
			}
		})
	}
}
