package fleet

import "testing"

// TestFleetGoldenFingerprints pins the full fingerprints of two runs at a
// scale where the placement index spans many 64-bit words (2,000 machines,
// 20,000 events): packed placement under adaptive prices, and spread
// placement, which touches every machine. The values were recorded from the
// sorted-slice bucket ladder and linear-scan departure queue that the bitset
// index and heap-merged stream replaced, so any change to which machine a
// VCore lands on, or to the event order, shows up here byte for byte.
func TestFleetGoldenFingerprints(t *testing.T) {
	cases := []struct {
		name  string
		place Placement
		want  string
	}{
		{"packed-adaptive", PlacePacked, "" +
			"machines=2000 epochs=86 events=20000 placed=10000 rejected=0 departed=10000 used=359 searches=360\n" +
			"utility=1196798.8338571345 simsec=108.11391255885428\n" +
			"energy=95072.657288675822/19053.368332487131/95072.657288675822/3676.0383409178021\n" +
			"probes=328 surfaces=6 prices=0.13060114380750582/0.060981016257982017\n" +
			"machinehash=8181c07b5187614f\n"},
		{"spread", PlaceSpread, "" +
			"machines=2000 epochs=86 events=20000 placed=10000 rejected=0 departed=10000 used=2000 searches=360\n" +
			"utility=959523.55852549127 simsec=108.11391255885428\n" +
			"energy=214856.00397170294/18996.280599549616/214856.00397170294/3523.0151364630842\n" +
			"probes=324 surfaces=6 prices=1/0.5\n" +
			"machinehash=7583ced1bbf2606d\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := Params{
				Machines:       2000,
				Shards:         4,
				Events:         20000,
				ArrivalsPerSec: 500,
				MeanLifetime:   10,
				Seed:           7,
				Benches:        testBenches,
				Place:          c.place,
				AdaptivePrices: c.place == PlacePacked,
			}
			if got := runFleet(t, p).Fingerprint(); got != c.want {
				t.Errorf("fingerprint drifted:\n--- got\n%s--- want\n%s", got, c.want)
			}
		})
	}
}
