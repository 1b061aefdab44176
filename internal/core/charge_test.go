package core

import (
	"testing"

	"parmsf/internal/pram"
	"parmsf/internal/tourney"
	"parmsf/internal/xrand"
)

// The row rebuild and the MWR gamma minimum compute on the host and charge
// the rounds of the tournaments of Lemmas 3.1 and 3.3. These tests run the
// reference kernels of internal/tourney beside the charges and require the
// same counters, so a charge that drifts from its kernel fails here.

// sameCounters reports whether two machines were charged identically.
func sameCounters(a, b *pram.Machine) bool {
	return a.Time == b.Time && a.Work == b.Work && a.MaxActive == b.MaxActive
}

// TestRowTournamentCharge drives random destination sequences through
// tourney.Forest.Run on a checking machine and through chargeTournament:
// row sizes from empty to 3K+4 entries for K from 8 up, destinations drawn
// from a few trees (so runs and repeats are common) or from all of them,
// and some entries without a registered destination.
func TestRowTournamentCharge(t *testing.T) {
	const trees, trials = 40, 2000
	rng := xrand.New(23)
	forests := map[int]*tourney.Forest{}
	ref := pram.New(true)
	prev := make([]int32, trees)
	for trial := 0; trial < trials; trial++ {
		k := 8 + rng.Intn(57)
		leaves := 3*k + 4
		f := forests[k]
		if f == nil {
			f = tourney.NewForest(ref, trees, leaves)
			forests[k] = f
		}
		spread := 1 + rng.Intn(trees)
		entries := make([]tourney.Entry, rng.Intn(leaves+1))
		dests := make([]int32, len(entries))
		for i := range entries {
			d := int32(rng.Intn(spread))
			if rng.Intn(5) == 0 {
				d = -1
			}
			entries[i] = tourney.Entry{Tree: d, Val: int64(rng.Intn(50)), Payload: int32(i)}
			dests[i] = d
		}
		ref.Reset()
		f.Run(entries, func(int32, int64, int32) {})
		if v := ref.Violations(); len(v) != 0 {
			t.Fatalf("trial %d: reference kernel EREW violations: %v", trial, v)
		}
		got := pram.New(false)
		chargeTournament(PRAMCharger{M: got}, dests, leaves, prev)
		if !sameCounters(ref, got) {
			t.Fatalf("trial %d (K=%d, %d entries over %d trees): charged T=%d W=%d A=%d, kernel T=%d W=%d A=%d",
				trial, k, len(dests), spread, got.Time, got.Work, got.MaxActive, ref.Time, ref.Work, ref.MaxActive)
		}
		for d, p := range prev {
			if p != 0 {
				t.Fatalf("trial %d: prev[%d] = %d left behind", trial, d, p)
			}
		}
	}
}

// TestMinReduceCharge drives random gamma vectors, with 0 to a few thousand
// finite entries and many ties, through tourney.MinReduce and through
// gammaMin plus chargeMinReduce: the same counters and the same lowest-index
// argmin.
func TestMinReduceCharge(t *testing.T) {
	const trials = 2000
	rng := xrand.New(29)
	for trial := 0; trial < trials; trial++ {
		hi := 1 + rng.Intn(4096)
		member, finite := rng.Intn(101), rng.Intn(101) // percent
		cadj := make([]Weight, hi)
		memb := make([]uint64, (hi+63)/64)
		gamma := make([]Weight, hi)
		for j := range cadj {
			cadj[j], gamma[j] = Inf, Inf
			if rng.Intn(100) < finite {
				cadj[j] = Weight(rng.Intn(200))
			}
			if rng.Intn(100) < member {
				memb[j/64] |= 1 << (j % 64)
				gamma[j] = cadj[j]
			}
		}
		ref := pram.New(false)
		wantID, want := tourney.MinReduce(ref, gamma, Inf)
		gotID, best, live := gammaMin(cadj, memb, hi)
		got := pram.New(false)
		chargeMinReduce(PRAMCharger{M: got}, live)
		if gotID != wantID || best != want {
			t.Fatalf("trial %d: gammaMin = (%d, %d), MinReduce = (%d, %d)", trial, gotID, best, wantID, want)
		}
		if !sameCounters(ref, got) {
			t.Fatalf("trial %d (%d live): charged T=%d W=%d A=%d, kernel T=%d W=%d A=%d",
				trial, live, got.Time, got.Work, got.MaxActive, ref.Time, ref.Work, ref.MaxActive)
		}
	}
}
