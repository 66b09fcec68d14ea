package compare

import (
	"math"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/strsim"
)

// resumeMatchers is testMatchers with zero-weight matchers in the middle
// and last: ResumeAtLeast must skip them exactly as AggSimAtLeast does.
func resumeMatchers() []Matcher {
	return []Matcher{
		{Attr: census.AttrFirstName, Weight: 0.4, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
		{Attr: census.AttrBirthplace, Weight: 0, Prof: strsim.ExactProfiled, Sim: strsim.Exact},
		{Attr: census.AttrSex, Weight: 0.2, Prof: strsim.ExactProfiled, Sim: strsim.Exact},
		{Attr: census.AttrSurname, Weight: 0.2, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
		{Attr: census.AttrAddress, Weight: 0.1, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
		{Attr: census.AttrOccupation, Weight: 0.1, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
		{Attr: census.AttrSurname, Weight: 0, Prof: strsim.JaroProfiled, Sim: strsim.Jaro},
	}
}

// resumeEngines returns two engines over the same records: one scores
// with carried ResumeAtLeast state, the other from scratch, so their
// counters can be compared. compares[0] and compares[1] count the profile
// comparisons the resumed and the fresh engine make.
func resumeEngines(nOld, nNew int) (resumed, fresh *Engine, compares *[2]int) {
	old, new := testRecords("o", nOld), testRecords("n", nNew)
	compares = &[2]int{}
	engine := func(n *int) *Engine {
		ms := resumeMatchers()
		for i := range ms {
			counted := *ms[i].Prof
			cmp := counted.Compare
			counted.Compare = func(a, b *strsim.Profile) float64 { *n++; return cmp(a, b) }
			ms[i].Prof = &counted
		}
		return NewEngine(Compile(old, ms), Compile(new, ms))
	}
	return engine(&compares[0]), engine(&compares[1]), compares
}

// checkResume scores pair (oi, ni) at every delta in turn, carrying one
// resumable state, and requires each call to agree with a from-scratch
// AggSimAtLeast at that delta: the same accept decision, and on accept the
// same sum, bit for bit, which is also AggSim. While the deltas have not
// risen, a rejected pair's partial sum must match too.
func checkResume(t *testing.T, resumed, fresh *Engine, oi, ni int, deltas []float64) {
	t.Helper()
	sum, next := 0.0, uint8(0)
	descending := true
	for i, delta := range deltas {
		if i > 0 && delta > deltas[i-1] {
			descending = false
		}
		ok := resumed.ResumeAtLeast(oi, ni, delta, &sum, &next)
		want, wantOK := fresh.AggSimAtLeast(oi, ni, delta)
		if ok != wantOK {
			t.Fatalf("pair (%d, %d) deltas %v: at %v ResumeAtLeast=%v, AggSimAtLeast=%v", oi, ni, deltas, delta, ok, wantOK)
		}
		if ok && (sum != want || sum != fresh.AggSim(oi, ni)) {
			t.Fatalf("pair (%d, %d) deltas %v: at %v accepted sum %v, AggSimAtLeast %v, AggSim %v",
				oi, ni, deltas, delta, sum, want, fresh.AggSim(oi, ni))
		}
		if !ok && descending && sum != want {
			t.Fatalf("pair (%d, %d) deltas %v: at %v rejected partial sum %v, AggSimAtLeast %v", oi, ni, deltas, delta, sum, want)
		}
	}
}

// TestResumeAtLeastMatchesAggSimAtLeast is the kernel differential of
// resumable scoring over every record pair and descending, ascending,
// repeated and mixed threshold sequences. Over the descending sequences it
// also requires the pruned-comparison counts of both engines to agree: a
// skip on the stored bound counts exactly where a fresh score would prune.
// Resuming compares each (pair, matcher) at most once, so the resumed
// engine makes fewer profile comparisons than the fresh one.
func TestResumeAtLeastMatchesAggSimAtLeast(t *testing.T) {
	sequences := map[string][]float64{
		"descending": {0.9, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5, 0.3},
		"schedule":   {0.7, 0.65, 0.6, 0.55, 0.5},
		"repeated":   {0.7, 0.7, 0.6, 0.6, 0.6},
		"ascending":  {0.3, 0.5, 0.7, 0.9, 1},
		"mixed":      {0.6, 0.9, 0.4, 0.75, 0.75, 0.2, 1.1},
	}
	for name, deltas := range sequences {
		t.Run(name, func(t *testing.T) {
			resumed, fresh, compares := resumeEngines(40, 37)
			for oi := range resumed.Old.Recs {
				for ni := range resumed.New.Recs {
					checkResume(t, resumed, fresh, oi, ni, deltas)
				}
			}
			pr, pf := resumed.Pruned(), fresh.Pruned()
			if pf == 0 {
				t.Fatal("no comparison was pruned; the sequence does not exercise resuming")
			}
			if name != "ascending" && name != "mixed" && pr != pf {
				t.Errorf("pruned comparisons: resumed %d, fresh %d", pr, pf)
			}
			if limit := len(resumed.Old.Recs) * len(resumed.New.Recs) * len(resumed.scored); compares[0] > limit {
				t.Errorf("resumed scoring made %d comparisons, more than one per (pair, matcher) (%d)", compares[0], limit)
			}
			if compares[0] >= compares[1] {
				t.Errorf("resumed scoring made %d comparisons, fresh scoring %d; want fewer", compares[0], compares[1])
			}
		})
	}
}

// TestResumeAtLeastBoundary re-scores every pruned pair at the threshold
// whose guard δ − pruneEps equals the stored upper bound exactly. A fresh
// score does not prune there (the bound is not below the guard), so the
// resumed score must continue too, reaching the same partial sum.
func TestResumeAtLeastBoundary(t *testing.T) {
	resumed, fresh, _ := resumeEngines(40, 37)
	boundaries := 0
	for oi := range resumed.Old.Recs {
		for ni := range resumed.New.Recs {
			sum, next := 0.0, uint8(0)
			if resumed.ResumeAtLeast(oi, ni, 0.95, &sum, &next) || int(next) == len(resumed.scored) {
				continue
			}
			bound := sum + resumed.suffixW[resumed.scored[next-1]]
			delta, ok := boundaryDelta(bound)
			if !ok || delta > 0.95 {
				continue
			}
			boundaries++
			checkResume(t, resumed, fresh, oi, ni, []float64{0.95, delta})
		}
	}
	if boundaries == 0 {
		t.Fatal("no pair has an exact boundary threshold; the check is vacuous")
	}
}

// boundaryDelta returns a threshold δ with δ − pruneEps == bound exactly,
// if one is within a few ulps of bound + pruneEps.
func boundaryDelta(bound float64) (float64, bool) {
	delta := bound + pruneEps
	for i := 0; i < 8; i++ {
		switch d := delta - pruneEps; {
		case d == bound:
			return delta, true
		case d < bound:
			delta = math.Nextafter(delta, math.Inf(1))
		default:
			delta = math.Nextafter(delta, math.Inf(-1))
		}
	}
	return 0, false
}

// FuzzResumeAtLeast drives checkResume with fuzzer-chosen record pairs and
// threshold sequences (each byte b is the threshold b/200, so sequences
// reach above 1).
func FuzzResumeAtLeast(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{140, 130, 120, 110, 100})
	f.Add(uint8(3), uint8(7), []byte{60, 100, 140, 180, 200})
	f.Add(uint8(5), uint8(5), []byte{140, 140, 140})
	f.Add(uint8(11), uint8(2), []byte{120, 190, 80, 150, 150, 40, 220})
	f.Add(uint8(39), uint8(36), []byte{255, 0})
	resumed, fresh, _ := resumeEngines(40, 37)
	f.Fuzz(func(t *testing.T, oi, ni uint8, seq []byte) {
		deltas := make([]float64, len(seq))
		for i, b := range seq {
			deltas[i] = float64(b) / 200
		}
		checkResume(t, resumed, fresh, int(oi)%len(resumed.Old.Recs), int(ni)%len(resumed.New.Recs), deltas)
	})
}
