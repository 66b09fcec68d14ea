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
// work can be compared. compares[0] and compares[1] count the profile
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
// risen, a rejected pair's partial sum and verdict must match too: a skip
// on the stored bound is Pruned exactly where a fresh score prunes. It
// returns the number of Pruned verdicts of the resumed and the fresh
// scores.
func checkResume(t *testing.T, resumed, fresh *Engine, oi, ni int, deltas []float64) (pr, pf int) {
	t.Helper()
	sum, next := 0.0, uint8(0)
	descending := true
	for i, delta := range deltas {
		if i > 0 && delta > deltas[i-1] {
			descending = false
		}
		v := resumed.ResumeAtLeast(oi, ni, delta, &sum, &next, nil)
		want, wantV := fresh.AggSimAtLeast(oi, ni, delta)
		if v == Pruned {
			pr++
		}
		if wantV == Pruned {
			pf++
		}
		ok, wantOK := v == Accepted, wantV == Accepted
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
		if descending && v != wantV {
			t.Fatalf("pair (%d, %d) deltas %v: at %v ResumeAtLeast verdict %v, AggSimAtLeast %v", oi, ni, deltas, delta, v, wantV)
		}
	}
	return pr, pf
}

// TestResumeAtLeastMatchesAggSimAtLeast is the kernel differential of
// resumable scoring over every record pair and descending, ascending,
// repeated and mixed threshold sequences. Over the non-increasing sequences
// it also requires the Pruned verdicts of both scores to agree in number:
// a skip on the stored bound counts exactly where a fresh score would prune.
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
			pr, pf := 0, 0
			for oi := range resumed.Old.Recs {
				for ni := range resumed.New.Recs {
					r, f := checkResume(t, resumed, fresh, oi, ni, deltas)
					pr, pf = pr+r, pf+f
				}
			}
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
			if resumed.ResumeAtLeast(oi, ni, 0.95, &sum, &next, nil) == Accepted || int(next) == len(resumed.scored) {
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

// TestResumeAtLeastVerdicts pins the verdict to how far scoring got: a
// pair with every weighted matcher in is Accepted or Below, also when its
// sum misses δ by more than pruneEps, and Pruned means a weighted matcher
// was still to come. Both hold for a fresh score and for a resumed one: a
// fully scored pair asked again at a δ above its sum is Below from its
// stored sum, and a pair cut short asked again at a higher δ stays Pruned. Neither
// call of a resumed pair changes its state.
func TestResumeAtLeastVerdicts(t *testing.T) {
	_, e, _ := resumeEngines(40, 37)
	n := uint8(len(e.scored))
	var below, pruned int
	for oi := range e.Old.Recs {
		for ni := range e.New.Recs {
			for _, delta := range []float64{0.3, 0.5, 0.7, 0.9} {
				sum, next := 0.0, uint8(0)
				v := e.ResumeAtLeast(oi, ni, delta, &sum, &next, nil)
				if (v == Pruned) != (next < n) {
					t.Fatalf("pair (%d, %d) at %v: verdict %v after %d of %d matchers", oi, ni, delta, v, next, n)
				}
				switch {
				case v == Below && sum < delta-pruneEps:
					below++
				case v == Pruned:
					pruned++
				}
				wantV := Pruned
				if next == n {
					wantV = Below
				}
				s, k, higher := sum, next, max(delta, sum)+0.25
				if got := e.ResumeAtLeast(oi, ni, higher, &s, &k, nil); got != wantV || s != sum || k != next {
					t.Fatalf("pair (%d, %d) resumed at %v: verdict %v with state (%v, %d), want %v with (%v, %d)",
						oi, ni, higher, got, s, k, wantV, sum, next)
				}
			}
		}
	}
	if below == 0 || pruned == 0 {
		t.Fatalf("%d fully scored pairs below δ − pruneEps, %d pruned; both cases must occur", below, pruned)
	}
}

// checkCached scores pair (oi, ni) at every delta in turn twice, each with
// its own resumable state: straight through the comparators and through
// the cache c of e. Each call must give the same verdict, the same sum bit
// for bit and the same next index.
func checkCached(t *testing.T, e *Engine, c *SimCache, oi, ni int, deltas []float64) {
	t.Helper()
	sum, next := 0.0, uint8(0)
	csum, cnext := 0.0, uint8(0)
	for _, delta := range deltas {
		v := e.ResumeAtLeast(oi, ni, delta, &sum, &next, nil)
		cv := e.ResumeAtLeast(oi, ni, delta, &csum, &cnext, c)
		if cv != v || math.Float64bits(csum) != math.Float64bits(sum) || cnext != next {
			t.Fatalf("pair (%d, %d) deltas %v: at %v cached (%v, %v, %d), uncached (%v, %v, %d)",
				oi, ni, deltas, delta, cv, csum, cnext, v, sum, next)
		}
	}
}

// FuzzResumeAtLeast drives checkResume with fuzzer-chosen record pairs and
// threshold sequences (each byte b is the threshold b/200, so sequences
// reach above 1), and checkCached through one 8-slot cache kept across
// inputs, so its lookups collide and evict.
func FuzzResumeAtLeast(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{140, 130, 120, 110, 100})
	f.Add(uint8(3), uint8(7), []byte{60, 100, 140, 180, 200})
	f.Add(uint8(5), uint8(5), []byte{140, 140, 140})
	f.Add(uint8(11), uint8(2), []byte{120, 190, 80, 150, 150, 40, 220})
	f.Add(uint8(39), uint8(36), []byte{255, 0})
	resumed, fresh, _ := resumeEngines(40, 37)
	c := fresh.newSimCache(3)
	f.Fuzz(func(t *testing.T, oi, ni uint8, seq []byte) {
		deltas := make([]float64, len(seq))
		for i, b := range seq {
			deltas[i] = float64(b) / 200
		}
		o, n := int(oi)%len(resumed.Old.Recs), int(ni)%len(resumed.New.Recs)
		checkResume(t, resumed, fresh, o, n, deltas)
		checkCached(t, fresh, c, o, n, deltas)
	})
}
