package compare_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/linkage"
	"censuslink/internal/strsim"
	"censuslink/internal/synth"
)

// fallbackSim is ω2 with a zero-weight matcher in the middle and at the
// end, and surname scored through the string fallback (no profile
// comparator, so strsim.FuncProfiled wraps its Sim).
func fallbackSim() linkage.SimFunc {
	f := linkage.OmegaTwo(0.7)
	f.Name = "omega2-fallback"
	f.Matchers = slices.Clone(f.Matchers)
	f.Matchers[2].Prof = nil
	f.Matchers = slices.Insert(f.Matchers, 1, linkage.AttributeMatcher{
		Attr: census.AttrBirthplace, Sim: strsim.Exact, Prof: strsim.ExactProfiled, Name: "exact"})
	f.Matchers = append(f.Matchers, linkage.AttributeMatcher{
		Attr: census.AttrSurname, Sim: strsim.Jaro, Prof: strsim.JaroProfiled, Name: "jaro"})
	return f
}

// TestSimCacheDifferential scores every candidate-table entry of a
// synthetic pair over a δ schedule, each entry keeping one resumable state
// per scoring: straight through the comparators, through a 16-slot cache
// whose lookups collide and evict, and through a production-size cache.
// For every shipped similarity function, and one with a string-fallback
// matcher and zero-weight matchers, each call must give the same verdict,
// the same sum bit for bit and the same next index on all three.
func TestSimCacheDifferential(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 7), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]*census.Record
	if _, err := linkage.Candidates(context.Background(), old.Records(), old.Year, new.Records(), new.Year,
		linkage.DefaultConfig().Strategies, func(o, n *census.Record) { pairs = append(pairs, [2]*census.Record{o, n}) }); err != nil {
		t.Fatal(err)
	}
	deltas := []float64{0.7, 0.65, 0.6, 0.55, 0.5, 0.8}
	for _, f := range []linkage.SimFunc{linkage.OmegaOne(0.7), linkage.OmegaTwo(0.7), linkage.NameOnly(0.7),
		linkage.OmegaTwoBirthplace(0.7), fallbackSim()} {
		t.Run(f.Name, func(t *testing.T) {
			e := f.Compile(old.Records(), new.Records())
			caches := []*compare.SimCache{nil, compare.NewSimCacheBits(e, 4), e.NewSimCache()}
			sums := make([][]float64, len(caches))
			nexts := make([][]uint8, len(caches))
			for i := range caches {
				sums[i], nexts[i] = make([]float64, len(pairs)), make([]uint8, len(pairs))
			}
			for _, delta := range deltas {
				for p, rp := range pairs {
					oi, _ := e.Old.Pos(rp[0].ID)
					ni, _ := e.New.Pos(rp[1].ID)
					var want compare.Verdict
					for i, c := range caches {
						v := e.ResumeAtLeast(oi, ni, delta, &sums[i][p], &nexts[i][p], c)
						if i == 0 {
							want = v
							continue
						}
						if v != want || math.Float64bits(sums[i][p]) != math.Float64bits(sums[0][p]) || nexts[i][p] != nexts[0][p] {
							t.Fatalf("%s-%s at %v, cache %d: (%v, %v, %d), uncached (%v, %v, %d)", rp[0].ID, rp[1].ID, delta, i,
								v, sums[i][p], nexts[i][p], want, sums[0][p], nexts[0][p])
						}
					}
				}
			}
			if tiny := caches[1]; tiny.Hits == 0 || tiny.Misses <= 2*16 {
				t.Errorf("16-slot cache: %d hits, %d misses; want hits and evictions", tiny.Hits, tiny.Misses)
			}
			if full := caches[2]; full.Hits <= full.Misses {
				t.Errorf("production cache: %d hits, %d misses; census values repeat, so want mostly hits", full.Hits, full.Misses)
			}
		})
	}
}
