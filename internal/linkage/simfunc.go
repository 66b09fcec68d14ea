// Package linkage implements the iterative temporal record and group
// linkage algorithm of Christen et al. (EDBT 2017): attribute-level
// pre-matching and clustering (Section 3.2), household subgraph matching
// (Section 3.3), greedy selection of group links (Section 3.4, Algorithm 2)
// and the iterative driver with threshold relaxation (Algorithm 1).
package linkage

import (
	"fmt"

	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/strsim"
)

// AttributeMatcher compares one record attribute with a dedicated similarity
// function and weight. Prof, when set, is the precompilable profile form of
// Sim used by the compiled comparison engine (internal/compare); it must
// score bit-for-bit identically to Sim. When Prof is nil the engine falls
// back to scoring through Sim itself.
type AttributeMatcher struct {
	Attr   census.Attribute
	Sim    strsim.Func
	Prof   *strsim.Profiled
	Weight float64
	// Name identifies the similarity function for serialization and for the
	// store's config fingerprint (see Config.Fingerprint). The built-in
	// constructors and ConfigSpec.Build always set it; hand-built matchers
	// with an empty Name fingerprint as "?", so callers sharing a snapshot
	// store across custom matcher functions should name them distinctly.
	Name string
}

// SimFunc is the paper's Sim_func: a set of weighted attribute matchers
// (the weighting vector ω) together with a minimum similarity threshold δ.
type SimFunc struct {
	Name     string
	Matchers []AttributeMatcher
	// Delta is the threshold δ: record pairs with aggregated similarity
	// below Delta are not considered matches.
	Delta float64
}

// Validate checks that the weights are non-negative and sum to 1 (within a
// small tolerance) so that aggregated similarities stay in [0, 1], that δ
// lies in [0, 1], and that the comparison engine can score the weighted
// matchers. Every range test is written so that NaN fails it, and an
// infinite weight fails the sum test.
func (f SimFunc) Validate() error {
	if len(f.Matchers) == 0 {
		return fmt.Errorf("linkage: SimFunc %q has no matchers", f.Name)
	}
	sum := 0.0
	weighted := 0
	for _, m := range f.Matchers {
		if !(m.Weight >= 0) {
			return fmt.Errorf("linkage: SimFunc %q: weight %v for %v is not non-negative", f.Name, m.Weight, m.Attr)
		}
		if m.Sim == nil {
			return fmt.Errorf("linkage: SimFunc %q: nil similarity for %v", f.Name, m.Attr)
		}
		sum += m.Weight
		if m.Weight != 0 {
			weighted++
		}
	}
	if weighted > compare.MaxWeightedMatchers {
		return fmt.Errorf("linkage: SimFunc %q: %d weighted matchers, at most %d", f.Name, weighted, compare.MaxWeightedMatchers)
	}
	if !(sum >= 0.999 && sum <= 1.001) {
		return fmt.Errorf("linkage: SimFunc %q: weights sum to %.4f, want 1", f.Name, sum)
	}
	if !(f.Delta >= 0 && f.Delta <= 1) {
		return fmt.Errorf("linkage: SimFunc %q: delta %v outside [0,1]", f.Name, f.Delta)
	}
	return nil
}

// SimVector returns the per-attribute similarity vector sim(r_i, r_{i+1})
// in matcher order. Missing values score 0.
func (f SimFunc) SimVector(a, b *census.Record) []float64 {
	out := make([]float64, len(f.Matchers))
	for i, m := range f.Matchers {
		out[i] = m.Sim(a.Value(m.Attr), b.Value(m.Attr))
	}
	return out
}

// AggSim returns the weighted aggregated similarity agg_sim(r_i, r_{i+1})
// = ω · sim(r_i, r_{i+1}) (Eq. 3 of the paper).
func (f SimFunc) AggSim(a, b *census.Record) float64 {
	s := 0.0
	for _, m := range f.Matchers {
		if m.Weight == 0 {
			continue
		}
		s += m.Weight * m.Sim(a.Value(m.Attr), b.Value(m.Attr))
	}
	return s
}

// Matches reports whether the aggregated similarity reaches the threshold δ.
func (f SimFunc) Matches(a, b *census.Record) bool {
	return f.AggSim(a, b) >= f.Delta
}

// WithDelta returns a copy of the SimFunc with the threshold replaced.
func (f SimFunc) WithDelta(delta float64) SimFunc {
	f.Delta = delta
	return f
}

// OmegaOne returns the paper's ω1 configuration (Table 2): equal weight 0.2
// on first name, sex, surname, address and occupation, with q-gram matching
// on the string attributes and exact matching on sex.
func OmegaOne(delta float64) SimFunc {
	return SimFunc{
		Name:  "omega1",
		Delta: delta,
		Matchers: []AttributeMatcher{
			{Attr: census.AttrFirstName, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.2},
			{Attr: census.AttrSex, Sim: strsim.Exact, Prof: strsim.ExactProfiled, Name: "exact", Weight: 0.2},
			{Attr: census.AttrSurname, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.2},
			{Attr: census.AttrAddress, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.2},
			{Attr: census.AttrOccupation, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.2},
		},
	}
}

// OmegaTwo returns the paper's ω2 configuration (Table 2): first name 0.4,
// sex 0.2, surname 0.2, and the less stable address and occupation at 0.1.
func OmegaTwo(delta float64) SimFunc {
	return SimFunc{
		Name:  "omega2",
		Delta: delta,
		Matchers: []AttributeMatcher{
			{Attr: census.AttrFirstName, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.4},
			{Attr: census.AttrSex, Sim: strsim.Exact, Prof: strsim.ExactProfiled, Name: "exact", Weight: 0.2},
			{Attr: census.AttrSurname, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.2},
			{Attr: census.AttrAddress, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.1},
			{Attr: census.AttrOccupation, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.1},
		},
	}
}

// NameOnly returns a similarity function over first name and surname only,
// used by the running-example tests and as a simple Sim_func_rem choice.
func NameOnly(delta float64) SimFunc {
	return SimFunc{
		Name:  "name-only",
		Delta: delta,
		Matchers: []AttributeMatcher{
			{Attr: census.AttrFirstName, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.5},
			{Attr: census.AttrSurname, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.5},
		},
	}
}

// OmegaTwoBirthplace extends ω2 with the stable birthplace attribute, an
// extension beyond the paper's Table 2 (the 1851+ UK censuses recorded the
// place of birth, which never changes for a person and therefore
// disambiguates same-name candidates strongly).
func OmegaTwoBirthplace(delta float64) SimFunc {
	return SimFunc{
		Name:  "omega2+birthplace",
		Delta: delta,
		Matchers: []AttributeMatcher{
			{Attr: census.AttrFirstName, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.35},
			{Attr: census.AttrSex, Sim: strsim.Exact, Prof: strsim.ExactProfiled, Name: "exact", Weight: 0.15},
			{Attr: census.AttrSurname, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.2},
			{Attr: census.AttrBirthplace, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.15},
			{Attr: census.AttrAddress, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.075},
			{Attr: census.AttrOccupation, Sim: strsim.Bigram, Prof: strsim.BigramProfiled, Name: "qgram2", Weight: 0.075},
		},
	}
}
