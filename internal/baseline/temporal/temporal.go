// Package temporal implements a decay-based temporal record linkage
// baseline in the spirit of Li, Dong, Maurino and Srivastava ("Linking
// temporal records", VLDB 2011), the related-work family the paper
// contrasts itself against: attribute disagreement is forgiven in
// proportion to how likely that attribute is to have changed over the
// elapsed time, and agreement on a volatile attribute counts for less.
//
// Unlike the paper's approach it considers records in isolation — no
// household structure — which is exactly the gap the group-linkage method
// fills; the baseline exists to quantify that gap.
package temporal

import (
	"context"
	"math"
	"sort"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/strsim"
)

// Decay describes one attribute's change behaviour over time: HalfLife is
// the number of years after which the probability that the value is still
// the same has dropped to 0.5. Stable attributes have a very large
// half-life.
type Decay struct {
	Attr     census.Attribute
	Sim      strsim.Func
	Weight   float64
	HalfLife float64 // years
}

// Config parameterises the baseline.
type Config struct {
	Decays []Decay
	// Threshold is the minimum adjusted score for a link.
	Threshold float64
	// AgeTolerance bounds the deviation of the age gap from the census
	// interval.
	AgeTolerance int
	// Strategies is the blocking configuration.
	Strategies []block.Strategy
}

// DefaultConfig mirrors the census setting: names and sex are stable,
// surname changes for women at marriage (moderate half-life), address and
// occupation are volatile.
func DefaultConfig() Config {
	return Config{
		Decays: []Decay{
			{Attr: census.AttrFirstName, Sim: strsim.Bigram, Weight: 0.35, HalfLife: 1000},
			{Attr: census.AttrSex, Sim: strsim.Exact, Weight: 0.15, HalfLife: 1000},
			{Attr: census.AttrSurname, Sim: strsim.Bigram, Weight: 0.25, HalfLife: 60},
			{Attr: census.AttrAddress, Sim: strsim.Bigram, Weight: 0.15, HalfLife: 12},
			{Attr: census.AttrOccupation, Sim: strsim.Bigram, Weight: 0.10, HalfLife: 15},
		},
		Threshold:    0.62,
		AgeTolerance: 3,
		Strategies:   block.DefaultStrategies(),
	}
}

// persistProb returns the probability that an attribute value persisted
// over gap years, given its half-life.
func persistProb(halfLife, gap float64) float64 {
	if halfLife <= 0 {
		return 0
	}
	return math.Pow(0.5, gap/halfLife)
}

// Score computes the decay-adjusted similarity of a record pair over a
// time gap: for each attribute, the evidence is
//
//	p·sim + (1-p)·baseline
//
// where p is the persistence probability. A volatile attribute thus pulls
// the score towards a neutral baseline instead of punishing disagreement,
// and contributes less on agreement.
func Score(cfg Config, o, n *census.Record, gapYears float64) float64 {
	const neutral = 0.5
	total := 0.0
	for _, d := range cfg.Decays {
		s := d.Sim(o.Value(d.Attr), n.Value(d.Attr))
		p := persistProb(d.HalfLife, gapYears)
		total += d.Weight * (p*s + (1-p)*neutral)
	}
	return total
}

// Link runs the temporal baseline: blocked candidates are scored with the
// decay model, filtered by the age window, and matched greedily into a 1:1
// record mapping. Candidate generation observes ctx (see
// linkage.Candidates).
func Link(ctx context.Context, oldDS, newDS *census.Dataset, cfg Config) ([]linkage.RecordLink, error) {
	gap := newDS.Year - oldDS.Year
	age := linkage.MatchConfig{AgeTolerance: cfg.AgeTolerance, YearGap: gap}

	var cands []linkage.RecordLink
	_, err := linkage.Candidates(ctx, oldDS.Records(), oldDS.Year, newDS.Records(), newDS.Year,
		cfg.Strategies, func(o, n *census.Record) {
			if !age.AgeConsistent(o, n) {
				return
			}
			if s := Score(cfg, o, n, float64(gap)); s >= cfg.Threshold {
				cands = append(cands, linkage.RecordLink{Old: o.ID, New: n.ID, Sim: s})
			}
		})
	if err != nil {
		return nil, err
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Sim != cands[j].Sim {
			return cands[i].Sim > cands[j].Sim
		}
		if cands[i].Old != cands[j].Old {
			return cands[i].Old < cands[j].Old
		}
		return cands[i].New < cands[j].New
	})
	usedOld := make(map[string]bool)
	usedNew := make(map[string]bool)
	var out []linkage.RecordLink
	for _, c := range cands {
		if usedOld[c.Old] || usedNew[c.New] {
			continue
		}
		usedOld[c.Old] = true
		usedNew[c.New] = true
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Old != out[j].Old {
			return out[i].Old < out[j].Old
		}
		return out[i].New < out[j].New
	})
	return out, nil
}
