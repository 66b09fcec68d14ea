package experiments

import (
	"sort"

	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/linkage"
	"censuslink/internal/report"
)

// BlockingSchemeStats measures one blocking scheme on the evaluation pair.
type BlockingSchemeStats struct {
	Name string
	// Pairs is the number of distinct candidate pairs the scheme generates.
	Pairs int
	// Coverage is the fraction of true record matches that survive blocking
	// (the ceiling on linkage recall under this scheme).
	Coverage float64
	// Reduction is 1 - Pairs/|R_i × R_{i+1}|, the paper's reduction ratio.
	Reduction float64
}

// BlockingComparisonData holds the recall-vs-candidate-count trade-off of
// every registered blocking scheme.
type BlockingComparisonData struct {
	CrossProduct float64
	TruePairs    int
	Schemes      []BlockingSchemeStats
}

// Scheme returns the stats of the named scheme, or a zero value.
func (d *BlockingComparisonData) Scheme(name string) BlockingSchemeStats {
	for _, s := range d.Schemes {
		if s.Name == name {
			return s
		}
	}
	return BlockingSchemeStats{}
}

// BlockingComparison measures every registered blocking scheme on the
// 1871/1881 evaluation pair: candidate pairs generated, reduction ratio
// against the cross product, and true-match coverage against the synthetic
// ground truth. This is the measured trade-off behind the LSH scheme: the
// banded MinHash passes must cut candidate pairs by several times while
// keeping ≥ 0.98 of the exact passes' true-match coverage (asserted by the
// experiments tests and tracked by the prematch_lsh_* bench-trajectory rows).
func (e *Env) BlockingComparison() (*report.Table, *BlockingComparisonData, error) {
	old, new := e.evalPair()
	truth := evaluate.TrueRecordMapping(old, new)
	data := &BlockingComparisonData{
		CrossProduct: float64(old.NumRecords()) * float64(new.NumRecords()),
		TruePairs:    len(truth),
	}
	names := linkage.BlockingNames()
	sort.Strings(names)
	for _, name := range names {
		strategies, err := linkage.ParseBlocking(name)
		if err != nil {
			return nil, nil, err
		}
		covered := 0
		pairs, err := linkage.Candidates(e.linkCtx(), old.Records(), old.Year, new.Records(), new.Year, strategies,
			func(o, n *census.Record) {
				if truth[linkage.Pair{Old: o.ID, New: n.ID}] {
					covered++
				}
			})
		if err != nil {
			return nil, nil, err
		}
		coverage := 0.0
		if len(truth) > 0 {
			coverage = float64(covered) / float64(len(truth))
		}
		data.Schemes = append(data.Schemes, BlockingSchemeStats{
			Name:      name,
			Pairs:     pairs,
			Coverage:  coverage,
			Reduction: 1 - float64(pairs)/data.CrossProduct,
		})
	}

	t := &report.Table{
		Title:  "Blocking schemes: candidate pairs vs true-match coverage",
		Header: []string{"scheme", "pairs", "reduction", "coverage"},
	}
	for _, s := range data.Schemes {
		t.AddRow(s.Name, report.I(s.Pairs),
			report.Pct(s.Reduction)+"%", report.Pct(s.Coverage)+"%")
	}
	t.AddRow("cross product", report.I(int(data.CrossProduct)), "0.0%", "100.0%")
	t.Note = "coverage = true record matches surviving blocking (ceiling on linkage recall)"
	return t, data, nil
}
