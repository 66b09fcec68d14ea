package experiments

import (
	"fmt"

	"censuslink/internal/baseline/collective"
	"censuslink/internal/baseline/temporal"
	"censuslink/internal/chart"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/report"
)

// AblationData holds quality per algorithm variant.
type AblationData struct {
	Variants []string
	Results  map[string]Quality
}

// Ablation evaluates the design choices called out in DESIGN.md by
// switching each one off in isolation on the 1871/1881 pair:
//
//   - default          — the paper's full configuration
//   - one-shot         — no threshold relaxation (Table 5's baseline)
//   - direct-vertices  — subgraph vertices restricted to directly compared
//     pairs instead of the paper's cluster labels
//   - no-remainder     — without the final Sim_func_rem pass
//   - no-structure     — group selection by record similarity alone
//     (α=1, β=0), ignoring edges and uniqueness
func (e *Env) Ablation() (*report.Table, *AblationData, error) {
	old, new := e.evalPair()
	variants := []struct {
		name   string
		mutate func(*linkage.Config)
	}{
		{"default", func(*linkage.Config) {}},
		{"one-shot", func(c *linkage.Config) { c.DeltaHigh, c.DeltaLow, c.DeltaStep = 0.5, 0.5, 0 }},
		{"direct-vertices", func(c *linkage.Config) { c.DirectVerticesOnly = true }},
		{"no-remainder", func(c *linkage.Config) { c.Remainder = c.Remainder.WithDelta(1.0) }},
		{"no-structure", func(c *linkage.Config) { c.Alpha, c.Beta = 1.0, 0.0 }},
	}
	data := &AblationData{Results: make(map[string]Quality)}
	t := &report.Table{
		Title:  "Ablation: design choices of the iterative subgraph linkage",
		Header: []string{"variant", "rec P", "rec R", "rec F", "grp P", "grp R", "grp F"},
	}
	for _, v := range variants {
		cfg := e.baseConfig()
		v.mutate(&cfg)
		res, err := linkage.LinkContext(e.linkCtx(), old, new, cfg)
		if err != nil {
			return nil, nil, err
		}
		q := e.quality(res, old, new)
		data.Variants = append(data.Variants, v.name)
		data.Results[v.name] = q
		t.AddRow(v.name,
			report.Pct(q.Record.Precision), report.Pct(q.Record.Recall), report.Pct(q.Record.F1),
			report.Pct(q.Group.Precision), report.Pct(q.Group.Recall), report.Pct(q.Group.F1))
	}
	return t, data, nil
}

// ReductionRatio reports the blocking effectiveness on the evaluation pair:
// candidate pairs versus the full cross product, per strategy set.
func (e *Env) ReductionRatio() (*report.Table, error) {
	old, new := e.evalPair()
	total := float64(old.NumRecords()) * float64(new.NumRecords())
	t := &report.Table{
		Title:  "Blocking: candidate pairs vs cross product",
		Header: []string{"strategy", "pairs", "reduction"},
	}
	pairs, err := linkage.Candidates(e.linkCtx(), old.Records(), old.Year, new.Records(), new.Year,
		e.baseConfig().Strategies, nil)
	if err != nil {
		return nil, err
	}
	t.AddRow("default multi-pass", report.I(pairs),
		report.Pct(1-float64(pairs)/total)+"%")
	t.AddRow("cross product", report.I(int(total)), "0.0%")
	return t, nil
}

// BaselinesData compares the record mappings of all implemented record
// linkage methods.
type BaselinesData struct {
	CL, Temporal, Ours Quality
}

// Baselines extends Table 6 with the temporal-decay record linkage family
// the paper's related work discusses (Li et al., VLDB 2011): per-attribute
// change probabilities forgive disagreement on volatile attributes, but the
// method still reasons about records in isolation.
func (e *Env) Baselines() (*report.Table, *BaselinesData, error) {
	old, new := e.evalPair()
	res, err := e.defaultResult(1871)
	if err != nil {
		return nil, nil, err
	}
	cl, err := collective.Link(e.linkCtx(), old, new, collective.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	td, err := temporal.Link(e.linkCtx(), old, new, temporal.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	data := &BaselinesData{
		CL:       e.quality(&linkage.Result{RecordLinks: cl}, old, new),
		Temporal: e.quality(&linkage.Result{RecordLinks: td}, old, new),
		Ours:     e.quality(res, old, new),
	}
	t := &report.Table{
		Title:  "Record-mapping baselines: CL, temporal decay, iterative subgraph",
		Header: []string{"metric", "CL", "temporal-decay", "iter-sub"},
	}
	t.AddRow("Precision (%)", report.Pct(data.CL.Record.Precision),
		report.Pct(data.Temporal.Record.Precision), report.Pct(data.Ours.Record.Precision))
	t.AddRow("Recall (%)", report.Pct(data.CL.Record.Recall),
		report.Pct(data.Temporal.Record.Recall), report.Pct(data.Ours.Record.Recall))
	t.AddRow("F-measure (%)", report.Pct(data.CL.Record.F1),
		report.Pct(data.Temporal.Record.F1), report.Pct(data.Ours.Record.F1))
	return t, data, nil
}

// BirthplaceData compares the paper's ω2 against the birthplace-extended
// similarity function.
type BirthplaceData struct {
	Omega2, WithBirthplace Quality
}

// BirthplaceExtension evaluates the extension of Table 2 with the stable
// birthplace attribute (recorded by UK censuses from 1851 but unused in the
// paper's configuration).
func (e *Env) BirthplaceExtension() (*report.Table, *BirthplaceData, error) {
	old, new := e.evalPair()
	res, err := e.defaultResult(1871)
	if err != nil {
		return nil, nil, err
	}
	cfg := e.baseConfig()
	cfg.Sim = linkage.OmegaTwoBirthplace(cfg.DeltaHigh)
	cfg.Remainder = linkage.OmegaTwoBirthplace(cfg.Remainder.Delta)
	bp, err := linkage.LinkContext(e.linkCtx(), old, new, cfg)
	if err != nil {
		return nil, nil, err
	}
	data := &BirthplaceData{
		Omega2:         e.quality(res, old, new),
		WithBirthplace: e.quality(bp, old, new),
	}
	t := &report.Table{
		Title:  "Extension: adding the stable birthplace attribute to omega2",
		Header: []string{"mapping", "metric", "omega2", "omega2+birthplace"},
	}
	for _, m := range []struct {
		name string
		get  func(Quality) [3]float64
	}{
		{"group", func(q Quality) [3]float64 {
			return [3]float64{q.Group.Precision, q.Group.Recall, q.Group.F1}
		}},
		{"record", func(q Quality) [3]float64 {
			return [3]float64{q.Record.Precision, q.Record.Recall, q.Record.F1}
		}},
	} {
		labels := []string{"Precision (%)", "Recall (%)", "F-measure (%)"}
		a, b := m.get(data.Omega2), m.get(data.WithBirthplace)
		for i, label := range labels {
			t.AddRow(m.name, label, report.Pct(a[i]), report.Pct(b[i]))
		}
	}
	return t, data, nil
}

// PairQuality is the linkage quality of one successive census pair.
type PairQuality struct {
	OldYear, NewYear int
	Quality          Quality
}

// QualityByPair links every successive pair with the default configuration
// and reports per-decade quality — the view behind the late-period
// remove_G inflation discussed in EXPERIMENTS.md (linkage recall drifts as
// the district grows and name ambiguity rises).
func (e *Env) QualityByPair() (*report.Table, []PairQuality, error) {
	t := &report.Table{
		Title:  "Linkage quality per census pair (default configuration)",
		Header: []string{"pair", "rec P", "rec R", "rec F", "grp P", "grp R", "grp F"},
	}
	var out []PairQuality
	for _, pair := range e.Series.Pairs() {
		res, err := e.defaultResult(pair[0].Year)
		if err != nil {
			return nil, nil, err
		}
		q := e.quality(res, pair[0], pair[1])
		out = append(out, PairQuality{OldYear: pair[0].Year, NewYear: pair[1].Year, Quality: q})
		t.AddRow(
			report.I(pair[0].Year)+"-"+report.I(pair[1].Year),
			report.Pct(q.Record.Precision), report.Pct(q.Record.Recall), report.Pct(q.Record.F1),
			report.Pct(q.Group.Precision), report.Pct(q.Group.Recall), report.Pct(q.Group.F1))
	}
	return t, out, nil
}

// Figure6Chart renders the Figure 6 pattern counts as a grouped SVG bar
// chart, reproducing the paper's figure as a figure.
func (e *Env) Figure6Chart() (*chart.BarChart, error) {
	_, data, err := e.Figure6()
	if err != nil {
		return nil, err
	}
	c := &chart.BarChart{
		Title:  "Group evolution patterns per census pair",
		Series: []string{"preserve_G", "add_G", "remove_G", "move", "split", "merge"},
	}
	for _, p := range data {
		c.Groups = append(c.Groups, chart.BarGroup{
			Label: fmt.Sprintf("%d-%d", p.OldYear, p.NewYear),
			Values: []float64{
				float64(p.Counts[evolution.PatternPreserve]),
				float64(p.Counts[evolution.PatternAdd]),
				float64(p.Counts[evolution.PatternRemove]),
				float64(p.Counts[evolution.PatternMove]),
				float64(p.Counts[evolution.PatternSplit]),
				float64(p.Counts[evolution.PatternMerge]),
			},
		})
	}
	return c, nil
}
