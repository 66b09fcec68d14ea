// Package experiments regenerates every table and figure of the evaluation
// section of Christen et al. (EDBT 2017) on synthetic Rawtenstall-profile
// census data. It is shared by cmd/benchall and the repository's top-level
// benchmarks.
//
// Absolute numbers differ from the paper (the data is simulated and the
// ground truth is complete rather than a curated reference subset); the
// reproduced object is each table's shape: which configuration wins, by
// roughly what margin, and where the knees are.
package experiments

import (
	"context"
	"fmt"

	"censuslink/internal/baseline/collective"
	"censuslink/internal/baseline/graphsim"
	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/report"
	"censuslink/internal/synth"
)

// Options configures an experiment environment.
type Options struct {
	// Scale multiplies the paper-sized population (1.0 = Table 1
	// magnitudes, ~17k-31k records per census).
	Scale float64
	// Seed drives the synthetic data generation.
	Seed int64
	// Workers bounds linkage parallelism (<= 0: GOMAXPROCS).
	Workers int
	// FullTruth evaluates against the complete ground truth instead of the
	// paper's protocol. By default evaluation is restricted to matched
	// households, mirroring the paper's manually linked reference mapping
	// (1,250 matched households): links attached to households without any
	// true match are not counted.
	FullTruth bool
	// Obs, when non-nil, collects stage timings and per-iteration counters
	// across every linkage run the environment performs (the iterations of
	// all runs accumulate on one report, each tagged with its δ).
	Obs *obs.Stats
	// Ctx, when non-nil, bounds every linkage and evolution run the
	// environment performs: cancelling it aborts the experiment suite at
	// the next pipeline checkpoint (see linkage.LinkContext).
	Ctx context.Context
}

// Quality pairs the record- and group-mapping metrics of one linkage run.
type Quality struct {
	Record, Group evaluate.Metrics
}

// Env is a lazily evaluated experiment environment: one generated census
// series plus cached linkage results for the default configuration.
type Env struct {
	Opts   Options
	Series *census.Series

	defaultResults map[int]*linkage.Result // keyed by the older census year
}

// NewEnv generates the synthetic series for the given options.
func NewEnv(opts Options) (*Env, error) {
	cfg := synth.DefaultConfig()
	cfg.Scale = opts.Scale
	cfg.Seed = opts.Seed
	series, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Env{Opts: opts, Series: series, defaultResults: make(map[int]*linkage.Result)}, nil
}

// evalPair returns the evaluation pair used throughout Section 5.2/5.3:
// the 1871 and 1881 censuses.
func (e *Env) evalPair() (*census.Dataset, *census.Dataset) {
	return e.Series.Dataset(1871), e.Series.Dataset(1881)
}

// baseConfig is the paper's best configuration with the environment's
// worker setting applied.
func (e *Env) baseConfig() linkage.Config {
	cfg := linkage.DefaultConfig()
	cfg.Workers = e.Opts.Workers
	cfg.Obs = e.Opts.Obs
	return cfg
}

// linkCtx is the context bounding the environment's pipeline runs.
func (e *Env) linkCtx() context.Context {
	if e.Opts.Ctx != nil {
		return e.Opts.Ctx
	}
	return context.Background()
}

// defaultResult links one successive pair with the default configuration,
// caching the result.
func (e *Env) defaultResult(oldYear int) (*linkage.Result, error) {
	if res, ok := e.defaultResults[oldYear]; ok {
		return res, nil
	}
	old := e.Series.Dataset(oldYear)
	new := e.Series.Dataset(oldYear + 10)
	if old == nil || new == nil {
		return nil, fmt.Errorf("experiments: no census pair starting %d", oldYear)
	}
	res, err := linkage.LinkContext(e.linkCtx(), old, new, e.baseConfig())
	if err != nil {
		return nil, err
	}
	e.defaultResults[oldYear] = res
	return res, nil
}

// quality evaluates a result against the synthetic ground truth, either in
// full or restricted to matched households (the paper's protocol).
func (e *Env) quality(res *linkage.Result, old, new *census.Dataset) Quality {
	if e.Opts.FullTruth {
		rm, gm := evaluate.EvaluateResult(res, old, new)
		return Quality{Record: rm, Group: gm}
	}
	sample := evaluate.MatchedHouseholds(old, new)
	recTruth := evaluate.RestrictRecordTruth(evaluate.TrueRecordMapping(old, new), old, sample)
	grpTruth := evaluate.RestrictGroupTruth(evaluate.TrueGroupMapping(old, new), sample)
	return Quality{
		Record: evaluate.RecordMetrics(evaluate.RestrictRecordLinks(res.RecordLinks, old, sample), recTruth),
		Group:  evaluate.GroupMetrics(evaluate.RestrictGroupLinks(res.GroupLinks, sample), grpTruth),
	}
}

// --- Table 1 ---

// Table1 reports the dataset overview: records, households, unique
// first-name+surname combinations and missing-value ratio per census.
func (e *Env) Table1() *report.Table {
	t := &report.Table{
		Title:  "Table 1: overview of the (synthetic) census datasets",
		Header: []string{"t_i", "|R|", "|G|", "|fn+sn|", "ratio_mv", "mean |g|"},
	}
	for _, d := range e.Series.Datasets {
		s := d.ComputeStats()
		t.AddRow(report.I(s.Year), report.I(s.NumRecords), report.I(s.NumHouseholds),
			report.I(s.UniqueNames), report.Pct(s.MissingRatio)+"%", report.F(s.MeanMembers, 2))
	}
	return t
}

// --- Table 2 ---

// Table2 prints the attribute/matcher/weight configuration of ω1 and ω2.
func (e *Env) Table2() *report.Table {
	t := &report.Table{
		Title:  "Table 2: attribute matchers and weighting vectors",
		Header: []string{"Attribute", "Matching method", "w1", "w2"},
	}
	w1 := linkage.OmegaOne(0)
	w2 := linkage.OmegaTwo(0)
	for i, m := range w1.Matchers {
		method := "q-gram"
		if m.Attr == census.AttrSex {
			method = "exact"
		}
		t.AddRow(m.Attr.String(), method,
			report.F(m.Weight, 1), report.F(w2.Matchers[i].Weight, 1))
	}
	return t
}

// --- Table 3 ---

// Table3Data holds quality per weighting scheme and δ_low.
type Table3Data struct {
	DeltaLows []float64
	Omega1    map[float64]Quality
	Omega2    map[float64]Quality
}

// Table3 evaluates the pre-matching configuration: ω1 vs ω2 across four
// lower threshold bounds δ_low, with δ_high=0.7 and Δ=0.05.
func (e *Env) Table3() (*report.Table, *Table3Data, error) {
	old, new := e.evalPair()
	data := &Table3Data{
		DeltaLows: []float64{0.40, 0.45, 0.50, 0.55},
		Omega1:    make(map[float64]Quality),
		Omega2:    make(map[float64]Quality),
	}
	for _, scheme := range []struct {
		name string
		sim  linkage.SimFunc
		out  map[float64]Quality
	}{
		{"omega1", linkage.OmegaOne(0.7), data.Omega1},
		{"omega2", linkage.OmegaTwo(0.7), data.Omega2},
	} {
		for _, dl := range data.DeltaLows {
			cfg := e.baseConfig()
			cfg.Sim = scheme.sim
			cfg.DeltaLow = dl
			res, err := linkage.LinkContext(e.linkCtx(), old, new, cfg)
			if err != nil {
				return nil, nil, err
			}
			scheme.out[dl] = e.quality(res, old, new)
		}
	}

	t := &report.Table{
		Title: "Table 3: mapping quality for weighting vectors and delta_low",
		Header: []string{"mapping", "metric",
			"w1/0.40", "w1/0.45", "w1/0.50", "w1/0.55",
			"w2/0.40", "w2/0.45", "w2/0.50", "w2/0.55"},
	}
	addRows := func(mapping string, get func(Quality) evaluate.Metrics) {
		rows := [][2]string{{"Precision (%)", "p"}, {"Recall (%)", "r"}, {"F-measure (%)", "f"}}
		for _, row := range rows {
			cells := []string{mapping, row[0]}
			for _, m := range []map[float64]Quality{data.Omega1, data.Omega2} {
				for _, dl := range data.DeltaLows {
					q := get(m[dl])
					switch row[1] {
					case "p":
						cells = append(cells, report.Pct(q.Precision))
					case "r":
						cells = append(cells, report.Pct(q.Recall))
					default:
						cells = append(cells, report.Pct(q.F1))
					}
				}
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	addRows("group", func(q Quality) evaluate.Metrics { return q.Group })
	addRows("record", func(q Quality) evaluate.Metrics { return q.Record })
	return t, data, nil
}

// --- Table 4 ---

// Table4Data holds quality per (alpha, beta) group-selection weighting.
type Table4Data struct {
	Weights [][2]float64
	Results map[[2]float64]Quality
}

// Table4 evaluates the group-similarity weights (α, β) of Eq. 4.
func (e *Env) Table4() (*report.Table, *Table4Data, error) {
	old, new := e.evalPair()
	data := &Table4Data{
		Weights: [][2]float64{{1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}, {0.33, 0.33}, {0.2, 0.7}},
		Results: make(map[[2]float64]Quality),
	}
	for _, w := range data.Weights {
		cfg := e.baseConfig()
		cfg.Alpha, cfg.Beta = w[0], w[1]
		res, err := linkage.LinkContext(e.linkCtx(), old, new, cfg)
		if err != nil {
			return nil, nil, err
		}
		data.Results[w] = e.quality(res, old, new)
	}
	t := &report.Table{
		Title:  "Table 4: quality for group-selection weights (alpha, beta)",
		Header: []string{"mapping", "metric", "(1.0,0.0)", "(0.0,1.0)", "(0.5,0.5)", "(0.33,0.33)", "(0.2,0.7)"},
	}
	addRows := func(mapping string, get func(Quality) evaluate.Metrics) {
		metrics := []struct {
			label string
			pick  func(evaluate.Metrics) float64
		}{
			{"Precision (%)", func(m evaluate.Metrics) float64 { return m.Precision }},
			{"Recall (%)", func(m evaluate.Metrics) float64 { return m.Recall }},
			{"F-measure (%)", func(m evaluate.Metrics) float64 { return m.F1 }},
		}
		for _, mt := range metrics {
			cells := []string{mapping, mt.label}
			for _, w := range data.Weights {
				cells = append(cells, report.Pct(mt.pick(get(data.Results[w]))))
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	addRows("group", func(q Quality) evaluate.Metrics { return q.Group })
	addRows("record", func(q Quality) evaluate.Metrics { return q.Record })
	return t, data, nil
}

// --- Table 5 ---

// Table5Data compares iterative and non-iterative linkage.
type Table5Data struct {
	Iterative, NonIterative Quality
}

// Table5 compares the iterative approach against a one-shot run with the
// fixed minimal threshold (δ_high = δ_low = 0.5).
func (e *Env) Table5() (*report.Table, *Table5Data, error) {
	old, new := e.evalPair()
	res, err := e.defaultResult(1871)
	if err != nil {
		return nil, nil, err
	}
	data := &Table5Data{Iterative: e.quality(res, old, new)}

	cfg := e.baseConfig()
	cfg.DeltaHigh, cfg.DeltaLow, cfg.DeltaStep = 0.5, 0.5, 0
	oneShot, err := linkage.LinkContext(e.linkCtx(), old, new, cfg)
	if err != nil {
		return nil, nil, err
	}
	data.NonIterative = e.quality(oneShot, old, new)

	t := &report.Table{
		Title:  "Table 5: iterative vs non-iterative linkage",
		Header: []string{"mapping", "metric", "non-iterative", "iterative"},
	}
	add := func(mapping string, a, b evaluate.Metrics) {
		t.AddRow(mapping, "Precision (%)", report.Pct(a.Precision), report.Pct(b.Precision))
		t.AddRow(mapping, "Recall (%)", report.Pct(a.Recall), report.Pct(b.Recall))
		t.AddRow(mapping, "F-measure (%)", report.Pct(a.F1), report.Pct(b.F1))
	}
	add("group", data.NonIterative.Group, data.Iterative.Group)
	add("record", data.NonIterative.Record, data.Iterative.Record)
	return t, data, nil
}

// --- Table 6 ---

// Table6Data compares the record mapping of the collective baseline (CL)
// against the iterative subgraph approach.
type Table6Data struct {
	CL, Ours evaluate.Metrics
}

// Table6 runs the collective linkage baseline.
func (e *Env) Table6() (*report.Table, *Table6Data, error) {
	old, new := e.evalPair()
	res, err := e.defaultResult(1871)
	if err != nil {
		return nil, nil, err
	}
	clLinks, err := collective.Link(e.linkCtx(), old, new, collective.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	data := &Table6Data{
		CL:   e.quality(&linkage.Result{RecordLinks: clLinks}, old, new).Record,
		Ours: e.quality(res, old, new).Record,
	}
	t := &report.Table{
		Title:  "Table 6: record mapping vs collective linkage (CL)",
		Header: []string{"metric", "CL", "iter-sub"},
	}
	t.AddRow("Precision (%)", report.Pct(data.CL.Precision), report.Pct(data.Ours.Precision))
	t.AddRow("Recall (%)", report.Pct(data.CL.Recall), report.Pct(data.Ours.Recall))
	t.AddRow("F-measure (%)", report.Pct(data.CL.F1), report.Pct(data.Ours.F1))
	return t, data, nil
}

// --- Table 7 ---

// Table7Data compares the group mapping of GraphSim against ours.
type Table7Data struct {
	GraphSim, Ours evaluate.Metrics
}

// Table7 runs the GraphSim household-linkage baseline.
func (e *Env) Table7() (*report.Table, *Table7Data, error) {
	old, new := e.evalPair()
	res, err := e.defaultResult(1871)
	if err != nil {
		return nil, nil, err
	}
	gs, err := graphsim.Link(e.linkCtx(), old, new, graphsim.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	data := &Table7Data{
		GraphSim: e.quality(&linkage.Result{RecordLinks: gs.RecordLinks, GroupLinks: gs.GroupLinks}, old, new).Group,
		Ours:     e.quality(res, old, new).Group,
	}
	t := &report.Table{
		Title:  "Table 7: group mapping vs GraphSim household linkage",
		Header: []string{"metric", "GraphSim", "iter-sub"},
	}
	t.AddRow("Precision (%)", report.Pct(data.GraphSim.Precision), report.Pct(data.Ours.Precision))
	t.AddRow("Recall (%)", report.Pct(data.GraphSim.Recall), report.Pct(data.Ours.Recall))
	t.AddRow("F-measure (%)", report.Pct(data.GraphSim.F1), report.Pct(data.Ours.F1))
	return t, data, nil
}

// --- Figure 6 and Table 8 ---

// PairPatterns holds the evolution pattern counts of one census pair.
type PairPatterns struct {
	OldYear, NewYear int
	Counts           map[evolution.GroupPattern]int
}

// evolutionGraph links every successive pair with the default configuration
// and assembles the evolution graph.
func (e *Env) evolutionGraph() (*evolution.Graph, error) {
	var results []*linkage.Result
	for _, pair := range e.Series.Pairs() {
		res, err := e.defaultResult(pair[0].Year)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return evolution.BuildGraphContext(e.linkCtx(), e.Series, results, e.Opts.Obs)
}

// Figure6 counts the group evolution patterns for each successive census
// pair (the paper's Fig. 6 bar chart, rendered as a table).
func (e *Env) Figure6() (*report.Table, []PairPatterns, error) {
	g, err := e.evolutionGraph()
	if err != nil {
		return nil, nil, err
	}
	var data []PairPatterns
	t := &report.Table{
		Title:  "Figure 6: group evolution pattern counts per census pair",
		Header: []string{"pair", "preserve_G", "add_G", "remove_G", "move", "split", "merge"},
	}
	for i, counts := range g.PatternCounts() {
		a := g.Analyses[i]
		data = append(data, PairPatterns{OldYear: a.OldYear, NewYear: a.NewYear, Counts: counts})
		t.AddRow(fmt.Sprintf("%d-%d", a.OldYear, a.NewYear),
			report.I(counts[evolution.PatternPreserve]),
			report.I(counts[evolution.PatternAdd]),
			report.I(counts[evolution.PatternRemove]),
			report.I(counts[evolution.PatternMove]),
			report.I(counts[evolution.PatternSplit]),
			report.I(counts[evolution.PatternMerge]))
	}
	return t, data, nil
}

// Table8Data holds the preserve-chain counts per interval length and the
// largest connected component of the evolution graph.
type Table8Data struct {
	Chains           map[int]int // interval length in years -> count
	LargestComponent int
	ComponentShare   float64
}

// Table8 counts households preserved over 10..50-year intervals and the
// largest connected component of the evolution graph (Section 5.4).
func (e *Env) Table8() (*report.Table, *Table8Data, error) {
	g, err := e.evolutionGraph()
	if err != nil {
		return nil, nil, err
	}
	data := &Table8Data{Chains: make(map[int]int)}
	t := &report.Table{
		Title:  "Table 8: preserved households per time interval",
		Header: []string{"interval (years)", "|preserve_G|"},
	}
	for k := 1; k <= len(e.Series.Datasets)-1; k++ {
		n := g.PreserveChains(k)
		data.Chains[10*k] = n
		t.AddRow(report.I(10*k), report.I(n))
	}
	size, share := g.LargestComponentShare()
	data.LargestComponent = size
	data.ComponentShare = share
	t.Note = fmt.Sprintf("largest connected component: %d household vertices (%.1f%% of all)",
		size, share*100)
	return t, data, nil
}
