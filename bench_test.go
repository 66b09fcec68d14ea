// Top-level benchmarks: one per table and figure of the paper's evaluation
// section (each iteration regenerates the experiment on synthetic data),
// plus end-to-end benchmarks of the pipeline's hot paths.
//
// The population scale defaults to 5% of the paper's size so that
// `go test -bench=.` finishes in minutes; set CENSUSLINK_BENCH_SCALE to run
// closer to the full Table 1 magnitudes.
package censuslink_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/evolution"
	"censuslink/internal/experiments"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/store"
	"censuslink/internal/synth"
)

var (
	benchOnce sync.Once
	benchEnvV *experiments.Env
	benchErr  error
)

func benchScale() float64 {
	if s := os.Getenv("CENSUSLINK_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.05
}

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnvV, benchErr = experiments.NewEnv(experiments.Options{
			Scale: benchScale(), Seed: 1871,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnvV
}

// BenchmarkTable1DatasetOverview regenerates the dataset statistics table.
func BenchmarkTable1DatasetOverview(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if env.Table1() == nil {
			b.Fatal("nil table")
		}
	}
}

// BenchmarkTable3PreMatchingConfig regenerates the ω1/ω2 × δ_low sweep.
func BenchmarkTable3PreMatchingConfig(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4GroupWeights regenerates the (α, β) sweep.
func BenchmarkTable4GroupWeights(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Iterative regenerates the iterative vs one-shot comparison.
func BenchmarkTable5Iterative(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6CollectiveBaseline regenerates the CL comparison.
func BenchmarkTable6CollectiveBaseline(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Table6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7GraphSimBaseline regenerates the GraphSim comparison.
func BenchmarkTable7GraphSimBaseline(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Table7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6EvolutionPatterns regenerates the per-pair pattern counts.
func BenchmarkFigure6EvolutionPatterns(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8PreserveChains regenerates the preserve-duration counts.
func BenchmarkTable8PreserveChains(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Table8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateSeries times the synthetic six-census generation.
func BenchmarkGenerateSeries(b *testing.B) {
	cfg := synth.TestConfig(benchScale(), 1871)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkPair times one full iterative linkage of a census pair (the
// system's hot path).
func BenchmarkLinkPair(b *testing.B) {
	env := benchEnv(b)
	old := env.Series.Dataset(1871)
	new := env.Series.Dataset(1881)
	cfg := linkage.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linkage.LinkContext(context.Background(), old, new, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPreMatch runs one standalone pre-matching pass; with a background
// context and no fault injection the error path is unreachable.
func benchPreMatch(oldDS, newDS *census.Dataset, f linkage.SimFunc, cfg linkage.Config) *linkage.PreMatchResult {
	pre, err := linkage.PreMatchOpts(context.Background(), oldDS.Records(), newDS.Records(),
		linkage.PreMatchOptions{
			Sim: f, OldYear: oldDS.Year, NewYear: newDS.Year,
			Strategies: cfg.Strategies, Workers: cfg.Workers,
		})
	if err != nil {
		panic(err)
	}
	return pre
}

// BenchmarkPreMatch times one full pre-matching pass at δ_high. Each pass
// pays for interning, profile construction and the blocking index — the
// honest standalone per-pass cost.
func BenchmarkPreMatch(b *testing.B) {
	old, new, err := synth.GeneratePair(synth.TestConfig(benchScale(), 1871), 1871, 1881)
	if err != nil {
		b.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	f := cfg.Sim.WithDelta(cfg.DeltaHigh)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pre := benchPreMatch(old, new, f, cfg)
		if pre.Compared == 0 {
			b.Fatal("no candidate pairs compared")
		}
	}
}

// BenchmarkLinkSeries times the full six-census series linkage.
func BenchmarkLinkSeries(b *testing.B) {
	series, err := synth.Generate(synth.TestConfig(benchScale(), 1871))
	if err != nil {
		b.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := linkage.LinkSeriesOpts(context.Background(), series, cfg, linkage.SeriesOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkSeriesIncremental contrasts a cold series linkage — every
// pair computed and persisted to a fresh snapshot store — with a warm
// incremental re-run over unchanged inputs, which skips the pipeline
// entirely and deserializes the snapshots instead.
func BenchmarkLinkSeriesIncremental(b *testing.B) {
	series, err := synth.Generate(synth.TestConfig(benchScale(), 1871))
	if err != nil {
		b.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
				linkage.SeriesOptions{Store: st, Incremental: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
			linkage.SeriesOptions{Store: st, Incremental: true}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
				linkage.SeriesOptions{Store: st, Incremental: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBenchTrajectory times one full link of a census pair under the
// default and the LSH blocking schemes, with the record and group
// precision, recall and F-measure of each against the synthetic truth,
// plus the LSH candidate
// trade-off, the incremental series and the append-only evolution rows,
// and writes a JSON report to the path named by the CENSUSLINK_BENCH_JSON
// environment variable.
//
// Next to each scheme's full-link row it records the per-op time of every
// observability stage of that link (<scheme>_stage_<stage>_ns) and the
// peak heap in use (<scheme>_peak_heap_inuse_bytes).
//
// With CENSUSLINK_BENCH_BASELINE set to a previously committed report
// (BENCH_prematch.json), the test additionally acts as a performance
// regression gate: it fails when either full link has become more than
// 1.5x slower per op than the baseline, when its compile, prematch or
// subgraph_match stage has become more than 2x slower, or when its record
// or group precision, recall or F-measure has dropped by more than one
// point. The test is skipped when neither variable is set.
func TestBenchTrajectory(t *testing.T) {
	path := os.Getenv("CENSUSLINK_BENCH_JSON")
	basePath := os.Getenv("CENSUSLINK_BENCH_BASELINE")
	if path == "" && basePath == "" {
		t.Skip("set CENSUSLINK_BENCH_JSON to write the benchmark report, " +
			"or CENSUSLINK_BENCH_BASELINE to compare against a committed one")
	}
	old, new, err := synth.GeneratePair(synth.TestConfig(benchScale(), 1871), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	lshStrategies, err := linkage.ParseBlocking("lsh")
	if err != nil {
		t.Fatal(err)
	}
	lshCfg := cfg
	lshCfg.Strategies = lshStrategies

	report := map[string]any{
		"benchmark": "PreMatch",
		"scale":     benchScale(),
	}
	// Full-link rows: one LinkContext per op under each blocking scheme,
	// and the precision, recall and F-measure of the links it returns.
	for _, scheme := range []struct {
		name string
		cfg  linkage.Config
	}{{"link_default", cfg}, {"link_lsh", lshCfg}} {
		var res *linkage.Result
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = linkage.LinkContext(context.Background(), old, new, scheme.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		rec, grp := evaluate.EvaluateResult(res, old, new)
		report[scheme.name+"_ns_op"] = r.NsPerOp()
		report[scheme.name+"_record_f1"] = rec.F1
		report[scheme.name+"_group_f1"] = grp.F1
		report[scheme.name+"_record_precision"] = rec.Precision
		report[scheme.name+"_record_recall"] = rec.Recall
		report[scheme.name+"_group_precision"] = grp.Precision
		report[scheme.name+"_group_recall"] = grp.Recall
		t.Logf("%s %v/op, record F %.4f, group F %.4f", scheme.name, r.NsPerOp(), rec.F1, grp.F1)

		// Stage rows: the same link observed, the per-op time of every
		// stage and the peak heap in use over the ops.
		var stageNS map[string]time.Duration
		var peakHeap int64
		staged := testing.Benchmark(func(b *testing.B) {
			stageNS, peakHeap = map[string]time.Duration{}, 0
			for i := 0; i < b.N; i++ {
				observed := scheme.cfg
				observed.Obs = obs.NewStats(nil)
				if _, err := linkage.LinkContext(context.Background(), old, new, observed); err != nil {
					b.Fatal(err)
				}
				rep := observed.Obs.Report()
				for name, st := range rep.Stages {
					stageNS[name] += st.TotalNS
				}
				peakHeap = max(peakHeap, rep.Gauges[obs.PeakHeapInuse])
			}
		})
		for name, d := range stageNS {
			report[stageRow(scheme.name, name)] = int64(d) / int64(staged.N)
		}
		report[scheme.name+"_peak_heap_inuse_bytes"] = peakHeap
		t.Logf("%s stages per op over %d observed links: compile %v, prematch %v, subgraph_match %v; peak heap in use %d MB",
			scheme.name, staged.N, stageNS["compile"]/time.Duration(staged.N), stageNS["prematch"]/time.Duration(staged.N),
			stageNS["subgraph_match"]/time.Duration(staged.N), peakHeap>>20)
	}

	// LSH blocking rows: the candidate-count and true-match-coverage
	// trade-off against the default phonetic passes. The scheme must keep
	// its >= 5x pair reduction and >= 0.98 relative recall as the code
	// evolves.
	truth := evaluate.TrueRecordMapping(old, new)
	countAndCoverage := func(strategies []block.Strategy) (int, float64) {
		covered := 0
		pairs, err := linkage.Candidates(context.Background(), old.Records(), old.Year, new.Records(), new.Year, strategies,
			func(o, n *census.Record) {
				if truth[linkage.Pair{Old: o.ID, New: n.ID}] {
					covered++
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		return pairs, float64(covered) / float64(len(truth))
	}
	exactPairs, exactCov := countAndCoverage(cfg.Strategies)
	lshPairs, lshCov := countAndCoverage(lshStrategies)
	lshReduction := float64(exactPairs) / float64(lshPairs)
	lshRelRecall := lshCov / exactCov
	t.Logf("lsh pairs %d vs %d exact (%.2fx reduction), relative recall %.4f",
		lshPairs, exactPairs, lshReduction, lshRelRecall)
	if lshReduction < 5 {
		t.Errorf("LSH candidate-pair reduction %.2fx below the 5x target", lshReduction)
	}
	if lshRelRecall < 0.98 {
		t.Errorf("LSH relative recall %.4f below the 0.98 target", lshRelRecall)
	}

	statsCfg := linkage.DefaultConfig()
	statsCfg.Obs = obs.NewStats(nil)
	if _, err := linkage.LinkContext(context.Background(), old, new, statsCfg); err != nil {
		t.Fatal(err)
	}
	report["pruned_comparisons"] = statsCfg.Obs.Report().Counters[obs.PrunedComparisons]
	report["prematch_lsh_pairs"] = lshPairs
	report["prematch_exact_pairs"] = exactPairs
	report["prematch_lsh_pair_reduction"] = lshReduction
	report["prematch_lsh_relative_recall"] = lshRelRecall

	// Incremental series rows: one cold pass per iteration (fresh store,
	// full pipeline) against a warm re-run served entirely from snapshots.
	series, err := synth.Generate(synth.TestConfig(benchScale(), 1871))
	if err != nil {
		t.Fatal(err)
	}
	seriesCfg := linkage.DefaultConfig()
	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := linkage.LinkSeriesOpts(context.Background(), series, seriesCfg,
				linkage.SeriesOptions{Store: st, Incremental: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	warmStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := linkage.LinkSeriesOpts(context.Background(), series, seriesCfg,
		linkage.SeriesOptions{Store: warmStore, Incremental: true}); err != nil {
		t.Fatal(err)
	}
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := linkage.LinkSeriesOpts(context.Background(), series, seriesCfg,
				linkage.SeriesOptions{Store: warmStore, Incremental: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	incSpeedup := float64(cold.NsPerOp()) / float64(warm.NsPerOp())
	report["series_cold_ns_op"] = cold.NsPerOp()
	report["series_warm_ns_op"] = warm.NsPerOp()
	report["incremental_speedup"] = incSpeedup
	t.Logf("series cold %v/op, warm (all snapshots) %v/op, incremental speedup %.2fx",
		cold.NsPerOp(), warm.NsPerOp(), incSpeedup)

	// Append-only evolution rows: a census year arriving as an event. The
	// rebuild row is what a non-incremental service pays on arrival — relink
	// the whole series and rebuild the evolution graph and timelines from
	// scratch. The warm append row is the event path the server takes: link
	// only the new pair (snapshot-warm), clone the resident graph and extend
	// it in place. The differential test in internal/evolution proves the two
	// agree; the gate here proves the append path earns its keep. The cold
	// row is the honest no-snapshot arrival (the pair really gets linked).
	baseSeries := census.NewSeries(series.Datasets[:len(series.Datasets)-1]...)
	nextDS := series.Datasets[len(series.Datasets)-1]
	lastDS := baseSeries.Datasets[len(baseSeries.Datasets)-1]
	baseResults, err := linkage.LinkSeriesOpts(context.Background(), baseSeries, seriesCfg,
		linkage.SeriesOptions{Store: warmStore, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	baseGraph, err := evolution.BuildGraphContext(context.Background(), baseSeries, baseResults, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseTimelines := baseGraph.PersonTimelines(1)
	appendOnce := func(b *testing.B, opts linkage.SeriesOptions) {
		res, err := linkage.LinkAppend(context.Background(), baseSeries, nextDS, seriesCfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		g := baseGraph.Clone()
		if err := g.AppendYear(lastDS, nextDS, res); err != nil {
			b.Fatal(err)
		}
		if len(g.ExtendTimelines(baseTimelines)) == 0 {
			b.Fatal("append produced no timelines")
		}
	}
	rebuild := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := linkage.LinkSeriesOpts(context.Background(), series, seriesCfg, linkage.SeriesOptions{})
			if err != nil {
				b.Fatal(err)
			}
			g, err := evolution.BuildGraphContext(context.Background(), series, res, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(g.PersonTimelines(1)) == 0 {
				b.Fatal("rebuild produced no timelines")
			}
		}
	})
	appendWarm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			appendOnce(b, linkage.SeriesOptions{Store: warmStore, Incremental: true})
		}
	})
	appendCold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			appendOnce(b, linkage.SeriesOptions{})
		}
	})
	evoSpeedup := float64(rebuild.NsPerOp()) / float64(appendWarm.NsPerOp())
	report["evolution_incremental_rebuild_ns_op"] = rebuild.NsPerOp()
	report["evolution_incremental_append_ns_op"] = appendWarm.NsPerOp()
	report["evolution_incremental_speedup"] = evoSpeedup
	report["evolution_append_cold_pair_ns_op"] = appendCold.NsPerOp()
	t.Logf("evolution rebuild %v/op, warm append %v/op (%.2fx), cold-pair append %v/op",
		rebuild.NsPerOp(), appendWarm.NsPerOp(), evoSpeedup, appendCold.NsPerOp())
	if evoSpeedup < 10 {
		t.Errorf("warm append %.2fx faster than a full rebuild, below the 10x gate", evoSpeedup)
	}

	if path != "" {
		// Preserve the committed million-record rows (written separately by
		// TestLink1M, which takes hours) when this rewrite did not re-measure
		// them.
		if prev, err := os.ReadFile(path); err == nil {
			var old map[string]any
			if json.Unmarshal(prev, &old) == nil {
				for k, v := range old {
					if _, fresh := report[k]; !fresh && strings.HasPrefix(k, "link_1m_") {
						report[k] = v
					}
				}
			}
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if basePath != "" {
		base, err := readBenchBaseline(basePath)
		if err != nil {
			t.Fatal(err)
		}
		if base["scale"] != benchScale() {
			t.Skipf("baseline scale %.3f != current scale %.3f: not comparable", base["scale"], benchScale())
		}
		for _, scheme := range []string{"link_default", "link_lsh"} {
			now, then := float64(report[scheme+"_ns_op"].(int64)), base[scheme+"_ns_op"]
			t.Logf("%s vs baseline %s: %.0f ns/op now, %.0f ns/op then (%.2fx)", scheme, basePath, now, then, now/then)
			if now/then > 1.5 {
				t.Errorf("%s regressed %.2fx vs the committed baseline (limit 1.5x): %.0f ns/op vs %.0f ns/op",
					scheme, now/then, now, then)
			}
			for _, stage := range gatedStages {
				row := stageRow(scheme, stage)
				now, then := float64(report[row].(int64)), base[row]
				t.Logf("%s vs baseline: %.0f ns/op now, %.0f ns/op then (%.2fx)", row, now, then, now/then)
				if now/then > 2 {
					t.Errorf("%s regressed %.2fx vs the committed baseline (limit 2x): %.0f ns/op vs %.0f ns/op",
						row, now/then, now, then)
				}
			}
			for _, q := range qualityRows {
				if now, then := report[scheme+q].(float64), base[scheme+q]; now < then-0.01 {
					t.Errorf("%s%s dropped to %.4f from the committed %.4f (limit one point)", scheme, q, now, then)
				}
			}
		}
	}
}

// gatedStages lists the stages whose per-op time the regression gate
// holds to 2x of the baseline under each blocking scheme.
var gatedStages = []string{"compile", "prematch", "subgraph_match"}

// qualityRows lists the link-quality row suffixes (against the synthetic
// truth) the regression gate holds to within one point of the baseline
// under each blocking scheme.
var qualityRows = []string{
	"_record_f1", "_record_precision", "_record_recall",
	"_group_f1", "_group_precision", "_group_recall",
}

// stageRow names the report row of one stage's per-op time under a scheme.
func stageRow(scheme, stage string) string { return scheme + "_stage_" + stage + "_ns" }

// benchGated lists the BENCH_prematch.json rows the regression gate
// compares against.
var benchGated = func() []string {
	var rows []string
	for _, scheme := range []string{"link_default", "link_lsh"} {
		rows = append(rows, scheme+"_ns_op")
		for _, q := range qualityRows {
			rows = append(rows, scheme+q)
		}
		for _, stage := range gatedStages {
			rows = append(rows, stageRow(scheme, stage))
		}
	}
	return rows
}()

// readBenchBaseline returns the numeric rows of a committed report,
// requiring every gated row to be present and positive.
func readBenchBaseline(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	base := make(map[string]float64, len(rows))
	for k, v := range rows {
		if f, ok := v.(float64); ok {
			base[k] = f
		}
	}
	for _, k := range benchGated {
		if base[k] <= 0 {
			return nil, fmt.Errorf("%s: missing or non-positive %s", path, k)
		}
	}
	return base, nil
}

// BenchmarkEvolutionAnalysis times pattern derivation for one linked pair.
func BenchmarkEvolutionAnalysis(b *testing.B) {
	env := benchEnv(b)
	old := env.Series.Dataset(1871)
	new := env.Series.Dataset(1881)
	res, err := linkage.LinkContext(context.Background(), old, new, linkage.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evolution.Analyze(old, new, res) == nil {
			b.Fatal("nil analysis")
		}
	}
}

// BenchmarkLinkScaling measures the full pipeline across population scales
// (records grow roughly linearly with scale; candidate pairs faster).
func BenchmarkLinkScaling(b *testing.B) {
	for _, scale := range []float64{0.02, 0.05, 0.10} {
		scale := scale
		b.Run(fmt.Sprintf("scale=%.2f", scale), func(b *testing.B) {
			old, new, err := synth.GeneratePair(synth.TestConfig(scale, 1871), 1871, 1881)
			if err != nil {
				b.Fatal(err)
			}
			cfg := linkage.DefaultConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := linkage.LinkContext(context.Background(), old, new, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation regenerates the design-choice ablation table.
func BenchmarkAblation(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Ablation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines regenerates the record-baseline comparison (CL,
// temporal decay, iterative subgraph).
func BenchmarkBaselines(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Baselines(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBirthplaceExtension regenerates the stable-attribute extension.
func BenchmarkBirthplaceExtension(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.BirthplaceExtension(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQualityByDecade regenerates the per-pair quality table.
func BenchmarkQualityByDecade(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := env.QualityByPair(); err != nil {
			b.Fatal(err)
		}
	}
}
