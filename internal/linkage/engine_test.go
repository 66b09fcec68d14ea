package linkage_test

// Differential tests of the compiled comparison engine against the
// interpreted oracle: the two paths must agree bit-for-bit on every
// similarity and produce identical linkage results.

import (
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/linkage"
	"censuslink/internal/synth"
)

func TestParseEngine(t *testing.T) {
	cases := []struct {
		in   string
		want linkage.EngineKind
		err  bool
	}{
		{"", linkage.EngineCompiled, false},
		{"compiled", linkage.EngineCompiled, false},
		{"Compiled", linkage.EngineCompiled, false},
		{"naive", linkage.EngineNaive, false},
		{" interpreted ", linkage.EngineNaive, false},
		{"turbo", 0, true},
	}
	for _, c := range cases {
		got, err := linkage.ParseEngine(c.in)
		if (err != nil) != c.err || (err == nil && got != c.want) {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v (err=%v)", c.in, got, err, c.want, c.err)
		}
	}
	if linkage.EngineCompiled.String() != "compiled" || linkage.EngineNaive.String() != "naive" {
		t.Errorf("EngineKind.String: %q / %q", linkage.EngineCompiled, linkage.EngineNaive)
	}
}

// TestCompiledAggSimBitIdentical: over every blocked candidate pair of a
// synthetic year-pair and every shipped SimFunc configuration, the compiled
// engine's AggSim and SimVector must equal the interpreted values exactly —
// not approximately.
func TestCompiledAggSimBitIdentical(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.03, 11), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	funcs := []linkage.SimFunc{
		linkage.OmegaOne(0.7),
		linkage.OmegaTwo(0.7),
		linkage.OmegaTwoBirthplace(0.7),
		linkage.NameOnly(0.5),
	}
	for _, f := range funcs {
		eng := f.Compile(old.Records(), new.Records())
		checked := 0
		block.Candidates(old.Records(), old.Year, new.Records(), new.Year, block.DefaultStrategies(),
			func(o, n *census.Record) {
				oi, ok := eng.Old.Pos(o.ID)
				if !ok {
					t.Fatalf("%s: old record %s not compiled", f.Name, o.ID)
				}
				ni, ok := eng.New.Pos(n.ID)
				if !ok {
					t.Fatalf("%s: new record %s not compiled", f.Name, n.ID)
				}
				if got, want := eng.AggSim(oi, ni), f.AggSim(o, n); got != want {
					t.Fatalf("%s: AggSim(%s, %s): compiled=%v naive=%v", f.Name, o.ID, n.ID, got, want)
				}
				gotVec, wantVec := eng.SimVector(oi, ni), f.SimVector(o, n)
				for i := range wantVec {
					if gotVec[i] != wantVec[i] {
						t.Fatalf("%s: SimVector(%s, %s)[%d]: compiled=%v naive=%v",
							f.Name, o.ID, n.ID, i, gotVec[i], wantVec[i])
					}
				}
				checked++
			})
		if checked == 0 {
			t.Fatalf("%s: no candidate pairs checked", f.Name)
		}
	}
}

// TestCompiledAggSimAtLeastAgreesWithThreshold: the early-exit variant must
// accept exactly the pairs the interpreted path accepts at every δ of the
// default relaxation schedule, with exact similarities for accepted pairs.
func TestCompiledAggSimAtLeastAgreesWithThreshold(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 13), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	f := linkage.OmegaTwo(0.7)
	for _, delta := range []float64{0.7, 0.65, 0.6, 0.55, 0.5} {
		eng := f.Compile(old.Records(), new.Records())
		block.Candidates(old.Records(), old.Year, new.Records(), new.Year, block.DefaultStrategies(),
			func(o, n *census.Record) {
				oi, _ := eng.Old.Pos(o.ID)
				ni, _ := eng.New.Pos(n.ID)
				want := f.AggSim(o, n)
				got, ok := eng.AggSimAtLeast(oi, ni, delta)
				if (want >= delta) != ok {
					t.Fatalf("delta=%v: AggSimAtLeast(%s, %s) ok=%v, naive sim=%v", delta, o.ID, n.ID, ok, want)
				}
				if ok && got != want {
					t.Fatalf("delta=%v: accepted sim %v != naive %v for (%s, %s)", delta, got, want, o.ID, n.ID)
				}
			})
	}
}

// linkBoth runs Link with both engines on the same inputs.
func linkBoth(t *testing.T, old, new *census.Dataset, cfg linkage.Config) (compiled, naive *linkage.Result) {
	t.Helper()
	cfg.Engine = linkage.EngineCompiled
	compiled, err := linkage.Link(old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = linkage.EngineNaive
	naive, err = linkage.Link(old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return compiled, naive
}

// requireIdenticalResults asserts the full observable output of two Link
// runs is identical: record links (with similarities), group links,
// provenance, per-iteration statistics and quality metrics.
func requireIdenticalResults(t *testing.T, compiled, naive *linkage.Result, old, new *census.Dataset) {
	t.Helper()
	if len(compiled.RecordLinks) != len(naive.RecordLinks) {
		t.Fatalf("record links: compiled %d != naive %d", len(compiled.RecordLinks), len(naive.RecordLinks))
	}
	for i := range naive.RecordLinks {
		if compiled.RecordLinks[i] != naive.RecordLinks[i] {
			t.Fatalf("record link %d differs: compiled %+v naive %+v", i, compiled.RecordLinks[i], naive.RecordLinks[i])
		}
	}
	if len(compiled.GroupLinks) != len(naive.GroupLinks) {
		t.Fatalf("group links: compiled %d != naive %d", len(compiled.GroupLinks), len(naive.GroupLinks))
	}
	for i := range naive.GroupLinks {
		if compiled.GroupLinks[i] != naive.GroupLinks[i] {
			t.Fatalf("group link %d differs: compiled %+v naive %+v", i, compiled.GroupLinks[i], naive.GroupLinks[i])
		}
	}
	if len(compiled.Sources) != len(naive.Sources) {
		t.Fatalf("sources: compiled %d != naive %d", len(compiled.Sources), len(naive.Sources))
	}
	for p, ns := range naive.Sources {
		if cs, ok := compiled.Sources[p]; !ok || cs != ns {
			t.Fatalf("source for %v differs: compiled %+v naive %+v", p, compiled.Sources[p], ns)
		}
	}
	if len(compiled.Iterations) != len(naive.Iterations) {
		t.Fatalf("iterations: compiled %d != naive %d", len(compiled.Iterations), len(naive.Iterations))
	}
	for i := range naive.Iterations {
		if compiled.Iterations[i] != naive.Iterations[i] {
			t.Fatalf("iteration %d differs: compiled %+v naive %+v", i, compiled.Iterations[i], naive.Iterations[i])
		}
	}
	if compiled.RemainderRecordLinks != naive.RemainderRecordLinks ||
		compiled.RemainderGroupLinks != naive.RemainderGroupLinks {
		t.Fatalf("remainder counts differ: compiled %d/%d naive %d/%d",
			compiled.RemainderRecordLinks, compiled.RemainderGroupLinks,
			naive.RemainderRecordLinks, naive.RemainderGroupLinks)
	}
	cRec, cGrp := evaluate.EvaluateResult(compiled, old, new)
	nRec, nGrp := evaluate.EvaluateResult(naive, old, new)
	if cRec != nRec || cGrp != nGrp {
		t.Fatalf("quality metrics differ: compiled %+v/%+v naive %+v/%+v", cRec, cGrp, nRec, nGrp)
	}
}

// TestLinkEngineDifferential: the compiled and naive engines must produce
// identical record links, group links and quality metrics on the synthetic
// series (the acceptance criterion of the compiled-engine refactor).
func TestLinkEngineDifferential(t *testing.T) {
	for _, seed := range []int64{7, 23} {
		old, new, err := synth.GeneratePair(synth.TestConfig(0.03, seed), 1861, 1871)
		if err != nil {
			t.Fatal(err)
		}
		compiled, naive := linkBoth(t, old, new, linkage.DefaultConfig())
		requireIdenticalResults(t, compiled, naive, old, new)
	}
}

// TestLinkEngineDifferentialVariants: identity must also hold under the
// optimal remainder assignment, the one-shot schedule, ω1 matching, both
// vertex ablations and LSH blocking.
func TestLinkEngineDifferentialVariants(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 41), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := linkage.ParseBlocking("lsh")
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(*linkage.Config){
		"optimal-remainder": func(c *linkage.Config) { c.OptimalRemainder = true },
		"one-shot":          func(c *linkage.Config) { c.DeltaHigh, c.DeltaLow, c.DeltaStep = 0.5, 0.5, 0 },
		"omega1":            func(c *linkage.Config) { c.Sim = linkage.OmegaOne(0.7) },
		"single-worker":     func(c *linkage.Config) { c.Workers = 1 },
		// Non-multiple DeltaHigh-DeltaLow: the schedule clamps its last
		// step to δ_low; both engines must see the identical thresholds.
		"clamped-schedule":     func(c *linkage.Config) { c.DeltaLow = 0.52 },
		"vertex-guards":        func(c *linkage.Config) { c.VertexGuards = true },
		"direct-vertices-only": func(c *linkage.Config) { c.DirectVerticesOnly = true },
		"lsh":                  func(c *linkage.Config) { c.Strategies = lsh },
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := linkage.DefaultConfig()
			mutate(&cfg)
			compiled, naive := linkBoth(t, old, new, cfg)
			requireIdenticalResults(t, compiled, naive, old, new)
		})
	}
}

// TestLinkSeriesEngineDifferential: identity across a whole multi-decade
// series run.
func TestLinkSeriesEngineDifferential(t *testing.T) {
	series, err := synth.Generate(synth.TestConfig(0.02, 17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	cfg.Engine = linkage.EngineCompiled
	compiled, err := linkage.LinkSeries(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = linkage.EngineNaive
	naive, err := linkage.LinkSeries(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled) != len(naive) {
		t.Fatalf("series results: compiled %d != naive %d", len(compiled), len(naive))
	}
	pairs := series.Pairs()
	for i := range naive {
		requireIdenticalResults(t, compiled[i], naive[i], pairs[i][0], pairs[i][1])
	}
}
