package linkage_test

// Integration tests of the observability wiring: the per-iteration obs
// snapshots must agree with the pipeline's own IterationStats, and the
// blocking counters must agree with a direct PreMatch run.

import (
	"context"
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/synth"
)

// TestObsReportMatchesResult: one obs snapshot per δ iteration, with
// Compared/link/group counts identical to Result.Iterations, and run totals
// covering the remainder pass.
func TestObsReportMatchesResult(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.03, 7), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	cfg.Obs = obs.NewStats(nil)
	res, err := linkage.LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := cfg.Obs.Report()

	if len(rep.Iterations) != len(res.Iterations) {
		t.Fatalf("report has %d iterations, result has %d", len(rep.Iterations), len(res.Iterations))
	}
	var wantRecords int64
	for i, want := range res.Iterations {
		got := rep.Iterations[i]
		if got.Delta != want.Delta {
			t.Errorf("iteration %d: delta %v != %v", i, got.Delta, want.Delta)
		}
		if got.Count(obs.PairsCompared) != int64(want.ComparedPairs) {
			t.Errorf("iteration %d: compared %d != %d", i, got.Count(obs.PairsCompared), want.ComparedPairs)
		}
		if got.Count(obs.CandidateLinks) != int64(want.CandidateLinks) {
			t.Errorf("iteration %d: links %d != %d", i, got.Count(obs.CandidateLinks), want.CandidateLinks)
		}
		if got.Count(obs.GroupPairs) != int64(want.GroupPairs) {
			t.Errorf("iteration %d: group pairs %d != %d", i, got.Count(obs.GroupPairs), want.GroupPairs)
		}
		if got.Count(obs.GroupLinks) != int64(want.NewGroupLinks) {
			t.Errorf("iteration %d: group links %d != %d", i, got.Count(obs.GroupLinks), want.NewGroupLinks)
		}
		if got.Count(obs.RecordLinks) != int64(want.NewRecordLinks) {
			t.Errorf("iteration %d: record links %d != %d", i, got.Count(obs.RecordLinks), want.NewRecordLinks)
		}
		if got.Count(obs.BlockingPairs) < got.Count(obs.PairsCompared) {
			t.Errorf("iteration %d: raw blocking pairs %d below compared %d",
				i, got.Count(obs.BlockingPairs), got.Count(obs.PairsCompared))
		}
		if got.Count(obs.ClusterLabels) <= 0 {
			t.Errorf("iteration %d: no cluster labels recorded", i)
		}
	}
	for _, it := range res.Iterations {
		wantRecords += int64(it.NewRecordLinks)
	}
	if got := rep.Counters[obs.RecordLinks]; got != wantRecords {
		t.Errorf("total subgraph record links %d != %d", got, wantRecords)
	}
	if got := rep.Counters[obs.RemainderLinks]; got != int64(res.RemainderRecordLinks) {
		t.Errorf("remainder links %d != %d", got, res.RemainderRecordLinks)
	}
	if got, want := got64(rep, obs.RecordLinks)+got64(rep, obs.RemainderLinks), int64(len(res.RecordLinks)); got != want {
		t.Errorf("total record links %d != len(RecordLinks) %d", got, want)
	}
	stages := []string{"build_graphs", "compile", "prematch", "subgraph_match", "selection", "remainder"}
	for _, stage := range stages {
		st, ok := rep.Stages[stage]
		if !ok || st.Calls == 0 {
			t.Errorf("stage %q missing from report", stage)
		}
	}
	if got := rep.StageNames(); len(got) != len(stages) {
		t.Errorf("report stages %v, want %v", got, stages)
	}
}

func got64(r *obs.Report, name string) int64 { return r.Counters[name] }

// TestObsPreMatchAgreement: the report's first-iteration compared/blocked
// counts must equal an independent PreMatch run at δ_high over the same
// inputs (the report is an accounting of the real work, not an estimate).
func TestObsPreMatchAgreement(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.03, 7), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	cfg.Obs = obs.NewStats(nil)
	if _, err := linkage.LinkContext(context.Background(), old, new, cfg); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Obs.Report()
	if len(rep.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}

	pre, err := linkage.PreMatchOpts(context.Background(), old.Records(), new.Records(),
		linkage.PreMatchOptions{
			Sim: cfg.Sim.WithDelta(cfg.DeltaHigh), OldYear: old.Year, NewYear: new.Year,
			Strategies: cfg.Strategies, Workers: cfg.Workers,
		})
	if err != nil {
		t.Fatal(err)
	}
	first := rep.Iterations[0]
	if got, want := first.Count(obs.PairsCompared), int64(pre.Compared); got != want {
		t.Errorf("first-iteration compared %d != independent PreMatch %d", got, want)
	}
	if got, want := first.Count(obs.BlockingPairs), int64(pre.Blocked); got != want {
		t.Errorf("first-iteration blocking pairs %d != independent PreMatch %d", got, want)
	}
	if pre.Blocked < pre.Compared {
		t.Errorf("raw blocked %d below deduped compared %d", pre.Blocked, pre.Compared)
	}
}

// TestObsNilConfigUnchanged: linking with and without a collector must
// produce identical mappings — observability is strictly passive.
func TestObsNilConfigUnchanged(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 3), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := linkage.LinkContext(context.Background(), old, new, linkage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	cfg.Obs = obs.NewStats(nil)
	observed, err := linkage.LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.RecordLinks) != len(observed.RecordLinks) || len(plain.GroupLinks) != len(observed.GroupLinks) {
		t.Fatalf("observability changed the result: %d/%d links vs %d/%d",
			len(plain.RecordLinks), len(plain.GroupLinks),
			len(observed.RecordLinks), len(observed.GroupLinks))
	}
	for i := range plain.RecordLinks {
		if plain.RecordLinks[i] != observed.RecordLinks[i] {
			t.Fatalf("record link %d differs: %+v vs %+v", i, plain.RecordLinks[i], observed.RecordLinks[i])
		}
	}
}

// TestIndexGeneratedCounter: the blocking index counts raw hits across
// concurrent queries (exercised under -race by the tier-1 gate).
func TestIndexGeneratedCounter(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 5), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	ix := block.NewIndex(new.Records(), new.Year, block.DefaultStrategies())
	if ix.Generated() != 0 {
		t.Fatalf("fresh index reports %d generated pairs", ix.Generated())
	}
	distinct := 0
	var scratch block.Scratch
	for _, o := range old.Records() {
		distinct += len(ix.Candidates(o, old.Year, &scratch))
	}
	if ix.Generated() < int64(distinct) {
		t.Fatalf("raw generated %d below distinct %d", ix.Generated(), distinct)
	}
}
