package linkage_test

// Integration tests: the full iterative linkage pipeline on synthetic
// census pairs, checked against ground truth and its own invariants.

import (
	"context"
	"sync"
	"testing"
	"testing/quick"

	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/linkage"
	"censuslink/internal/synth"
)

var (
	pairOnce   sync.Once
	pairOld    *census.Dataset
	pairNew    *census.Dataset
	pairResult *linkage.Result
	pairErr    error
)

func linkedPair(t *testing.T) (*census.Dataset, *census.Dataset, *linkage.Result) {
	t.Helper()
	pairOnce.Do(func() {
		pairOld, pairNew, pairErr = synth.GeneratePair(synth.TestConfig(0.04, 11), 1861, 1871)
		if pairErr != nil {
			return
		}
		pairResult, pairErr = linkage.LinkContext(context.Background(), pairOld, pairNew, linkage.DefaultConfig())
	})
	if pairErr != nil {
		t.Fatal(pairErr)
	}
	return pairOld, pairNew, pairResult
}

// TestPipelineQualityFloor: the default configuration must reach a solid
// quality level on a standard synthetic pair (well below the measured
// values, to stay robust across calibration changes).
func TestPipelineQualityFloor(t *testing.T) {
	old, new, res := linkedPair(t)
	rm, gm := evaluate.EvaluateResult(res, old, new)
	if rm.F1 < 0.70 {
		t.Errorf("record F = %.3f below floor 0.70 (P=%.3f R=%.3f)", rm.F1, rm.Precision, rm.Recall)
	}
	if gm.F1 < 0.60 {
		t.Errorf("group F = %.3f below floor 0.60 (P=%.3f R=%.3f)", gm.F1, gm.Precision, gm.Recall)
	}
}

// TestPipelineRecallBeatsStrictMatcher: the pipeline's relaxed iterations
// and structural matching must recover clearly more true links than a
// strict high-threshold attribute matcher (the mechanism behind the
// paper's Table 6 recall gap).
func TestPipelineRecallBeatsStrictMatcher(t *testing.T) {
	old, new, res := linkedPair(t)
	cfg := linkage.DefaultConfig()
	strict, err := linkage.MatchRemaining(context.Background(), old.Records(), new.Records(),
		linkage.RemainderOptions{
			Sim: cfg.Sim.WithDelta(0.9), OldYear: old.Year, NewYear: new.Year,
			Match: linkage.MatchConfig{AgeTolerance: 3, YearGap: 10}, Strategies: cfg.Strategies,
		})
	if err != nil {
		t.Fatal(err)
	}
	truth := evaluate.TrueRecordMapping(old, new)
	full := evaluate.RecordMetrics(res.RecordLinks, truth)
	flat := evaluate.RecordMetrics(strict, truth)
	if full.Recall <= flat.Recall {
		t.Errorf("full pipeline recall %.3f should beat strict matcher recall %.3f",
			full.Recall, flat.Recall)
	}
}

// TestPipelineInvariants: 1:1 record mapping, group links backed by at
// least one record link, and every linked record existing.
func TestPipelineInvariants(t *testing.T) {
	old, new, res := linkedPair(t)
	seenOld := map[string]bool{}
	seenNew := map[string]bool{}
	groupsWithLink := map[linkage.GroupPair]bool{}
	for _, l := range res.RecordLinks {
		o, n := old.Record(l.Old), new.Record(l.New)
		if o == nil || n == nil {
			t.Fatalf("link to unknown record: %+v", l)
		}
		if seenOld[l.Old] || seenNew[l.New] {
			t.Fatalf("record mapping not 1:1 at %+v", l)
		}
		seenOld[l.Old] = true
		seenNew[l.New] = true
		if l.Sim < 0 || l.Sim > 1 {
			t.Errorf("similarity out of range: %+v", l)
		}
		groupsWithLink[linkage.GroupPair{Old: o.HouseholdID, New: n.HouseholdID}] = true
	}
	for _, g := range res.GroupLinks {
		if old.Household(g.Old) == nil || new.Household(g.New) == nil {
			t.Fatalf("group link to unknown household: %+v", g)
		}
		if !groupsWithLink[linkage.GroupPair(g)] {
			t.Errorf("group link %v has no supporting record link", g)
		}
	}
}

// TestPipelineIterationsMonotonic: remaining records shrink monotonically
// over iterations.
func TestPipelineIterationsMonotonic(t *testing.T) {
	_, _, res := linkedPair(t)
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations recorded")
	}
	prevOld, prevNew := int(^uint(0)>>1), int(^uint(0)>>1)
	prevDelta := 1.1
	for i, it := range res.Iterations {
		if it.Delta >= prevDelta {
			t.Errorf("iteration %d: delta %.3f did not decrease", i, it.Delta)
		}
		if it.RemainingOld > prevOld || it.RemainingNew > prevNew {
			t.Errorf("iteration %d: remaining records grew", i)
		}
		prevDelta, prevOld, prevNew = it.Delta, it.RemainingOld, it.RemainingNew
	}
}

// TestPipelineSeedStability: quality holds across generator seeds (a
// property-style test over the randomised workload).
func TestPipelineSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: several full pipeline runs")
	}
	prop := func(seed uint8) bool {
		old, new, err := synth.GeneratePair(synth.TestConfig(0.02, int64(seed)+100), 1861, 1871)
		if err != nil {
			return false
		}
		res, err := linkage.LinkContext(context.Background(), old, new, linkage.DefaultConfig())
		if err != nil {
			return false
		}
		rm, _ := evaluate.EvaluateResult(res, old, new)
		// Loose floor: tiny populations are noisy, but the pipeline should
		// never collapse.
		return rm.F1 > 0.55
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
