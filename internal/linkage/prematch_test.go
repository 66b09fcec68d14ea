package linkage

import (
	"context"
	"reflect"
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/paperexample"
)

// preMatchT is the test shorthand for a standalone pre-matching pass with
// the default engine and a background context; errors are impossible there.
func preMatchT(old []*census.Record, oldYear int, new []*census.Record, newYear int,
	f SimFunc, strategies []block.Strategy, workers int) *PreMatchResult {
	pre, err := PreMatchOpts(context.Background(), old, new, PreMatchOptions{
		Sim: f, OldYear: oldYear, NewYear: newYear,
		Strategies: strategies, Workers: workers,
	})
	if err != nil {
		panic(err)
	}
	return pre
}

// figure3PreMatch runs pre-matching exactly as in Fig. 3 of the paper:
// first name and surname with equal weights and similarity threshold 1.
func figure3PreMatch(workers int) *PreMatchResult {
	old, new := paperexample.Old(), paperexample.New()
	return preMatchT(old.Records(), old.Year, new.Records(), new.Year,
		NameOnly(1.0), block.DefaultStrategies(), workers)
}

// TestPreMatchFigure3 checks the clustering of the running example against
// Fig. 3: ten clusters, with the two John Ashworths of 1881 sharing the
// label of the 1871 John Ashworth, and Alice Ashworth/Alice Smith apart.
func TestPreMatchFigure3(t *testing.T) {
	pre := viewOf(figure3PreMatch(1))

	// Every record must carry a label.
	if len(pre.Labels) != 8+11 {
		t.Fatalf("labelled records = %d, want 19", len(pre.Labels))
	}
	distinct := map[int]bool{}
	for _, l := range pre.Labels {
		distinct[l] = true
	}
	if len(distinct) != 10 {
		t.Errorf("clusters = %d, want 10 (Fig. 3)", len(distinct))
	}

	old := func(id string) recordKey { return recordKey{ID: id} }
	new := func(id string) recordKey { return recordKey{New: true, ID: id} }
	same := func(a, b recordKey) bool { return pre.Labels[a] == pre.Labels[b] }
	// Cluster A: all three John Ashworths.
	if !same(old("1871_1"), new("1881_1")) || !same(old("1871_1"), new("1881_9")) {
		t.Error("John Ashworth cluster broken")
	}
	// Clusters I and K: the two Alices stay apart at threshold 1.
	if same(old("1871_3"), new("1881_7")) {
		t.Error("Alice Ashworth and Alice Smith should not share a label at delta 1")
	}
	// Singletons.
	for _, k := range []recordKey{old("1871_5"), new("1881_8")} {
		l := pre.Labels[k]
		if pre.LabelSize[l] != 1 {
			t.Errorf("%s should be a singleton, label size %d", k.ID, pre.LabelSize[l])
		}
	}
	// Label sizes used by the uniqueness score: |A| = 3 (Eq. 8).
	if got := pre.LabelSize[pre.Labels[old("1871_1")]]; got != 3 {
		t.Errorf("label size of John Ashworth cluster = %d, want 3", got)
	}
	// Direct links store their aggregated similarity.
	if s, ok := pre.Sims[Pair{Old: "1871_1", New: "1881_1"}]; !ok || s != 1 {
		t.Errorf("sim(1871_1, 1881_1) = %v/%v", s, ok)
	}
}

// TestPreMatchParallelDeterminism: the result must be identical for any
// worker count.
func TestPreMatchParallelDeterminism(t *testing.T) {
	base := figure3PreMatch(1)
	for _, workers := range []int{2, 3, 8, 0} {
		got := figure3PreMatch(workers)
		if !reflect.DeepEqual(got.Links, base.Links) {
			t.Errorf("workers=%d: links differ", workers)
		}
		if !reflect.DeepEqual(got.OldLabels, base.OldLabels) || !reflect.DeepEqual(got.NewLabels, base.NewLabels) {
			t.Errorf("workers=%d: labels differ", workers)
		}
		if got.Compared != base.Compared {
			t.Errorf("workers=%d: compared %d vs %d", workers, got.Compared, base.Compared)
		}
	}
}

// TestPreMatchThresholdMonotonic: lowering δ can only add links.
func TestPreMatchThresholdMonotonic(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	strict := preMatchT(old.Records(), old.Year, new.Records(), new.Year,
		OmegaTwo(0.9), block.DefaultStrategies(), 1)
	loose := preMatchT(old.Records(), old.Year, new.Records(), new.Year,
		OmegaTwo(0.5), block.DefaultStrategies(), 1)
	if len(loose.Links) < len(strict.Links) {
		t.Fatalf("relaxing delta removed links: %d -> %d", len(strict.Links), len(loose.Links))
	}
	looseSims := loose.Sims()
	for p := range strict.Sims() {
		if _, ok := looseSims[p]; !ok {
			t.Errorf("pair %v lost when relaxing delta", p)
		}
	}
}

// TestPreMatchRelaxationFindsAlice: at δ=1 the married Alice is unlinked;
// relaxing the threshold (the core idea of Algorithm 1) links her.
func TestPreMatchRelaxationFindsAlice(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	f := SimFunc{Name: "fn-sex", Delta: 0.6, Matchers: OmegaTwo(0.6).Matchers}
	pre := preMatchT(old.Records(), old.Year, new.Records(), new.Year, f,
		block.DefaultStrategies(), 1)
	if _, ok := pre.Sims()[Pair{Old: "1871_3", New: "1881_7"}]; !ok {
		t.Error("relaxed pre-matching should propose Alice Ashworth -> Alice Smith")
	}
}

func TestPreMatchEmptyInput(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	pre := preMatchT(nil, old.Year, new.Records(), new.Year, NameOnly(1),
		block.DefaultStrategies(), 4)
	if len(pre.Links) != 0 || pre.Compared != 0 {
		t.Errorf("empty old side produced links: %+v", pre)
	}
	// New records still get singleton labels.
	if got := len(viewOf(pre).Labels); got != new.NumRecords() {
		t.Errorf("labels = %d, want %d", got, new.NumRecords())
	}
}
