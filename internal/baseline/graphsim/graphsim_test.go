package graphsim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/paperexample"
)

// TestGraphSimRunningExample: the baseline links the two stable household
// pairs but — because of the strict 1:1 constraint on households and the
// pre-computed record mapping — misses the two move links into household c,
// the recall limitation behind Table 7.
func TestGraphSimRunningExample(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	res := mustLink(t, old, new, DefaultConfig())

	gotGroups := map[linkage.GroupPair]bool{}
	for _, g := range res.GroupLinks {
		gotGroups[linkage.GroupPair(g)] = true
	}
	if !gotGroups[linkage.GroupPair{Old: "1871_a", New: "1881_a"}] ||
		!gotGroups[linkage.GroupPair{Old: "1871_b", New: "1881_b"}] {
		t.Errorf("stable household pairs missing: %v", res.GroupLinks)
	}
	if gotGroups[linkage.GroupPair{Old: "1871_a", New: "1881_c"}] ||
		gotGroups[linkage.GroupPair{Old: "1871_b", New: "1881_c"}] {
		t.Errorf("1:1 household constraint should exclude the move links: %v", res.GroupLinks)
	}
	// Strictly fewer than the four true group links: the paper's recall gap.
	if len(res.GroupLinks) >= len(paperexample.TrueGroupMapping()) {
		t.Errorf("GraphSim found %d group links, expected fewer than %d",
			len(res.GroupLinks), len(paperexample.TrueGroupMapping()))
	}
}

// TestGraphSimRecordMappingSelective: the initial record mapping only
// contains high-similarity pairs; Alice (changed surname) is excluded.
func TestGraphSimRecordMappingSelective(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	res := mustLink(t, old, new, DefaultConfig())
	for _, l := range res.RecordLinks {
		if l.Old == "1871_3" {
			t.Errorf("Alice should not be in the selective record mapping: %v", l)
		}
		if l.Sim < DefaultConfig().RecordThreshold {
			t.Errorf("record link below threshold: %v", l)
		}
	}
}

// TestGraphSimGroupsOneToOne: household links are 1:1.
func TestGraphSimGroupsOneToOne(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	res := mustLink(t, old, new, DefaultConfig())
	seenOld, seenNew := map[string]bool{}, map[string]bool{}
	for _, g := range res.GroupLinks {
		if seenOld[g.Old] || seenNew[g.New] {
			t.Fatalf("household linked twice: %v", g)
		}
		seenOld[g.Old] = true
		seenNew[g.New] = true
	}
}

func TestGraphSimDeterminism(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	base := mustLink(t, old, new, DefaultConfig())
	for i := 0; i < 3; i++ {
		if got := mustLink(t, old, new, DefaultConfig()); !reflect.DeepEqual(got, base) {
			t.Fatal("GraphSim output varies between runs")
		}
	}
}

// TestGraphSimGroupThreshold: raising the group threshold filters weak
// household links.
func TestGraphSimGroupThreshold(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	cfg := DefaultConfig()
	cfg.GroupThreshold = 0.99
	res := mustLink(t, old, new, cfg)
	if len(res.GroupLinks) != 0 {
		t.Errorf("threshold 0.99 should reject all households: %v", res.GroupLinks)
	}
}

// mustLink runs the baseline under a background context.
func mustLink(t *testing.T, old, new *census.Dataset, cfg Config) *Result {
	t.Helper()
	res, err := Link(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLinkCancelled: a cancelled context stops the baseline with the
// cancellation instead of a result.
func TestLinkCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Link(ctx, paperexample.Old(), paperexample.New(), DefaultConfig())
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Link on a cancelled context = %v, %v; want no result and context.Canceled", res, err)
	}
}
