package temporal

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/paperexample"
)

func TestPersistProb(t *testing.T) {
	if got := persistProb(10, 10); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("persistProb at half-life = %v, want 0.5", got)
	}
	if got := persistProb(10, 0); got != 1 {
		t.Errorf("persistProb at gap 0 = %v, want 1", got)
	}
	if got := persistProb(10, 20); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("persistProb at two half-lives = %v, want 0.25", got)
	}
	if persistProb(0, 5) != 0 {
		t.Error("zero half-life should never persist")
	}
}

func TestScoreForgivesVolatileAttributes(t *testing.T) {
	cfg := DefaultConfig()
	base := &census.Record{FirstName: "alice", Surname: "ashworth",
		Sex: census.SexFemale, Address: "3 mill lane", Occupation: "winder"}
	sameAll := &census.Record{FirstName: "alice", Surname: "ashworth",
		Sex: census.SexFemale, Address: "3 mill lane", Occupation: "winder"}
	changedVolatile := &census.Record{FirstName: "alice", Surname: "ashworth",
		Sex: census.SexFemale, Address: "9 york street", Occupation: "dressmaker"}
	changedStable := &census.Record{FirstName: "martha", Surname: "ashworth",
		Sex: census.SexFemale, Address: "3 mill lane", Occupation: "winder"}

	gap := 10.0
	full := Score(cfg, base, sameAll, gap)
	volatile := Score(cfg, base, changedVolatile, gap)
	stable := Score(cfg, base, changedStable, gap)
	if full <= volatile {
		t.Errorf("full agreement (%v) should beat volatile change (%v)", full, volatile)
	}
	// Changing a stable attribute (first name) must hurt much more than
	// changing the volatile ones.
	if volatile-stable < 0.05 {
		t.Errorf("stable-attribute change should be punished harder: volatile=%v stable=%v",
			volatile, stable)
	}
	// The decay model forgives: with a larger gap the volatile change
	// matters less relative to full agreement.
	fullLong := Score(cfg, base, sameAll, 40)
	volatileLong := Score(cfg, base, changedVolatile, 40)
	if (fullLong - volatileLong) >= (full - volatile) {
		t.Errorf("volatile-change penalty should shrink with the gap: %v vs %v",
			fullLong-volatileLong, full-volatile)
	}
}

func TestTemporalLinkRunningExample(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	links := mustLink(t, old, new, DefaultConfig())
	got := map[string]string{}
	for _, l := range links {
		got[l.Old] = l.New
	}
	// The stable in-place links must be found.
	for _, pair := range [][2]string{
		{"1871_1", "1881_1"}, {"1871_2", "1881_2"}, {"1871_4", "1881_3"},
		{"1871_6", "1881_4"}, {"1871_7", "1881_5"},
	} {
		if got[pair[0]] != pair[1] {
			t.Errorf("stable link %s -> %s missing (got %q)", pair[0], pair[1], got[pair[0]])
		}
	}
	// Steve moved with unchanged name: the decay model can forgive the
	// address change.
	if got["1871_8"] != "1881_6" {
		t.Errorf("Steve -> %q, want 1881_6", got["1871_8"])
	}
	// John Riley died; he must not be linked to either John Ashworth.
	if n, ok := got["1871_5"]; ok {
		t.Errorf("dead John Riley linked to %s", n)
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, l := range links {
		if seen[l.New] {
			t.Fatalf("record %s linked twice", l.New)
		}
		seen[l.New] = true
	}
}

func TestTemporalLinkDeterminism(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	base := mustLink(t, old, new, DefaultConfig())
	for i := 0; i < 3; i++ {
		if got := mustLink(t, old, new, DefaultConfig()); !reflect.DeepEqual(got, base) {
			t.Fatal("temporal baseline not deterministic")
		}
	}
}

// mustLink runs the baseline under a background context.
func mustLink(t *testing.T, old, new *census.Dataset, cfg Config) []linkage.RecordLink {
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
