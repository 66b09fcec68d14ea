package linkage

import (
	"context"
	"fmt"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/paperexample"
	"censuslink/internal/strsim"
)

// freqDataset builds a dataset with a skewed surname distribution: many
// Smiths, one Thistlethwaite.
func freqDataset(t *testing.T, year int) *census.Dataset {
	t.Helper()
	d := census.NewDataset(year)
	for i := 0; i < 9; i++ {
		if err := d.AddRecord(&census.Record{
			ID: fmt.Sprintf("%d_s%d", year, i), HouseholdID: fmt.Sprintf("%d_h%d", year, i),
			FirstName: "john", Surname: "smith", Role: census.RoleHead,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddRecord(&census.Record{
		ID: fmt.Sprintf("%d_t", year), HouseholdID: fmt.Sprintf("%d_ht", year),
		FirstName: "amos", Surname: "thistlethwaite", Role: census.RoleHead,
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFrequencyTableDamp(t *testing.T) {
	d := freqDataset(t, 1871)
	table := NewFrequencyTable(census.AttrSurname, 0.4, d)
	if got := table.damp("thistlethwaite"); got != 1 {
		t.Errorf("unique value damp = %v, want 1", got)
	}
	if got := table.damp("unseen"); got != 1 {
		t.Errorf("unseen value damp = %v, want 1", got)
	}
	// The most frequent value receives the full dampening: 1 - 0.4.
	if got := table.damp("smith"); got != 0.6 {
		t.Errorf("most frequent damp = %v, want 0.6", got)
	}
	// Case-insensitive.
	if table.damp("SMITH") != table.damp("smith") {
		t.Error("damp not case-insensitive")
	}
}

func TestFrequencyScaleOrdersEvidence(t *testing.T) {
	d := freqDataset(t, 1871)
	table := NewFrequencyTable(census.AttrSurname, 0.4, d)
	scaled := table.Scale(strsim.Bigram)
	smith := scaled("smith", "smith")
	rare := scaled("thistlethwaite", "thistlethwaite")
	if smith >= rare {
		t.Errorf("frequent agreement (%v) should score below rare agreement (%v)", smith, rare)
	}
	if rare != 1 {
		t.Errorf("rare agreement = %v, want 1", rare)
	}
	if scaled("smith", "walker") != 0 {
		t.Error("zero similarity must stay zero")
	}
}

func TestFrequencyScaledSim(t *testing.T) {
	old, new := freqDataset(t, 1871), freqDataset(t, 1881)
	base := NameOnly(0.5)
	scaled := FrequencyScaledSim(base, 0.4, []census.Attribute{census.AttrSurname}, old, new)
	if scaled.Name != "name-only+freq" {
		t.Errorf("name = %q", scaled.Name)
	}
	smithPair := [2]*census.Record{
		{FirstName: "john", Surname: "smith"},
		{FirstName: "john", Surname: "smith"},
	}
	rarePair := [2]*census.Record{
		{FirstName: "john", Surname: "thistlethwaite"},
		{FirstName: "john", Surname: "thistlethwaite"},
	}
	if base.AggSim(smithPair[0], smithPair[1]) != base.AggSim(rarePair[0], rarePair[1]) {
		t.Fatal("base function should not distinguish the pairs")
	}
	if scaled.AggSim(smithPair[0], smithPair[1]) >= scaled.AggSim(rarePair[0], rarePair[1]) {
		t.Error("scaled function should favour the rare-name pair")
	}
	// The original SimFunc is not mutated.
	if base.AggSim(smithPair[0], smithPair[1]) != 1 {
		t.Error("base SimFunc mutated by FrequencyScaledSim")
	}
}

func TestFrequencyScaledLinkStillWorks(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	cfg := runningExampleConfig()
	cfg.Sim = FrequencyScaledSim(cfg.Sim, 0.2,
		[]census.Attribute{census.AttrSurname}, old, new)
	// The pre-matching threshold must drop slightly: exact matches on
	// frequent names no longer reach 1.0.
	cfg.Sim.Delta = 0.85
	cfg.DeltaHigh, cfg.DeltaLow = 0.85, 0.85
	res, err := LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, l := range res.RecordLinks {
		got[l.Old] = l.New
	}
	for o, n := range paperexample.TrueRecordMapping() {
		if got[o] != n {
			t.Errorf("link %s -> %s missing under frequency scaling (got %q)", o, n, got[o])
		}
	}
}
