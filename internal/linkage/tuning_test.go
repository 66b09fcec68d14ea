package linkage

import (
	"context"
	"strings"
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/paperexample"
	"censuslink/internal/strsim"
)

// syntheticSample builds a training set where ONLY the first name is
// informative: matches agree on it, non-matches never do, while surname
// agreement is random noise.
func syntheticSample() []TrainingPair {
	mk := func(fn, sn string) *census.Record {
		return &census.Record{FirstName: fn, Surname: sn}
	}
	var out []TrainingPair
	firsts := []string{"john", "mary", "thomas", "sarah", "william", "ellen"}
	surnames := []string{"ashworth", "smith"}
	for i, fn := range firsts {
		sn := surnames[i%2]
		// Match: same first name, surname agreeing half the time.
		out = append(out, TrainingPair{
			Old: mk(fn, sn), New: mk(fn, surnames[(i/2)%2]), Match: true,
		})
		// Non-match: different first name, surname agreeing half the time.
		out = append(out, TrainingPair{
			Old: mk(fn, sn), New: mk(firsts[(i+1)%len(firsts)], surnames[(i+1)%2]), Match: false,
		})
	}
	return out
}

func tuningMatchers() []AttributeMatcher {
	return []AttributeMatcher{
		{Attr: census.AttrFirstName, Sim: strsim.Bigram},
		{Attr: census.AttrSurname, Sim: strsim.Bigram},
	}
}

func TestTuneWeightsShiftsToInformativeAttribute(t *testing.T) {
	// At threshold 0.75, uniform weights miss the matches whose surnames
	// disagree; only shifting weight to the first name separates the
	// sample perfectly.
	res, err := TuneWeights(syntheticSample(), tuningMatchers(), 0.75, 40)
	if err != nil {
		t.Fatal(err)
	}
	var fnWeight, snWeight float64
	for _, m := range res.Sim.Matchers {
		switch m.Attr {
		case census.AttrFirstName:
			fnWeight = m.Weight
		case census.AttrSurname:
			snWeight = m.Weight
		}
	}
	if fnWeight <= snWeight {
		t.Errorf("tuner should favour first name: fn=%.2f sn=%.2f", fnWeight, snWeight)
	}
	if res.F1 < 0.99 {
		t.Errorf("perfectly separable sample should reach F1 ~1, got %.3f", res.F1)
	}
	if err := res.Sim.Validate(); err != nil {
		t.Errorf("tuned SimFunc invalid: %v", err)
	}
}

func TestTuneWeightsErrors(t *testing.T) {
	if _, err := TuneWeights(nil, tuningMatchers(), 0.5, 10); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := TuneWeights(syntheticSample(), nil, 0.5, 10); err == nil {
		t.Error("no matchers accepted")
	}
}

func TestTuneWeightsBeatsUniformOnRunningExample(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	truth := map[Pair]bool{}
	for o, n := range paperexample.TrueRecordMapping() {
		truth[Pair{Old: o, New: n}] = true
	}
	sample, err := BuildTrainingSet(context.Background(), old, new, truth, block.DefaultStrategies(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	matchers := OmegaOne(0).Matchers
	res, err := TuneWeights(sample, matchers, 0.6, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Score the uniform ω1 on the same sample for comparison.
	uniform, err := TuneWeights(sample, matchers, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.F1+1e-9 < uniform.F1 {
		t.Errorf("tuned F %.3f below starting point %.3f", res.F1, uniform.F1)
	}
}

func TestBuildTrainingSet(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	truth := map[Pair]bool{}
	for o, n := range paperexample.TrueRecordMapping() {
		truth[Pair{Old: o, New: n}] = true
	}
	all, err := BuildTrainingSet(context.Background(), old, new, truth, block.DefaultStrategies(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for _, p := range all {
		if p.Match {
			matches++
		}
	}
	// All seven true pairs are blocked candidates in the running example.
	if matches != 7 {
		t.Errorf("matches in sample = %d, want 7", matches)
	}
	if len(all) <= matches {
		t.Error("sample should include non-matches")
	}
	// Down-sampling caps the negatives.
	capped, err := BuildTrainingSet(context.Background(), old, new, truth, block.DefaultStrategies(), 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	negatives := len(capped) - matches
	if negatives > matches {
		t.Errorf("negativeRatio 1.0 kept %d negatives for %d matches", negatives, matches)
	}
	// Determinism.
	again, err := BuildTrainingSet(context.Background(), old, new, truth, block.DefaultStrategies(), 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(capped) {
		t.Error("training set not deterministic")
	}
}

func TestWeightsByAttribute(t *testing.T) {
	out := WeightsByAttribute(OmegaTwo(0))
	if len(out) != 5 {
		t.Fatalf("entries = %d", len(out))
	}
	if !strings.Contains(out[0], "first name=0.40") {
		t.Errorf("first entry = %q", out[0])
	}
}

func TestEvaluateWeights(t *testing.T) {
	sample := syntheticSample()
	// A tuned function must score at least as well as the uniform start.
	res, err := TuneWeights(sample, tuningMatchers(), 0.75, 40)
	if err != nil {
		t.Fatal(err)
	}
	uniform := SimFunc{Delta: 0.75, Matchers: []AttributeMatcher{
		{Attr: census.AttrFirstName, Sim: strsim.Bigram, Weight: 0.5},
		{Attr: census.AttrSurname, Sim: strsim.Bigram, Weight: 0.5},
	}}
	if got := EvaluateWeights(sample, res.Sim); got < EvaluateWeights(sample, uniform) {
		t.Errorf("tuned F %.3f below uniform %.3f", got, EvaluateWeights(sample, uniform))
	}
	// Consistency: EvaluateWeights of the tuned function matches TuneResult.F1.
	if got := EvaluateWeights(sample, res.Sim); got != res.F1 {
		t.Errorf("EvaluateWeights %.4f != TuneResult.F1 %.4f", got, res.F1)
	}
	if EvaluateWeights(nil, uniform) != 0 {
		t.Error("empty sample should score 0")
	}
}
