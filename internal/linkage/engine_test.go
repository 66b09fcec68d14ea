package linkage_test

// Differential tests of the compiled comparison engine against the
// interpreted SimFunc: the two must agree bit-for-bit on every similarity.
// The pipeline-level differentials live in oracle_test.go.

import (
	"context"
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/linkage"
	"censuslink/internal/synth"
)

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
		candidates(t, old, new, block.DefaultStrategies(),
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
		candidates(t, old, new, block.DefaultStrategies(),
			func(o, n *census.Record) {
				oi, _ := eng.Old.Pos(o.ID)
				ni, _ := eng.New.Pos(n.ID)
				want := f.AggSim(o, n)
				got, v := eng.AggSimAtLeast(oi, ni, delta)
				ok := v == compare.Accepted
				if (want >= delta) != ok {
					t.Fatalf("delta=%v: AggSimAtLeast(%s, %s) ok=%v, naive sim=%v", delta, o.ID, n.ID, ok, want)
				}
				if ok && got != want {
					t.Fatalf("delta=%v: accepted sim %v != naive %v for (%s, %s)", delta, got, want, o.ID, n.ID)
				}
			})
	}
}

// candidates calls visit for every blocked candidate pair of old and new.
func candidates(t *testing.T, old, new *census.Dataset, strategies []block.Strategy, visit func(o, n *census.Record)) {
	t.Helper()
	if _, err := linkage.Candidates(context.Background(), old.Records(), old.Year, new.Records(), new.Year,
		strategies, visit); err != nil {
		t.Fatal(err)
	}
}
