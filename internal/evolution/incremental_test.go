package evolution

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/synth"
)

// linkedSeries generates a synthetic multi-year series and links every pair.
func linkedSeries(t *testing.T, scale float64, seed int64) (*census.Series, []*linkage.Result) {
	t.Helper()
	series, err := synth.Generate(synth.TestConfig(scale, seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Datasets) < 4 {
		t.Fatalf("need >= 4 census years for a multi-append differential, got %d", len(series.Datasets))
	}
	results, err := linkage.LinkSeriesOpts(context.Background(), series, linkage.DefaultConfig(), linkage.SeriesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return series, results
}

// assertGraphsEqual compares every piece of graph state, exported and not,
// plus the derived analyses the API serves.
func assertGraphsEqual(t *testing.T, inc, full *Graph, label string) {
	t.Helper()
	if !reflect.DeepEqual(inc.Years, full.Years) {
		t.Fatalf("%s: Years = %v, want %v", label, inc.Years, full.Years)
	}
	if !reflect.DeepEqual(inc.Analyses, full.Analyses) {
		t.Errorf("%s: pair analyses differ", label)
	}
	if !reflect.DeepEqual(inc.GroupEdges, full.GroupEdges) {
		t.Errorf("%s: group edges differ", label)
	}
	if !reflect.DeepEqual(inc.RecordEdges, full.RecordEdges) {
		t.Errorf("%s: record edges differ", label)
	}
	if !reflect.DeepEqual(inc.preserveNext, full.preserveNext) {
		t.Errorf("%s: preserve chains differ", label)
	}
	if !reflect.DeepEqual(inc.households, full.households) {
		t.Errorf("%s: household index differs", label)
	}
	if !reflect.DeepEqual(inc.PatternCounts(), full.PatternCounts()) {
		t.Errorf("%s: pattern counts differ", label)
	}
	if !reflect.DeepEqual(inc.ConnectedComponents(), full.ConnectedComponents()) {
		t.Errorf("%s: connected components differ", label)
	}
	if !reflect.DeepEqual(inc.SurvivalCurve(), full.SurvivalCurve()) {
		t.Errorf("%s: survival curves differ", label)
	}
}

// TestAppendYearDifferential is the tentpole acceptance gate: a graph grown
// by successive single-year appends — with timelines extended incrementally
// at each step — must be deep-equal (analyses, edges, chains, pattern
// counts, lifecycles, timelines) to a from-scratch rebuild at every length.
// make check runs this under -race.
func TestAppendYearDifferential(t *testing.T) {
	series, results := linkedSeries(t, 0.02, 17)

	// Seed the incremental graph with the first pair only.
	inc, err := BuildGraph(census.NewSeries(series.Datasets[:2]...), results[:1])
	if err != nil {
		t.Fatal(err)
	}
	timelines := inc.PersonTimelines(1)

	for n := 3; n <= len(series.Datasets); n++ {
		last, next := series.Datasets[n-2], series.Datasets[n-1]
		if err := inc.AppendYear(last, next, results[n-2]); err != nil {
			t.Fatalf("append %d: %v", next.Year, err)
		}
		timelines = inc.ExtendTimelines(timelines)

		full, err := BuildGraph(census.NewSeries(series.Datasets[:n]...), results[:n-1])
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("through %d", next.Year)
		assertGraphsEqual(t, inc, full, label)
		if want := full.PersonTimelines(1); !reflect.DeepEqual(timelines, want) {
			t.Errorf("%s: incremental timelines differ from rebuild (%d vs %d)",
				label, len(timelines), len(want))
		}
	}
}

// TestAppendYearValidation: out-of-order or mismatched appends must be
// rejected without mutating the graph.
func TestAppendYearValidation(t *testing.T) {
	series, results := linkedSeries(t, 0.01, 5)
	g, err := BuildGraph(census.NewSeries(series.Datasets[:2]...), results[:1])
	if err != nil {
		t.Fatal(err)
	}
	yearsBefore := append([]int(nil), g.Years...)

	// Wrong last dataset (not the graph's final year).
	if err := g.AppendYear(series.Datasets[0], series.Datasets[2], results[1]); err == nil {
		t.Error("append with mismatched last dataset should fail")
	}
	// New year not after the end.
	if err := g.AppendYear(series.Datasets[1], series.Datasets[0], results[0]); err == nil {
		t.Error("append of an earlier year should fail")
	}
	if !reflect.DeepEqual(g.Years, yearsBefore) {
		t.Errorf("failed appends mutated Years: %v", g.Years)
	}
}

// TestCloneIsolation: appending to a clone must leave the original graph
// (and timelines derived from it) untouched — the server swaps graphs under
// concurrent readers.
func TestCloneIsolation(t *testing.T) {
	series, results := linkedSeries(t, 0.01, 9)
	n := len(series.Datasets)
	orig, err := BuildGraph(census.NewSeries(series.Datasets[:n-1]...), results[:n-2])
	if err != nil {
		t.Fatal(err)
	}
	origTimelines := orig.PersonTimelines(1)
	yearsBefore := append([]int(nil), orig.Years...)
	edgesBefore := len(orig.GroupEdges)
	chainsBefore := orig.PreserveChains(1)
	tlCopy := make([]Timeline, len(origTimelines))
	copy(tlCopy, origTimelines)

	c := orig.Clone()
	if err := c.AppendYear(series.Datasets[n-2], series.Datasets[n-1], results[n-2]); err != nil {
		t.Fatal(err)
	}
	extended := c.ExtendTimelines(origTimelines)

	if !reflect.DeepEqual(orig.Years, yearsBefore) {
		t.Errorf("clone append mutated original Years: %v", orig.Years)
	}
	if len(orig.GroupEdges) != edgesBefore {
		t.Errorf("clone append grew original GroupEdges: %d -> %d", edgesBefore, len(orig.GroupEdges))
	}
	if got := orig.PreserveChains(1); got != chainsBefore {
		t.Errorf("clone append changed original preserve chains: %d -> %d", chainsBefore, got)
	}
	if !reflect.DeepEqual(origTimelines, tlCopy) {
		t.Error("ExtendTimelines mutated the input timelines")
	}
	if want := c.PersonTimelines(1); !reflect.DeepEqual(extended, want) {
		t.Error("clone's extended timelines differ from a recompute")
	}
	full, err := BuildGraph(series, results)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, c, full, "clone+append")
}
