// Migrationstudy: the Section 5.4 workflow as a library user — generate a
// district, link all censuses, and study household dynamics: evolution
// pattern volumes per decade, how long households persist, and how
// connected the district's family network is.
//
//	go run ./examples/migrationstudy
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/report"
	"censuslink/internal/synth"
)

func main() {
	series, err := synth.Generate(synth.TestConfig(0.04, 42))
	if err != nil {
		log.Fatal(err)
	}

	results, err := linkage.LinkSeriesOpts(context.Background(), series, linkage.DefaultConfig(), linkage.SeriesOptions{})
	if err != nil {
		log.Fatal(err)
	}
	graph, err := evolution.BuildGraph(series, results)
	if err != nil {
		log.Fatal(err)
	}

	// Decade-by-decade dynamics (the paper's Fig. 6).
	dynamics := &report.Table{
		Title:  "Household dynamics per decade",
		Header: []string{"pair", "preserved", "new", "gone", "moves", "splits", "merges"},
	}
	for i, counts := range graph.PatternCounts() {
		a := graph.Analyses[i]
		dynamics.AddRow(fmt.Sprintf("%d-%d", a.OldYear, a.NewYear),
			report.I(counts[evolution.PatternPreserve]),
			report.I(counts[evolution.PatternAdd]),
			report.I(counts[evolution.PatternRemove]),
			report.I(counts[evolution.PatternMove]),
			report.I(counts[evolution.PatternSplit]),
			report.I(counts[evolution.PatternMerge]))
	}
	if err := dynamics.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Persistence (the paper's Table 8): how many households survive k
	// decades in place?
	fmt.Println()
	persistence := &report.Table{
		Title:  "Household persistence",
		Header: []string{"years in place", "households"},
	}
	for k := 1; k < len(series.Datasets); k++ {
		persistence.AddRow(report.I(10*k), report.I(graph.PreserveChains(k)))
	}
	if err := persistence.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Lifecycle statistics: how long does a household stay together?
	fmt.Println()
	curve := graph.SurvivalCurve()
	fmt.Printf("household survival: ")
	for k, frac := range curve {
		fmt.Printf("%d0y %.0f%%  ", k+1, frac*100)
	}
	fmt.Printf("\nmean time in place: %.1f decades\n", graph.MeanLifespan())

	// Connectedness of the family network across 50 years.
	fmt.Println()
	sizes := graph.ConnectedComponents()
	size, share := graph.LargestComponentShare()
	fmt.Printf("evolution graph: %d components over %d household vertices\n",
		len(sizes), total(sizes))
	fmt.Printf("largest component: %d households (%.1f%%) — families connected across 1851-1901\n",
		size, share*100)

	// Individual-level summary over the whole period.
	fmt.Println()
	for i, a := range graph.Analyses {
		_ = i
		fmt.Printf("%d-%d: %d persons traced, %d newly appeared, %d disappeared\n",
			a.OldYear, a.NewYear, len(a.PreservedRecords), len(a.AddedRecords), len(a.RemovedRecords))
	}
}

func total(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
