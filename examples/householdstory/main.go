// Householdstory: generate a small synthetic district, link all six
// censuses 1851-1901, and follow the longest-preserved households through
// the evolution graph, printing each one's member roster decade by decade —
// the kind of family reconstitution the paper's Section 4.2 motivates.
//
//	go run ./examples/householdstory
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"censuslink/internal/census"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/synth"
)

func main() {
	series, err := synth.Generate(synth.TestConfig(0.03, 1901))
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

	// Follow preserve_G edges from every 1851 household and keep the
	// longest chains.
	type chain struct {
		vertices []evolution.GroupVertex
	}
	next := preserveSuccessors(graph)
	var chains []chain
	first := series.Datasets[0]
	for _, h := range first.Households() {
		c := chain{vertices: []evolution.GroupVertex{{Year: first.Year, Household: h.ID}}}
		for {
			succ, ok := next[c.vertices[len(c.vertices)-1]]
			if !ok {
				break
			}
			c.vertices = append(c.vertices, succ)
		}
		chains = append(chains, c)
	}
	sort.SliceStable(chains, func(i, j int) bool {
		return len(chains[i].vertices) > len(chains[j].vertices)
	})

	shown := 0
	for _, c := range chains {
		if len(c.vertices) < 4 || shown == 3 {
			break
		}
		shown++
		head := headName(series, c.vertices[0])
		fmt.Printf("=== The household of %s: preserved %d decades ===\n",
			head, len(c.vertices)-1)
		for _, v := range c.vertices {
			d := series.Dataset(v.Year)
			hh := d.Household(v.Household)
			var members []string
			for _, m := range d.Members(hh) {
				members = append(members, fmt.Sprintf("%s %s (%s, %d)",
					m.FirstName, m.Surname, m.Role, m.Age))
			}
			fmt.Printf("%d  %-24s %s\n", v.Year, hh.Address, strings.Join(members, "; "))
		}
		fmt.Println()
	}
	if shown == 0 {
		fmt.Println("no household preserved over 3+ decades in this small sample; try a larger -scale")
	}
}

// preserveSuccessors extracts the preserve_G successor map from the graph's
// typed edges.
func preserveSuccessors(g *evolution.Graph) map[evolution.GroupVertex]evolution.GroupVertex {
	next := make(map[evolution.GroupVertex]evolution.GroupVertex)
	for _, e := range g.GroupEdges {
		if e.Pattern == evolution.PatternPreserve {
			next[e.From] = e.To
		}
	}
	return next
}

func headName(series *census.Series, v evolution.GroupVertex) string {
	d := series.Dataset(v.Year)
	if head := d.Head(d.Household(v.Household)); head != nil {
		return head.FirstName + " " + head.Surname
	}
	return v.Household
}
