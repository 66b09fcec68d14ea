// Comparematchers: configure custom similarity functions — different string
// matchers and weighting vectors — and compare their linkage quality on a
// synthetic census pair; the workflow behind the paper's Table 3, run the
// way a library user would.
//
//	go run ./examples/comparematchers
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/linkage"
	"censuslink/internal/report"
	"censuslink/internal/strsim"
	"censuslink/internal/synth"
)

func main() {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.04, 7), 1871, 1881)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linking %d records (1871) to %d records (1881)\n\n",
		old.NumRecords(), new.NumRecords())

	// Three candidate similarity functions: the paper's ω1 and ω2 (bigram
	// based) and a Jaro-Winkler variant of ω2.
	jw := linkage.SimFunc{
		Name:  "omega2-jarowinkler",
		Delta: 0.7,
		Matchers: []linkage.AttributeMatcher{
			{Attr: census.AttrFirstName, Sim: strsim.JaroWinkler, Weight: 0.4},
			{Attr: census.AttrSex, Sim: strsim.Exact, Weight: 0.2},
			{Attr: census.AttrSurname, Sim: strsim.JaroWinkler, Weight: 0.2},
			{Attr: census.AttrAddress, Sim: strsim.JaroWinkler, Weight: 0.1},
			{Attr: census.AttrOccupation, Sim: strsim.JaroWinkler, Weight: 0.1},
		},
	}
	candidates := []linkage.SimFunc{
		linkage.OmegaOne(0.7),
		linkage.OmegaTwo(0.7),
		jw,
	}

	truthRecords := evaluate.TrueRecordMapping(old, new)
	truthGroups := evaluate.TrueGroupMapping(old, new)

	t := &report.Table{
		Title:  "Linkage quality by similarity function",
		Header: []string{"sim func", "rec P", "rec R", "rec F", "grp P", "grp R", "grp F"},
	}
	for _, f := range candidates {
		cfg := linkage.DefaultConfig()
		cfg.Sim = f
		res, err := linkage.LinkContext(context.Background(), old, new, cfg)
		if err != nil {
			log.Fatal(err)
		}
		rm := evaluate.RecordMetrics(res.RecordLinks, truthRecords)
		gm := evaluate.GroupMetrics(res.GroupLinks, truthGroups)
		t.AddRow(f.Name,
			report.Pct(rm.Precision), report.Pct(rm.Recall), report.Pct(rm.F1),
			report.Pct(gm.Precision), report.Pct(gm.Recall), report.Pct(gm.F1))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
