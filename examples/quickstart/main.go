// Quickstart: link the paper's running example (Fig. 1) — two censuses of
// 1871 and 1881 with the Ashworth, Smith and Riley families — and print the
// resulting record and group mappings.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"censuslink/internal/block"
	"censuslink/internal/linkage"
	"censuslink/internal/paperexample"
)

func main() {
	old, new := paperexample.Old(), paperexample.New()
	fmt.Printf("1871: %d persons in %d households\n", old.NumRecords(), old.NumHouseholds())
	fmt.Printf("1881: %d persons in %d households\n\n", new.NumRecords(), new.NumHouseholds())

	// The configuration of the paper's walk-through: name-only pre-matching
	// at threshold 1 (Fig. 3), group-selection weights (0.2, 0.7), and a
	// relaxed name-only pass for the leftover records.
	cfg := linkage.Config{
		Sim:          linkage.NameOnly(1.0),
		DeltaHigh:    1.0,
		DeltaLow:     1.0,
		Alpha:        0.2,
		Beta:         0.7,
		AgeTolerance: 3,
		Remainder:    linkage.NameOnly(0.6),
		Strategies:   block.DefaultStrategies(),
		StopOnEmpty:  true,
	}
	res, err := linkage.LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Record mapping (person links):")
	for _, l := range res.RecordLinks {
		o, n := old.Record(l.Old), new.Record(l.New)
		fmt.Printf("  %s %s (%d, %s) -> %s %s (%d, %s)   sim=%.2f\n",
			o.FirstName, o.Surname, o.Age, o.ID,
			n.FirstName, n.Surname, n.Age, n.ID, l.Sim)
	}

	fmt.Println("\nGroup mapping (household links):")
	for _, g := range res.GroupLinks {
		fmt.Printf("  %s -> %s\n", g.Old, g.New)
	}

	// Check against the paper's expected outcome: seven person links and
	// four household links (Section 2).
	want := paperexample.TrueRecordMapping()
	correct := 0
	for _, l := range res.RecordLinks {
		if want[l.Old] == l.New {
			correct++
		}
	}
	fmt.Printf("\n%d of %d person links match the paper's ground truth; "+
		"%d household links (paper: 4)\n", correct, len(want), len(res.GroupLinks))
}
