package linkage_test

import (
	"context"
	"fmt"

	"censuslink/internal/block"
	"censuslink/internal/linkage"
	"censuslink/internal/paperexample"
)

// ExampleLink runs the paper's running example: the Ashworth and Smith
// families between the 1871 and 1881 censuses.
func ExampleLink() {
	old, new := paperexample.Old(), paperexample.New()
	cfg := linkage.Config{
		Sim:          linkage.NameOnly(1.0), // Fig. 3 pre-matching
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
		panic(err)
	}
	fmt.Printf("%d person links, %d household links\n",
		len(res.RecordLinks), len(res.GroupLinks))
	for _, g := range res.GroupLinks {
		fmt.Printf("%s -> %s\n", g.Old, g.New)
	}
	// Output:
	// 7 person links, 4 household links
	// 1871_a -> 1881_a
	// 1871_a -> 1881_c
	// 1871_b -> 1881_b
	// 1871_b -> 1881_c
}

// ExampleSimFunc_AggSim shows the weighted attribute similarity of Eq. 3.
func ExampleSimFunc_AggSim() {
	old := paperexample.Old()
	f := linkage.NameOnly(0)
	alice := old.Record("1871_3")
	steve := old.Record("1871_8")
	fmt.Printf("%.2f\n", f.AggSim(alice, alice))
	fmt.Printf("%.2f\n", f.AggSim(alice, steve))
	// Output:
	// 1.00
	// 0.22
}
