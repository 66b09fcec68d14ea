// Command tune learns an attribute weighting vector ω from labelled census
// data (the supervised alternative to Table 2's hand-chosen vectors that
// the paper points to via Richards et al.). The two input CSVs must carry
// truth_id columns, e.g. as written by censusgen.
//
// Usage:
//
//	tune -old data/census_1871.csv -new data/census_1881.csv [-delta 0.6]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/linkage"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tune: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the whole command, split from main so tests can drive it with
// explicit arguments and capture stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	oldPath := fs.String("old", "", "older census CSV with truth_id (required)")
	newPath := fs.String("new", "", "newer census CSV with truth_id (required)")
	delta := fs.Float64("delta", 0.6, "match threshold the weights are tuned for")
	rounds := fs.Int("rounds", 40, "maximum coordinate-ascent rounds")
	negRatio := fs.Float64("negatives", 3.0, "non-matches sampled per match")
	seed := fs.Int64("seed", 1, "sampling seed")
	blocking := fs.String("blocking", "", "blocking scheme for training-pair generation: "+strings.Join(linkage.BlockingNames(), ", "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath == "" || *newPath == "" {
		fs.Usage()
		return fmt.Errorf("-old and -new are required")
	}

	oldDS, err := load(*oldPath)
	if err != nil {
		return err
	}
	newDS, err := load(*newPath)
	if err != nil {
		return err
	}
	truth := evaluate.TrueRecordMapping(oldDS, newDS)
	if len(truth) == 0 {
		return fmt.Errorf("no ground truth: the input files carry no shared truth_id values")
	}
	strategies, err := linkage.ParseBlocking(*blocking)
	if err != nil {
		return err
	}
	sample, err := linkage.BuildTrainingSet(context.Background(), oldDS, newDS, truth,
		strategies, *negRatio, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "training sample: %d pairs (%d matches)\n", len(sample), len(truth))

	res, err := linkage.TuneWeights(sample, linkage.OmegaOne(0).Matchers, *delta, *rounds)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "tuned in %d rounds, training F-measure %.3f\n", res.Rounds, res.F1)
	fmt.Fprintln(stdout, "learned weights:")
	for _, w := range linkage.WeightsByAttribute(res.Sim) {
		fmt.Fprintf(stdout, "  %s\n", w)
	}

	// Compare against the paper's hand-chosen vectors on the same sample.
	for _, ref := range []linkage.SimFunc{linkage.OmegaOne(*delta), linkage.OmegaTwo(*delta)} {
		fmt.Fprintf(stdout, "reference %s F-measure: %.3f\n", ref.Name, linkage.EvaluateWeights(sample, ref))
	}
	return nil
}

func load(path string) (*census.Dataset, error) {
	m := regexp.MustCompile(`(1[89]\d\d)`).FindString(filepath.Base(path))
	if m == "" {
		return nil, fmt.Errorf("%s: cannot infer census year from the file name", path)
	}
	year, _ := strconv.Atoi(m)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := census.ReadCSV(f, year)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
