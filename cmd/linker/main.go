// Command linker links two census CSV files (as produced by censusgen or in
// the same format) and writes the record and group mappings. When the input
// carries truth_id columns, linkage quality is reported as well.
//
// Usage:
//
//	linker -old census_1871.csv -new census_1881.csv \
//	       [-method iterative|oneshot|cl|graphsim] \
//	       [-records records.csv] [-groups groups.csv]
//
// Maintenance mode:
//
//	linker -store snapdir -store-verify
//
// verifies every snapshot in the directory (header, address, checksum,
// payload), quarantines the corrupt ones, removes stale temp litter and
// prints the typed summary — run it after a crash or before trusting a
// replicated snapshot directory.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"

	"censuslink/internal/baseline/collective"
	"censuslink/internal/baseline/graphsim"
	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/report"
	"censuslink/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("linker: ")
	oldPath := flag.String("old", "", "older census CSV (required)")
	newPath := flag.String("new", "", "newer census CSV (required)")
	oldYear := flag.Int("old-year", 0, "older census year (default: parsed from the file name)")
	newYear := flag.Int("new-year", 0, "newer census year (default: parsed from the file name)")
	method := flag.String("method", "iterative", "linkage method: iterative, oneshot, cl or graphsim")
	deltaHigh := flag.Float64("delta-high", 0.7, "upper pre-matching threshold")
	deltaLow := flag.Float64("delta-low", 0.5, "lower pre-matching threshold")
	deltaStep := flag.Float64("delta-step", 0.05, "threshold decrement per iteration")
	alpha := flag.Float64("alpha", 0.2, "record-similarity weight in g_sim")
	beta := flag.Float64("beta", 0.7, "edge-similarity weight in g_sim")
	ageTol := flag.Int("age-tolerance", 3, "age tolerance in years")
	recordsOut := flag.String("records", "", "write the record mapping to this CSV file")
	groupsOut := flag.String("groups", "", "write the group mapping to this CSV file")
	configPath := flag.String("config", "", "load the linkage configuration from this JSON file (overrides the tuning flags)")
	writeConfig := flag.String("write-default-config", "", "write the default configuration as JSON to this file and exit")
	statsOut := flag.String("stats", "", "write a per-iteration JSON run report to this file")
	progress := flag.Bool("progress", false, "print per-iteration progress lines to stderr")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); the -stats report is still written")
	lenient := flag.Bool("lenient", false, "skip bad input rows instead of aborting, printing a data-quality summary to stderr")
	maxBadRows := flag.Int("max-bad-rows", 0, "with -lenient: give up once more than this many rows are skipped (0 = no cap)")
	panicPolicy := flag.String("panic-policy", "fail-fast", "worker panic policy: fail-fast or skip")
	blockingFlag := flag.String("blocking", "", "blocking scheme: "+strings.Join(linkage.BlockingNames(), ", ")+" (empty = the config's choice)")
	storeDir := flag.String("store", "", "persist the linkage result as a content-addressed snapshot in this directory (iterative/oneshot only)")
	incremental := flag.Bool("incremental", false, "with -store: serve a stored snapshot matching this input and configuration instead of recomputing")
	storeVerify := flag.Bool("store-verify", false, "with -store: verify and repair the snapshot directory, print the summary and exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()
	if *pprofAddr != "" {
		if err := obs.ServePprof(*pprofAddr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	var stats *obs.Stats
	if *statsOut != "" || *progress {
		var sink obs.Sink
		if *progress {
			sink = obs.NewTextSink(os.Stderr)
		}
		stats = obs.NewStats(sink)
	}
	if *writeConfig != "" {
		f, err := os.Create(*writeConfig)
		if err != nil {
			log.Fatal(err)
		}
		if err := linkage.WriteConfigSpec(f, linkage.DefaultConfigSpec()); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *writeConfig)
		return
	}
	if *storeVerify {
		if *storeDir == "" {
			log.Fatal("-store-verify requires -store")
		}
		if err := storeVerifyRun(*storeDir, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *oldPath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM and -timeout both cancel the pipeline context; the
	// linkage aborts at its next checkpoint and the -stats report is still
	// flushed below, so an interrupted run keeps its observability data.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	loadOpts := census.LoadOptions{Strict: !*lenient, MaxBadRows: *maxBadRows}

	oldDS := loadCensus(*oldPath, *oldYear, loadOpts)
	newDS := loadCensus(*newPath, *newYear, loadOpts)
	fmt.Printf("loaded %d (%d records) and %d (%d records)\n",
		oldDS.Year, oldDS.NumRecords(), newDS.Year, newDS.NumRecords())

	var recordLinks []linkage.RecordLink
	var groupLinks []linkage.GroupLink
	var sources map[linkage.Pair]linkage.LinkSource
	switch *method {
	case "iterative", "oneshot":
		cfg := linkage.DefaultConfig()
		if *configPath != "" {
			f, err := os.Open(*configPath)
			if err != nil {
				log.Fatal(err)
			}
			spec, err := linkage.ReadConfigSpec(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			cfg, err = spec.Build()
			if err != nil {
				log.Fatal(err)
			}
		} else {
			cfg.DeltaHigh, cfg.DeltaLow, cfg.DeltaStep = *deltaHigh, *deltaLow, *deltaStep
			cfg.Alpha, cfg.Beta = *alpha, *beta
			cfg.AgeTolerance = *ageTol
		}
		// A JSON config may carry its own blocking choice; an explicit
		// -blocking flag wins over it.
		if *blockingFlag != "" {
			strategies, err := linkage.ParseBlocking(*blockingFlag)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Strategies = strategies
		}
		if *method == "oneshot" {
			cfg.DeltaHigh, cfg.DeltaStep = cfg.DeltaLow, 0
		}
		switch *panicPolicy {
		case "fail-fast":
			cfg.Panics = linkage.PanicFailFast
		case "skip":
			cfg.Panics = linkage.PanicSkip
		default:
			log.Fatalf("unknown -panic-policy %q (want fail-fast or skip)", *panicPolicy)
		}
		cfg.Obs = stats
		var snaps *store.Store
		if *storeDir != "" {
			var err error
			if snaps, err = store.Open(*storeDir); err != nil {
				log.Fatal(err)
			}
		} else if *incremental {
			log.Fatal("-incremental requires -store")
		}
		res, err := runLinkage(ctx, oldDS, newDS, cfg, stats, *statsOut, snaps, *incremental)
		if err != nil {
			log.Fatal(err)
		}
		recordLinks, groupLinks, sources = res.RecordLinks, res.GroupLinks, res.Sources
		fmt.Printf("%d iterations, %d remainder record links\n",
			len(res.Iterations), res.RemainderRecordLinks)
	case "cl":
		stop := stats.Stage("baseline_cl")
		var err error
		recordLinks, err = collective.Link(ctx, oldDS, newDS, collective.DefaultConfig())
		stop()
		if err != nil {
			log.Fatal(err)
		}
	case "graphsim":
		stop := stats.Stage("baseline_graphsim")
		res, err := graphsim.Link(ctx, oldDS, newDS, graphsim.DefaultConfig())
		stop()
		if err != nil {
			log.Fatal(err)
		}
		recordLinks, groupLinks = res.RecordLinks, res.GroupLinks
	default:
		log.Fatalf("unknown method %q", *method)
	}
	fmt.Printf("record links: %d, group links: %d\n", len(recordLinks), len(groupLinks))

	if *statsOut != "" {
		writeStats(*statsOut, stats)
	}

	if *recordsOut != "" {
		writeCSV(*recordsOut, []string{"old_record", "new_record", "similarity", "source"},
			func(w *csv.Writer) error {
				for _, l := range recordLinks {
					source := ""
					if src, ok := sources[linkage.Pair{Old: l.Old, New: l.New}]; ok {
						source = fmt.Sprintf("%s@%.2f", src.Kind, src.Delta)
					}
					if err := w.Write([]string{l.Old, l.New,
						strconv.FormatFloat(l.Sim, 'f', 4, 64), source}); err != nil {
						return err
					}
				}
				return nil
			})
	}
	if *groupsOut != "" {
		writeCSV(*groupsOut, []string{"old_household", "new_household"},
			func(w *csv.Writer) error {
				for _, l := range groupLinks {
					if err := w.Write([]string{l.Old, l.New}); err != nil {
						return err
					}
				}
				return nil
			})
	}

	if hasTruth(oldDS) && hasTruth(newDS) {
		rm := evaluate.RecordMetrics(recordLinks, evaluate.TrueRecordMapping(oldDS, newDS))
		t := &report.Table{
			Title:  "Quality vs ground truth",
			Header: []string{"mapping", "precision", "recall", "f-measure", "tp", "fp", "fn"},
		}
		t.AddRow("record", report.Pct(rm.Precision), report.Pct(rm.Recall), report.Pct(rm.F1),
			report.I(rm.TP), report.I(rm.FP), report.I(rm.FN))
		if len(groupLinks) > 0 {
			gm := evaluate.GroupMetrics(groupLinks, evaluate.TrueGroupMapping(oldDS, newDS))
			t.AddRow("group", report.Pct(gm.Precision), report.Pct(gm.Recall), report.Pct(gm.F1),
				report.I(gm.TP), report.I(gm.FP), report.I(gm.FN))
		}
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}

		// Why were links missed? Break the false negatives down by cause.
		b := evaluate.AnalyzeErrors(recordLinks, oldDS, newDS)
		et := &report.Table{
			Title:  "Missed links by cause",
			Header: []string{"cause", "count"},
		}
		for c := evaluate.CauseMissingName; c <= evaluate.CauseOther; c++ {
			if n := b.FalseNegatives[c]; n > 0 {
				et.AddRow(c.String(), report.I(n))
			}
		}
		if len(et.Rows) > 0 {
			fmt.Println()
			if err := et.Render(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// loadCensus reads a census CSV under the given load policy; the year is
// parsed from the file name when not given explicitly. A lenient load that
// skipped or repaired rows prints the data-quality summary to stderr.
// storeVerifyRun is the -store-verify maintenance mode: heal the snapshot
// directory and print the typed summary. Corrupt snapshots are a success
// (found, quarantined, reported); only the directory itself failing is an
// error.
func storeVerifyRun(dir string, out io.Writer) error {
	snaps, err := store.Open(dir)
	if err != nil {
		return err
	}
	rep, err := snaps.Repair()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "store %s: %s\n", snaps.Dir(), rep.Summary())
	for _, p := range rep.Problems {
		suffix := ""
		if p.Quarantined {
			suffix = " (quarantined)"
		}
		fmt.Fprintf(out, "  %s: %s%s\n", p.File, p.Reason, suffix)
	}
	return nil
}

func loadCensus(path string, year int, opts census.LoadOptions) *census.Dataset {
	if year == 0 {
		m := regexp.MustCompile(`(1[89]\d\d)`).FindString(filepath.Base(path))
		if m == "" {
			log.Fatalf("%s: cannot infer census year, pass -old-year/-new-year", path)
		}
		year, _ = strconv.Atoi(m)
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	d, rep, err := census.ReadCSVOptions(f, year, opts)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if rep != nil && !rep.Clean() {
		fmt.Fprintf(os.Stderr, "%s:\n%s", path, rep.Summary())
	}
	return d
}

// runLinkage runs the context-aware linkage and, when it fails (timeout,
// SIGINT, worker panic), still writes the -stats report before returning so
// an aborted run keeps its partial observability data. With a snapshot
// store, -incremental first tries the stored result for this exact
// (configuration, input datasets) address — zero comparisons on a hit — and
// every computed result is written back (write-through).
func runLinkage(ctx context.Context, oldDS, newDS *census.Dataset, cfg linkage.Config,
	stats *obs.Stats, statsPath string, snaps *store.Store, incremental bool) (*linkage.Result, error) {
	var cfgHash string
	if snaps != nil {
		cfgHash = cfg.Fingerprint()
	}
	if snaps != nil && incremental {
		res, err := snaps.LoadResult(cfgHash, oldDS, newDS)
		switch {
		case err != nil:
			stats.Add(obs.StoreCorrupt, 1)
			log.Printf("store: %v (recomputing)", err)
		case res != nil:
			stats.Add(obs.StoreHits, 1)
			fmt.Printf("reused snapshot from %s\n", snaps.Dir())
			return res, nil
		default:
			stats.Add(obs.StoreMisses, 1)
		}
	}
	res, err := linkage.LinkContext(ctx, oldDS, newDS, cfg)
	if err != nil {
		if statsPath != "" {
			writeStats(statsPath, stats)
		}
		return res, err
	}
	if snaps != nil {
		if serr := snaps.SaveResult(cfgHash, oldDS, newDS, res); serr != nil {
			return nil, serr
		}
		fmt.Printf("stored snapshot in %s\n", snaps.Dir())
	}
	return res, nil
}

// writeStats finalizes the collector and writes its JSON run report.
func writeStats(path string, stats *obs.Stats) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteReport(f, stats.Done()); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func hasTruth(d *census.Dataset) bool {
	for _, r := range d.Records() {
		if r.TruthID != "" {
			return true
		}
	}
	return false
}

func writeCSV(path string, header []string, body func(*csv.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		log.Fatal(err)
	}
	if err := body(w); err != nil {
		log.Fatal(err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
