// Command evolve runs the full evolution analysis of Section 5.4 over a
// directory of census CSV files (census_<year>.csv, as written by
// censusgen): it links every successive pair, counts the group evolution
// patterns per decade (Fig. 6), reports the preserve-duration distribution
// (Table 8) and the largest connected component of the evolution graph.
//
// Usage:
//
//	evolve -dir data/ [-append census_1901.csv]
//
// With -append, the named census joins an already-linked series through the
// append-only path: only the (last year, new year) pair is linked (reusing a
// -store snapshot when one matches) and the evolution graph, pattern counts
// and person timelines are extended in place — the arrival cost of one new
// census is one pair linkage, not a series relink.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"censuslink/internal/census"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/report"
	"censuslink/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evolve: ")
	dir := flag.String("dir", ".", "directory containing census_<year>.csv files")
	dot := flag.String("dot", "", "also write the evolution graph in Graphviz DOT format to this file")
	statsOut := flag.String("stats", "", "write a JSON run report to this file (also on abort)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); the -stats report is still written")
	lenient := flag.Bool("lenient", false, "skip bad input rows instead of aborting, printing a data-quality summary to stderr")
	maxBadRows := flag.Int("max-bad-rows", 0, "with -lenient: give up once more than this many rows are skipped per file (0 = no cap)")
	storeDir := flag.String("store", "", "persist per-pair linkage results as snapshots in this directory (write-through)")
	incremental := flag.Bool("incremental", false, "with -store: skip year pairs whose snapshot already matches this input and configuration")
	pairWorkers := flag.Int("pair-workers", 1, "link up to this many year pairs concurrently")
	blocking := flag.String("blocking", "", "blocking scheme: "+strings.Join(linkage.BlockingNames(), ", "))
	appendPath := flag.String("append", "", "append this census CSV to the linked series via the incremental pair-append path")
	appendYear := flag.Int("append-year", 0, "census year of the -append file (0 = derive from its census_<year>.csv name)")
	flag.Parse()

	// SIGINT/SIGTERM and -timeout cancel the shared context; the series
	// linkage and the graph build abort at their next checkpoint.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var stats *obs.Stats
	if *statsOut != "" || *incremental {
		// Incremental runs need the collector even without -stats: the
		// store hit/miss counters feed the reuse summary printed below.
		stats = obs.NewStats(nil)
	}
	// fail flushes the run report before exiting so an interrupted run still
	// keeps the observability data gathered up to the abort.
	fail := func(err error) {
		if *statsOut != "" {
			writeStats(*statsOut, stats)
		}
		log.Fatal(err)
	}

	series, reports, err := census.ReadSeriesDirOptions(*dir,
		census.LoadOptions{Strict: !*lenient, MaxBadRows: *maxBadRows})
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range reports {
		if !rep.Clean() {
			fmt.Fprintf(os.Stderr, "%s:\n%s", census.SeriesFileName(rep.Year), rep.Summary())
		}
	}
	if len(series.Datasets) < 2 {
		log.Fatalf("need at least two censuses in %s, found %d", *dir, len(series.Datasets))
	}
	fmt.Printf("loaded %d censuses: %v\n\n", len(series.Datasets), series.Years())

	cfg := linkage.DefaultConfig()
	cfg.Obs = stats
	if *blocking != "" {
		strategies, err := linkage.ParseBlocking(*blocking)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Strategies = strategies
	}
	opts := linkage.SeriesOptions{Incremental: *incremental, PairWorkers: *pairWorkers}
	if *storeDir != "" {
		snaps, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		opts.Store = snaps
	} else if *incremental {
		log.Fatal("-incremental requires -store")
	}
	results, err := linkage.LinkSeriesOpts(ctx, series, cfg, opts)
	if err != nil {
		// Completed pairs are checkpointed in the store (with -store), so a
		// re-run resumes instead of starting over; say so.
		var se *linkage.SeriesError
		if errors.As(err, &se) && opts.Store != nil && *incremental {
			log.Printf("%d of %d pairs are checkpointed in %s; re-run to resume", se.Completed, se.Pairs, *storeDir)
		}
		fail(err)
	}
	if *incremental {
		fmt.Printf("store: %d pairs reused, %d computed\n",
			stats.Total(obs.StoreHits), stats.Total(obs.StoreMisses)+stats.Total(obs.StoreCorrupt))
	}
	for i, pair := range series.Pairs() {
		fmt.Printf("linked %d-%d: %d record links, %d group links\n",
			pair[0].Year, pair[1].Year, len(results[i].RecordLinks), len(results[i].GroupLinks))
	}
	graph, err2 := evolution.BuildGraphContext(ctx, series, results, stats)
	if err2 != nil {
		fail(err2)
	}

	// -append: the new census arrives as an event. Link only the final pair
	// and extend the graph and timelines in place; everything printed below
	// covers the appended year exactly as a full relink would.
	if *appendPath != "" {
		next, err := readAppend(*appendPath, *appendYear,
			census.LoadOptions{Strict: !*lenient, MaxBadRows: *maxBadRows})
		if err != nil {
			fail(err)
		}
		prev := graph.PersonTimelines(2)
		res, err := linkage.LinkAppend(ctx, series, next, cfg, opts)
		if err != nil {
			fail(err)
		}
		last := series.Datasets[len(series.Datasets)-1]
		if err := graph.AppendYear(last, next, res); err != nil {
			fail(err)
		}
		extended := graph.ExtendTimelines(prev)
		series = census.NewSeries(append(append([]*census.Dataset{}, series.Datasets...), next)...)
		fmt.Printf("appended %d-%d: %d record links, %d group links, %d person timelines\n",
			last.Year, next.Year, len(res.RecordLinks), len(res.GroupLinks), len(extended))
	}
	if *statsOut != "" {
		writeStats(*statsOut, stats)
	}

	fmt.Println()
	patterns := &report.Table{
		Title:  "Group evolution patterns per census pair",
		Header: []string{"pair", "preserve_G", "add_G", "remove_G", "move", "split", "merge"},
	}
	for i, counts := range graph.PatternCounts() {
		a := graph.Analyses[i]
		patterns.AddRow(fmt.Sprintf("%d-%d", a.OldYear, a.NewYear),
			report.I(counts[evolution.PatternPreserve]),
			report.I(counts[evolution.PatternAdd]),
			report.I(counts[evolution.PatternRemove]),
			report.I(counts[evolution.PatternMove]),
			report.I(counts[evolution.PatternSplit]),
			report.I(counts[evolution.PatternMerge]))
	}
	if err := patterns.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	chains := &report.Table{
		Title:  "Preserved households per interval",
		Header: []string{"interval (years)", "count"},
	}
	gap := series.Years()[1] - series.Years()[0]
	for k := 1; k < len(series.Datasets); k++ {
		chains.AddRow(report.I(gap*k), report.I(graph.PreserveChains(k)))
	}
	size, share := graph.LargestComponentShare()
	chains.Note = fmt.Sprintf("largest connected component: %d household vertices (%.1f%%)",
		size, share*100)
	if err := chains.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			log.Fatal(err)
		}
		if err := graph.WriteDOT(f, "evolution"); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (render with: dot -Tsvg %s)\n", *dot, *dot)
	}
}

// readAppend loads the census CSV an -append run feeds the incremental
// path, deriving the year from the canonical census_<year>.csv name when
// -append-year is not given.
func readAppend(path string, year int, opts census.LoadOptions) (*census.Dataset, error) {
	if year == 0 {
		base := filepath.Base(path)
		digits := strings.TrimSuffix(strings.TrimPrefix(base, "census_"), ".csv")
		y, err := strconv.Atoi(digits)
		if err != nil || digits == base {
			return nil, fmt.Errorf("cannot derive a census year from %q; pass -append-year", base)
		}
		year = y
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, rep, err := census.ReadCSVOptions(f, year, opts)
	if err != nil {
		return nil, err
	}
	if rep != nil && !rep.Clean() {
		fmt.Fprintf(os.Stderr, "%s:\n%s", filepath.Base(path), rep.Summary())
	}
	return ds, nil
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
