// Command explain audits the subgraph matching of one household pair: it
// shows both households, the candidate vertex pairs (with similarities and
// age-window verdicts), the edge compatibility matrix, and the resulting
// subgraph scores — or explains why no subgraph exists. Useful for
// debugging why two households were or were not linked.
//
// With -stats it instead renders a JSON run report (as written by
// linker -stats or benchall -stats) as human-readable tables.
//
// Usage:
//
//	explain -old census_1871.csv -new census_1881.csv \
//	        -old-household 1871_h12 -new-household 1881_h12 [-delta 0.5]
//	explain -stats run.json
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
	"time"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/hgraph"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("explain: ")
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
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	oldPath := fs.String("old", "", "older census CSV (required)")
	newPath := fs.String("new", "", "newer census CSV (required)")
	oldHH := fs.String("old-household", "", "household ID in the older census (required)")
	newHH := fs.String("new-household", "", "household ID in the newer census (required)")
	delta := fs.Float64("delta", 0.5, "pre-matching threshold to explain at")
	ageTol := fs.Int("age-tolerance", 3, "age tolerance in years")
	alpha := fs.Float64("alpha", 0.2, "record-similarity weight")
	beta := fs.Float64("beta", 0.7, "edge-similarity weight")
	statsPath := fs.String("stats", "", "render this JSON run report as tables and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *statsPath != "" {
		return renderStats(*statsPath, stdout)
	}
	if *oldPath == "" || *newPath == "" || *oldHH == "" || *newHH == "" {
		fs.Usage()
		return fmt.Errorf("-old, -new, -old-household and -new-household are required")
	}

	oldDS, err := load(*oldPath)
	if err != nil {
		return err
	}
	newDS, err := load(*newPath)
	if err != nil {
		return err
	}
	gOld, err := mustHousehold(oldDS, *oldHH)
	if err != nil {
		return err
	}
	gNew, err := mustHousehold(newDS, *newHH)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "=== %s (%d) ===\n", *oldHH, oldDS.Year)
	printMembers(stdout, oldDS, gOld)
	fmt.Fprintf(stdout, "\n=== %s (%d) ===\n", *newHH, newDS.Year)
	printMembers(stdout, newDS, gNew)

	sim := linkage.OmegaTwo(*delta)
	pre, err := linkage.PreMatchOpts(context.Background(), oldDS.Records(), newDS.Records(),
		linkage.PreMatchOptions{
			Sim: sim, OldYear: oldDS.Year, NewYear: newDS.Year,
			Strategies: block.DefaultStrategies(),
		})
	if err != nil {
		return err
	}
	cfg := linkage.MatchConfig{
		AgeTolerance: *ageTol,
		YearGap:      newDS.Year - oldDS.Year,
		Alpha:        *alpha,
		Beta:         *beta,
	}
	graphOld := hgraph.Build(oldDS, gOld)
	graphNew := hgraph.Build(newDS, gNew)

	fmt.Fprintf(stdout, "\n--- candidate vertex pairs (delta=%.2f) ---\n", *delta)
	candidates, consistent := 0, 0
	sims := pre.Sims()
	for _, o := range graphOld.Members() {
		lo, okO := pre.OldLabel(o.ID)
		for _, n := range graphNew.Members() {
			_, direct := sims[linkage.Pair{Old: o.ID, New: n.ID}]
			ln, okN := pre.NewLabel(n.ID)
			sameLabel := okO && okN && lo == ln
			if !direct && !sameLabel {
				continue
			}
			candidates++
			verdict := "ok"
			if !cfg.AgeConsistent(o, n) {
				verdict = "REJECTED: age gap inconsistent with the census interval"
			} else {
				consistent++
			}
			kind := "transitive"
			if direct {
				kind = "direct"
			}
			fmt.Fprintf(stdout, "  %-14s %-22s ~ %-22s sim=%.2f  ages %d->%d  [%s] %s\n",
				kind, name(o), name(n), sim.AggSim(o, n), o.Age, n.Age, o.ID+"/"+n.ID, verdict)
		}
	}
	if candidates == 0 {
		fmt.Fprintln(stdout, "  none: no member pair is similar at this threshold.")
	}
	if consistent < 2 {
		fmt.Fprintln(stdout, "\nverdict: NO LINK (fewer than two label-sharing, age-consistent member pairs)")
		return nil
	}

	eng := sim.Compile(oldDS.Records(), newDS.Records())
	sub := linkage.NewGroupMatcher(pre, eng, cfg).MatchGroups(graphOld, graphNew)
	if sub == nil {
		fmt.Fprintln(stdout, "\nverdict: NO LINK (no compatible edge: no two chosen member pairs are joined")
		fmt.Fprintln(stdout, "by edges of the same relationship type with similar age differences)")
		return nil
	}

	fmt.Fprintln(stdout, "\n--- matched subgraph ---")
	for _, v := range sub.Vertices {
		fmt.Fprintf(stdout, "  vertex  %-22s ~ %-22s sim=%.2f\n", name(v.Old), name(v.New), v.Sim)
	}
	for _, e := range sub.Edges {
		a, b := sub.Vertices[e.I], sub.Vertices[e.J]
		tOld, dOld, _ := graphOld.EdgeBetween(a.Old.ID, b.Old.ID)
		_, dNew, _ := graphNew.EdgeBetween(a.New.ID, b.New.ID)
		fmt.Fprintf(stdout, "  edge    %s -- %s  type=%s  age-diff %d vs %d  rp_sim=%.2f\n",
			a.Old.FirstName, b.Old.FirstName, tOld, dOld, dNew, e.RpSim)
	}
	fmt.Fprintf(stdout, "\nscores: avg_sim=%.3f  e_sim=%.3f  unique=%.3f  ->  g_sim=%.3f\n",
		sub.AvgSim, sub.ESim, sub.Unique, sub.GSim)
	fmt.Fprintln(stdout, "verdict: candidate LINK (subject to Algorithm 2's disjoint selection)")
	return nil
}

// renderStats renders a JSON run report (linker -stats / benchall -stats)
// as human-readable tables: one row per δ iteration, one per pipeline
// stage, and the run-total counters.
func renderStats(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := obs.ReadReport(f)
	if err != nil {
		return err
	}

	it := &report.Table{
		Title: "Iterations",
		Header: []string{"delta", "blocked", "compared", "links",
			"labels", "group pairs", "candidates", "subgraphs", "group links", "record links", "time"},
	}
	for _, s := range r.Iterations {
		it.AddRow(
			report.F(s.Delta, 2),
			report.I(int(s.Count(obs.BlockingPairs))),
			report.I(int(s.Count(obs.PairsCompared))),
			report.I(int(s.Count(obs.CandidateLinks))),
			report.I(int(s.Count(obs.ClusterLabels))),
			report.I(int(s.Count(obs.GroupPairs))),
			report.I(int(s.Count(obs.SubgraphCandidates))),
			report.I(int(s.Count(obs.Subgraphs))),
			report.I(int(s.Count(obs.GroupLinks))),
			report.I(int(s.Count(obs.RecordLinks))),
			s.ElapsedNS.Round(time.Millisecond).String(),
		)
	}
	if len(r.Iterations) == 0 {
		it.AddRow("(none)", "", "", "", "", "", "", "", "", "", "")
	}
	if err := it.Render(w); err != nil {
		return err
	}

	st := &report.Table{
		Title:  "Stages",
		Header: []string{"stage", "calls", "total", "avg", "alloc"},
	}
	for _, name := range r.StageNames() {
		s := r.Stages[name]
		avg := time.Duration(0)
		if s.Calls > 0 {
			avg = s.TotalNS / time.Duration(s.Calls)
		}
		st.AddRow(name, report.I(s.Calls),
			s.TotalNS.Round(time.Microsecond).String(),
			avg.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f MB", float64(s.AllocBytes)/(1<<20)))
	}
	fmt.Fprintln(w)
	if err := st.Render(w); err != nil {
		return err
	}

	ct := &report.Table{
		Title:  "Run totals",
		Header: []string{"counter", "value"},
	}
	for _, name := range r.CounterNames() {
		ct.AddRow(name, quantity(name, r.Counters[name]))
	}
	ct.AddRow("elapsed", r.ElapsedNS.Round(time.Millisecond).String())
	fmt.Fprintln(w)
	if err := ct.Render(w); err != nil {
		return err
	}

	if len(r.Gauges) == 0 {
		return nil
	}
	gt := &report.Table{
		Title:  "Gauges",
		Header: []string{"gauge", "value"},
	}
	for _, name := range r.GaugeNames() {
		gt.AddRow(name, quantity(name, r.Gauges[name]))
	}
	fmt.Fprintln(w)
	return gt.Render(w)
}

// quantity renders a counter or gauge value; byte counts also show MB.
func quantity(name string, v int64) string {
	if strings.HasSuffix(name, "_bytes") {
		return fmt.Sprintf("%d (%d MB)", v, v>>20)
	}
	return report.I(int(v))
}

func name(r *census.Record) string {
	return r.FirstName + " " + r.Surname
}

func printMembers(w io.Writer, d *census.Dataset, h *census.Household) {
	for _, m := range d.Members(h) {
		fmt.Fprintf(w, "  %-10s %-24s age=%-3d %s  %s\n", m.Role, name(m), m.Age, m.Occupation, m.Address)
	}
}

func mustHousehold(d *census.Dataset, id string) (*census.Household, error) {
	h := d.Household(id)
	if h == nil {
		return nil, fmt.Errorf("no household %q in the %d census", id, d.Year)
	}
	return h, nil
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
