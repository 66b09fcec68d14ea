// Command benchall regenerates every table and figure of the paper's
// evaluation section (Tables 1-8, Figure 6) on synthetic census data and
// prints them in the paper's layout.
//
// Usage:
//
//	benchall [-scale 0.1] [-seed 1871] [-only table3] [-o report.txt]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"censuslink/internal/experiments"
	"censuslink/internal/obs"
	"censuslink/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchall: ")
	scale := flag.Float64("scale", 0.10, "population scale relative to the paper (1.0 = full Rawtenstall size)")
	seed := flag.Int64("seed", 1871, "random seed for the synthetic series")
	workers := flag.Int("workers", 0, "linkage worker count (0 = all cores)")
	only := flag.String("only", "", "run a single experiment: table1..table8, figure6, ablation, baselines, birthplace or blocking")
	out := flag.String("o", "", "also write the report to this file")
	format := flag.String("format", "text", "output format: text or md")
	svg := flag.String("svg", "", "also render Figure 6 as an SVG bar chart to this file")
	statsOut := flag.String("stats", "", "write a JSON run report aggregating every linkage run to this file")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); the -stats report is still written")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()
	// SIGINT/SIGTERM and -timeout cancel every linkage run through
	// Options.Ctx; the experiments abort at the next linkage checkpoint.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
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
	if *statsOut != "" {
		stats = obs.NewStats(nil)
	}
	// flushStats writes the aggregated run report; it also runs on the error
	// path so a timed-out or interrupted benchmark keeps its partial data.
	flushStats := func(w io.Writer) {
		if *statsOut == "" {
			return
		}
		f, err := os.Create(*statsOut)
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
		fmt.Fprintf(w, "wrote %s\n", *statsOut)
	}

	var sinks []io.Writer = []io.Writer{os.Stdout}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sinks = append(sinks, f)
	}
	w := io.MultiWriter(sinks...)

	start := time.Now()
	env, err := experiments.NewEnv(experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers, Obs: stats, Ctx: ctx})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "censuslink experiment harness (scale=%.2f seed=%d, generated in %s)\n\n",
		*scale, *seed, time.Since(start).Round(time.Millisecond))

	type experiment struct {
		name string
		run  func() (*report.Table, error)
	}
	exps := []experiment{
		{"table1", func() (*report.Table, error) { return env.Table1(), nil }},
		{"table2", func() (*report.Table, error) { return env.Table2(), nil }},
		{"table3", func() (*report.Table, error) { t, _, err := env.Table3(); return t, err }},
		{"table4", func() (*report.Table, error) { t, _, err := env.Table4(); return t, err }},
		{"table5", func() (*report.Table, error) { t, _, err := env.Table5(); return t, err }},
		{"table6", func() (*report.Table, error) { t, _, err := env.Table6(); return t, err }},
		{"table7", func() (*report.Table, error) { t, _, err := env.Table7(); return t, err }},
		{"figure6", func() (*report.Table, error) { t, _, err := env.Figure6(); return t, err }},
		{"table8", func() (*report.Table, error) { t, _, err := env.Table8(); return t, err }},
		{"ablation", func() (*report.Table, error) { t, _, err := env.Ablation(); return t, err }},
		{"baselines", func() (*report.Table, error) { t, _, err := env.Baselines(); return t, err }},
		{"birthplace", func() (*report.Table, error) { t, _, err := env.BirthplaceExtension(); return t, err }},
		{"blocking", func() (*report.Table, error) { t, _, err := env.BlockingComparison(); return t, err }},
		{"decades", func() (*report.Table, error) { t, _, err := env.QualityByPair(); return t, err }},
	}
	ran := 0
	for _, ex := range exps {
		if *only != "" && !strings.EqualFold(*only, ex.name) {
			continue
		}
		ran++
		t0 := time.Now()
		table, err := ex.run()
		if err != nil {
			flushStats(w)
			log.Fatalf("%s: %v", ex.name, err)
		}
		var renderErr error
		if *format == "md" {
			renderErr = table.RenderMarkdown(w)
		} else {
			renderErr = table.Render(w)
		}
		if renderErr != nil {
			log.Fatal(renderErr)
		}
		fmt.Fprintf(w, "(%s in %s)\n\n", ex.name, time.Since(t0).Round(time.Millisecond))
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q", *only)
	}
	if *svg != "" {
		c, err := env.Figure6Chart()
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*svg)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.RenderSVG(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "wrote %s\n", *svg)
	}
	flushStats(w)
	fmt.Fprintf(w, "total: %s\n", time.Since(start).Round(time.Millisecond))
}
