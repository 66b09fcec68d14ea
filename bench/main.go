// Command bench is the repository's performance benchmark. One run executes
// one named workload on inputs generated from a seed, checks the program's
// outputs, and prints every metric BENCHMARK.json names with its unit; the
// last line of standard output is the run's JSON result. See README.md.
//
// Usage (from the repository root; bench/run.sh builds it):
//
//	bench -workload link_default -seed 1871 -seconds 25 -trace 0 [-out run.json]
//	bench -compare parentdir changedir
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Half of the set-ups run before the measured window and half after
// it, so a slow spell of the machine at one of the two moments moves the
// median less.
const setupReps = 6

// runDeadline bounds one run, inside the 180 s a run may take.
const runDeadline = 170 * time.Second

// runEnv is what a workload gets from the command line.
type runEnv struct {
	seed       int64
	seconds    time.Duration
	trace      bool
	work       string // scratch directory of this run, removed at the end
	linkserver string // the cmd/linkserver binary
	tracer     *tracer
}

// mkdir creates a fresh subdirectory of the run's scratch directory.
func (e *runEnv) mkdir(name string) (string, error) {
	dir := filepath.Join(e.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// outcome is what a workload measured and checked. Every operation and
// every check is one attempt; a failed operation or check is one failure.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layers       map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check counts one attempt and, unless ok, one failure with its reason.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
	return ok
}

// fail counts a failure of an attempt already counted, keeping the first
// few reasons for the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func years(from, to int) []int {
	var ys []int
	for y := from; y <= to; y += 10 {
		ys = append(ys, y)
	}
	return ys
}

// workloadTable returns the workloads by name. small shrinks every input to
// scale 0.01 for the package tests.
func workloadTable(small bool) map[string]func(context.Context, *runEnv) (*outcome, error) {
	linkDefault := linkParams{blocking: "default", scale: 0.04, inputs: 30}
	linkLSH := linkParams{blocking: "lsh", scale: 0.1, inputs: 16}
	serveRead := serveParams{scale: 0.05, years: years(1851, 1901), initial: 6, rate: 1000, closed: true}
	serveIngest := serveParams{scale: 0.05, years: years(1851, 2151), households: 5576, initial: 2, rate: 300}
	if small {
		linkDefault.scale, linkDefault.inputs = 0.01, 2
		linkLSH.scale, linkLSH.inputs = 0.01, 2
		serveRead.scale, serveIngest.scale = 0.01, 0.01
		serveIngest.years = years(1851, 1911)
	}
	return map[string]func(context.Context, *runEnv) (*outcome, error){
		"link_default": func(ctx context.Context, e *runEnv) (*outcome, error) { return runLink(ctx, e, linkDefault) },
		"link_lsh":     func(ctx context.Context, e *runEnv) (*outcome, error) { return runLink(ctx, e, linkLSH) },
		"serve_read":   func(ctx context.Context, e *runEnv) (*outcome, error) { return runServe(ctx, e, serveRead) },
		"serve_ingest": func(ctx context.Context, e *runEnv) (*outcome, error) { return runServe(ctx, e, serveIngest) },
	}
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names, units and bounds are defined there and only there.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics of the run's mode in BENCHMARK.json's
// order: end-to-end untraced, per-layer traced. A measured value the spec
// does not name, or an end-to-end metric that was not measured or is not a
// finite number, is a failed check. A per-layer metric of a layer the
// workload does not exercise reads 0.
func buildResult(spec *benchSpec, o *outcome, traced bool) *result {
	metrics, measured := spec.EndToEnd, o.e2e
	if traced {
		metrics, measured = spec.PerLayer, o.layers
	}
	named := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		named[s.Name] = true
	}
	for _, m := range []map[string]float64{o.e2e, o.layers} {
		for _, name := range sortedKeys(m) {
			o.check(named[name], "metric %s is not in BENCHMARK.json", name)
		}
	}
	r := &result{Metrics: map[string]metricValue{}}
	for _, s := range metrics {
		v, ok := measured[s.Name]
		finite := !math.IsNaN(v) && !math.IsInf(v, 0)
		if !traced {
			o.check(ok && finite, "metric %s measured %v (%v)", s.Name, ok, v)
		}
		if !finite {
			v = 0
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	r.Attempted, r.Failed = max(o.attempted, 1), o.failed
	r.Correct = o.failed == 0 && o.attempted > 0
	return r
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runRecord is the -out file: the result plus what produced it, the input
// of -compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: link_default, link_lsh, serve_read or serve_ingest")
	seed := fs.Int64("seed", 1871, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "1: trace the run and report the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "also write the run record (result, workload, seed) to this file")
	work := fs.String("work", ".bench_build", "directory for the run's scratch files and trace_<workload>.json")
	linkserverBin := fs.String("linkserver", ".bench_build/linkserver", "the cmd/linkserver binary")
	compare := fs.Bool("compare", false, "compare the run records in two directories: -compare parentdir changedir")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two directories of run records")
			return 2
		}
		if err := compareRuns(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	rec, err := runWorkload(ctx, spec, workloadTable(false), *workload, *seed,
		time.Duration(*seconds*float64(time.Second)), *trace == 1, *work, *linkserverBin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	names := sortedKeys(rec.Metrics)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(stdout, "%-36s %16.6f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in a fresh scratch directory and returns
// its record. Failed checks are listed on standard error.
func runWorkload(ctx context.Context, spec *benchSpec, table map[string]func(context.Context, *runEnv) (*outcome, error),
	name string, seed int64, seconds time.Duration, traced bool, work, linkserverBin string) (*runRecord, error) {
	fn, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, sortedKeys(table))
	}
	if seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	env := &runEnv{seed: seed, seconds: seconds, trace: traced, work: scratch,
		linkserver: linkserverBin, tracer: newTracer()}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	o, err := fn(ctx, env)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res := buildResult(spec, o, traced)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	if traced {
		all := map[string]float64{}
		for k, v := range o.layers {
			all[k] = v
		}
		for k, v := range o.e2e {
			all[k] = v
		}
		if err := env.tracer.write(filepath.Join(work, "trace_"+name+".json"), name, seed, all); err != nil {
			return nil, err
		}
	}
	return &runRecord{Workload: name, Seed: seed, Trace: traced, result: *res}, nil
}
