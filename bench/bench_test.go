package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// linkserverBin is the cmd/linkserver binary TestMain builds for the serve
// workloads.
var linkserverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	linkserverBin = filepath.Join(dir, "linkserver")
	build := exec.Command("go", "build", "-o", linkserverBin, "censuslink/cmd/linkserver")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runSmall runs one workload traced at scale 0.01 for one second. A traced
// run measures both metric sets.
func runSmall(t *testing.T, spec *benchSpec, name string) *outcome {
	t.Helper()
	work := t.TempDir()
	var o *outcome
	table := workloadTable(true)
	wrapped := map[string]func(context.Context, *runEnv) (*outcome, error){
		name: func(ctx context.Context, e *runEnv) (*outcome, error) {
			var err error
			o, err = table[name](ctx, e)
			return o, err
		},
	}
	rec, err := runWorkload(context.Background(), spec, wrapped, name, 1871, time.Second, true, work, linkserverBin)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", name, rec.Correct, rec.Attempted, rec.Failed, o.problems)
	}
	if _, err := os.Stat(filepath.Join(work, "trace_"+name+".json")); err != nil {
		t.Errorf("%s: no trace file: %v", name, err)
	}
	return o
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	table := workloadTable(true)
	if len(spec.Workloads) != len(table) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(table))
	}
	for _, w := range spec.Workloads {
		o := runSmall(t, spec, w.Name)
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			r := buildResult(spec, o, traced)
			if !r.Correct {
				t.Errorf("%s traced=%v: %v", w.Name, traced, o.problems)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := r.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w.Name, s.Name, m, s.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, s.Name, m.Value)
				}
			}
		}
	}
}

// Counts come from the pipeline's counters on deterministic inputs, so two
// runs with one seed must agree exactly; so must the link quality.
func TestCountsRepeatExactly(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	a, b := runSmall(t, spec, "link_default"), runSmall(t, spec, "link_default")
	for _, s := range spec.PerLayer {
		if s.Unit == "count" && a.layers[s.Name] != b.layers[s.Name] {
			t.Errorf("%s: %v then %v", s.Name, a.layers[s.Name], b.layers[s.Name])
		}
	}
	for _, name := range []string{"record_f1", "group_f1"} {
		if a.e2e[name] != b.e2e[name] {
			t.Errorf("%s: %v then %v", name, a.e2e[name], b.e2e[name])
		}
	}
	if a.layers["linkage.group_pairs"] <= 0 {
		t.Errorf("linkage.group_pairs = %v, want > 0", a.layers["linkage.group_pairs"])
	}
}

func TestComputeSelf(t *testing.T) {
	// root [0,100] has children [10,40] and [30,60], which overlap, and
	// [90,120], which outlives it; [10,40] has a child [15,20].
	spans := []span{
		{Name: "root", Start: 0, End: 100},
		{Name: "a", Parent: 1, Start: 10, End: 40},
		{Name: "b", Parent: 1, Start: 30, End: 60},
		{Name: "c", Parent: 1, Start: 90, End: 120},
		{Name: "a1", Parent: 2, Start: 15, End: 20},
	}
	computeSelf(spans)
	want := map[string]float64{"root": 40, "a": 25, "b": 30, "c": 30, "a1": 5}
	for _, s := range spans {
		if s.SelfMS != want[s.Name] {
			t.Errorf("%s: self %v, want %v", s.Name, s.SelfMS, want[s.Name])
		}
	}
}

func TestLinkSpansNestStagesInIterations(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	events := []stageEvent{
		{name: "build_graphs", end: at(10), dur: 10 * time.Millisecond},
		{name: "prematch", end: at(30), dur: 15 * time.Millisecond},
		{name: "subgraph_match", end: at(55), dur: 20 * time.Millisecond},
		{name: "iteration", delta: 0.7, end: at(60), dur: 45 * time.Millisecond},
		{name: "remainder", end: at(70), dur: 8 * time.Millisecond},
	}
	spans := linkSpans(tr, 1, at(0), at(75), events)
	parent := map[string]int{}
	total := 0.0
	for _, s := range spans {
		parent[s.Name] = s.Parent
		total += s.SelfMS
	}
	if parent["prematch"] != 2 || parent["subgraph_match"] != 2 || parent["linkage.iteration"] != 1 ||
		parent["build_graphs"] != 1 || parent["remainder"] != 1 {
		t.Errorf("parents %v", parent)
	}
	if math.Abs(total-75) > 1e-9 {
		t.Errorf("self times sum to %v, want the link's 75 ms", total)
	}
	if self := spans[1].SelfMS; math.Abs(self-10) > 1e-9 {
		t.Errorf("iteration self %v, want 10", self)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster", parent, scaled(0.8), "improved"},
		{"slower", parent, scaled(1.2), "regressed"},
		{"same", parent, scaled(1.01), "unchanged"},
		{"noisy", wide, wide, "unresolved"},
		{"few pairs", parent[:5], scaled(0.8)[:5], "unresolved (fewer than 10 pairs)"},
	} {
		if got, _ := verdict(lower, c.parent, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.1}
	if got, _ := verdict(higher, parent, scaled(0.8)); got != "regressed" {
		t.Errorf("lower throughput: %s, want regressed", got)
	}
}
