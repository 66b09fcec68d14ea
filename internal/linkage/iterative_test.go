package linkage

import (
	"context"
	"math"
	"reflect"
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/paperexample"
)

// matchRemainingT is the test shorthand for one remainder pass: background
// context (errors impossible), greedy or Hungarian selection per optimal.
func matchRemainingT(old []*census.Record, oldYear int, new []*census.Record, newYear int,
	f SimFunc, cfg MatchConfig, strategies []block.Strategy, optimal bool) []RecordLink {
	links, err := MatchRemaining(context.Background(), old, new, RemainderOptions{
		Sim: f, OldYear: oldYear, NewYear: newYear,
		Match: cfg, Strategies: strategies, Optimal: optimal,
	})
	if err != nil {
		panic(err)
	}
	return links
}

// runningExampleConfig reproduces the paper's walk-through: Fig. 3
// pre-matching (name-only, threshold 1) with a single subgraph iteration,
// then a relaxed name-only pass for the leftover records.
func runningExampleConfig() Config {
	return Config{
		Sim:          NameOnly(1.0),
		DeltaHigh:    1.0,
		DeltaLow:     1.0,
		Alpha:        0.2,
		Beta:         0.7,
		AgeTolerance: 3,
		Remainder:    NameOnly(0.6),
		Strategies:   block.DefaultStrategies(),
		Workers:      1,
		StopOnEmpty:  true,
	}
}

// TestLinkRunningExample runs the full Algorithm 1 on the paper's running
// example and checks the exact record mapping (seven person links) and
// group mapping (four household links) described in Section 2.
func TestLinkRunningExample(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	res, err := LinkContext(context.Background(), old, new, runningExampleConfig())
	if err != nil {
		t.Fatal(err)
	}

	wantRecords := paperexample.TrueRecordMapping()
	got := map[string]string{}
	for _, l := range res.RecordLinks {
		got[l.Old] = l.New
	}
	if !reflect.DeepEqual(got, wantRecords) {
		t.Errorf("record mapping:\n got %v\nwant %v", got, wantRecords)
	}

	wantGroups := map[GroupPair]bool{}
	for _, g := range paperexample.TrueGroupMapping() {
		wantGroups[GroupPair{Old: g[0], New: g[1]}] = true
	}
	gotGroups := groupPairsSet(res)
	if len(gotGroups) != len(wantGroups) {
		t.Fatalf("group mapping = %v, want %v", res.GroupLinks, wantGroups)
	}
	for gp := range wantGroups {
		if !gotGroups[gp] {
			t.Errorf("missing group link %v", gp)
		}
	}

	// Steve's and Alice's links must come from the remainder pass: their
	// moves cannot be caught by subgraph matching.
	if res.RemainderRecordLinks != 2 {
		t.Errorf("remainder record links = %d, want 2 (Alice, Steve)", res.RemainderRecordLinks)
	}
	if res.RemainderGroupLinks != 2 {
		t.Errorf("remainder group links = %d, want 2 (a->c, b->c)", res.RemainderGroupLinks)
	}
}

// TestLinkRecordMappingIsOneToOne verifies the cardinality constraint of
// Eq. 1 on the running example under a relaxed, multi-iteration config.
func TestLinkRecordMappingIsOneToOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	old, new := paperexample.Old(), paperexample.New()
	res, err := LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seenOld, seenNew := map[string]bool{}, map[string]bool{}
	for _, l := range res.RecordLinks {
		if seenOld[l.Old] {
			t.Errorf("old record %s linked twice", l.Old)
		}
		if seenNew[l.New] {
			t.Errorf("new record %s linked twice", l.New)
		}
		seenOld[l.Old] = true
		seenNew[l.New] = true
	}
	// Group links must be unique pairs.
	seenGroup := map[GroupPair]bool{}
	for _, g := range res.GroupLinks {
		gp := GroupPair(g)
		if seenGroup[gp] {
			t.Errorf("group link %v duplicated", gp)
		}
		seenGroup[gp] = true
	}
}

// TestLinkIterationSchedule: thresholds must descend from DeltaHigh to
// DeltaLow in steps of DeltaStep, and the reported deltas must be exact:
// repeated subtraction would leak drifted values like 0.6000000000000001
// into IterationStats, LinkSource provenance and JSON reports.
func TestLinkIterationSchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StopOnEmpty = false
	cfg.Workers = 1
	old, new := paperexample.Old(), paperexample.New()
	res, err := LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.7, 0.65, 0.6, 0.55, 0.5}
	if len(res.Iterations) != len(want) {
		t.Fatalf("iterations = %d, want %d", len(res.Iterations), len(want))
	}
	for i, it := range res.Iterations {
		if it.Delta != want[i] {
			t.Errorf("iteration %d delta = %v, want exactly %v", i, it.Delta, want[i])
		}
	}
	// Subgraph-link provenance must carry the same exact thresholds.
	for p, src := range res.Sources {
		if src.Kind != SourceSubgraph {
			continue
		}
		ok := false
		for _, w := range want {
			if src.Delta == w {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("link %v provenance delta = %v, not on the schedule %v", p, src.Delta, want)
		}
	}
}

// TestDeltaScheduleExact pins the index-based threshold computation: every
// δ of the default 0.7→0.5/0.05 configuration is the exact decimal literal,
// with no floating-point drift, and drift-prone steps like 0.1 stay exact
// over many iterations.
func TestDeltaScheduleExact(t *testing.T) {
	cases := []struct {
		high, low, step float64
		want            []float64
	}{
		{0.7, 0.5, 0.05, []float64{0.7, 0.65, 0.6, 0.55, 0.5}},
		{0.9, 0.3, 0.1, []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3}},
		{1.0, 0.85, 0.03, []float64{1.0, 0.97, 0.94, 0.91, 0.88, 0.85}},
		{0.5, 0.5, 0, []float64{0.5}},    // one-shot
		{0.5, 0.5, 0.05, []float64{0.5}}, // one-shot with a (unused) step
	}
	for _, c := range cases {
		cfg := Config{DeltaHigh: c.high, DeltaLow: c.low, DeltaStep: c.step}
		got := cfg.deltaSchedule()
		if len(got) != len(c.want) {
			t.Errorf("schedule(%v→%v/%v) = %v, want %v", c.high, c.low, c.step, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("schedule(%v→%v/%v)[%d] = %v, want exactly %v",
					c.high, c.low, c.step, i, got[i], c.want[i])
			}
		}
	}
}

// TestDeltaScheduleClampsToDeltaLow: when DeltaHigh-DeltaLow is not an
// integer multiple of DeltaStep, the last step must be clamped so the
// paper-mandated final iteration at δ_low still runs (the old loop stopped
// at 0.55 and never reached 0.52).
func TestDeltaScheduleClampsToDeltaLow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeltaLow = 0.52
	want := []float64{0.7, 0.65, 0.6, 0.55, 0.52}
	got := cfg.deltaSchedule()
	if len(got) != len(want) {
		t.Fatalf("schedule = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("schedule[%d] = %v, want exactly %v", i, got[i], want[i])
		}
	}

	cfg.StopOnEmpty = false
	cfg.Workers = 1
	res, err := LinkContext(context.Background(), paperexample.Old(), paperexample.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations")
	}
	last := res.Iterations[len(res.Iterations)-1]
	if last.Delta != cfg.DeltaLow {
		t.Errorf("final iteration delta = %v, want exactly DeltaLow %v", last.Delta, cfg.DeltaLow)
	}
	if len(res.Iterations) != len(want) {
		t.Errorf("iterations = %d, want %d", len(res.Iterations), len(want))
	}
}

// TestLinkNonIterative: DeltaHigh == DeltaLow gives exactly one iteration.
func TestLinkNonIterative(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeltaHigh, cfg.DeltaLow, cfg.DeltaStep = 0.5, 0.5, 0
	cfg.Workers = 1
	old, new := paperexample.Old(), paperexample.New()
	res, err := LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 1 {
		t.Errorf("iterations = %d, want 1", len(res.Iterations))
	}
}

// TestLinkDeterminism: repeated runs with different worker counts agree.
func TestLinkDeterminism(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	cfg := DefaultConfig()
	cfg.Workers = 1
	base, err := LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		cfg.Workers = workers
		got, err := LinkContext(context.Background(), old, new, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.RecordLinks, base.RecordLinks) {
			t.Errorf("workers=%d: record links differ", workers)
		}
		if !reflect.DeepEqual(got.GroupLinks, base.GroupLinks) {
			t.Errorf("workers=%d: group links differ", workers)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.DeltaHigh, c.DeltaLow = 0.4, 0.6 },
		func(c *Config) { c.DeltaStep = 0 },
		func(c *Config) { c.Alpha, c.Beta = 0.8, 0.5 },
		func(c *Config) { c.Alpha = -0.1 },
		func(c *Config) { c.AgeTolerance = -1 },
		func(c *Config) { c.Strategies = nil },
		func(c *Config) { c.Sim.Matchers = nil },
		func(c *Config) { c.Remainder.Matchers = nil },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestConfigValidateDeltaSchedule: thresholds outside [0, 1], steps finer
// than the 1e-9 grid deltaSchedule snaps to and schedules of more than
// maxDeltaPasses passes are rejected; deltaPasses counts exactly the
// schedule deltaSchedule builds.
func TestConfigValidateDeltaSchedule(t *testing.T) {
	cases := []struct {
		name            string
		high, low, step float64
		passes          int // 0: Validate must reject
	}{
		{"default", 0.7, 0.5, 0.05, 5},
		{"one-shot", 0.5, 0.5, 0, 1},
		{"full range", 1, 0, 0.1, 11},
		{"step above range", 0.7, 0.5, 0.3, 2},
		{"clamped last pass", 0.7, 0.52, 0.05, 5},
		{"exactly the limit", 1, 0, 1.0 / 999, 1000},
		{"one over the limit", 1, 0, 0.001, 0},
		{"micro step", 0.7, 0.5, 1e-6, 0},
		{"below the grid", 0.7, 0.6999999995, 1e-11, 0},
		{"far below the grid", 0.7, 0.5, 1e-10, 0},
		{"on the grid", 0.7, 0.69999999, 1e-9, 11},
		{"step above one", 0.7, 0.5, 1.5, 0},
		{"infinite step", 0.7, 0.5, math.Inf(1), 0},
		{"NaN step", 0.7, 0.5, math.NaN(), 0},
		{"high above one", 1.2, 0.5, 0.05, 0},
		{"low below zero", 0.7, -0.1, 0.05, 0},
		{"both below zero", -0.5, -0.5, 0, 0},
		{"NaN high", math.NaN(), 0.5, 0.05, 0},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.DeltaHigh, cfg.DeltaLow, cfg.DeltaStep = c.high, c.low, c.step
		err := cfg.Validate()
		if c.passes == 0 {
			if err == nil {
				t.Errorf("%s: %v→%v by %v accepted", c.name, c.high, c.low, c.step)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		sched := cfg.deltaSchedule()
		if len(sched) != c.passes || cfg.deltaPasses() != c.passes {
			t.Errorf("%s: schedule has %d passes, deltaPasses %d, want %d", c.name, len(sched), cfg.deltaPasses(), c.passes)
		}
		for i := 1; i < len(sched); i++ {
			if sched[i] >= sched[i-1] {
				t.Errorf("%s: δ %v at pass %d after %v", c.name, sched[i], i, sched[i-1])
			}
		}
	}
}

// TestMatchRemainingGreedy: the highest-similarity candidate wins and the
// mapping stays 1:1.
func TestMatchRemainingGreedy(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	cfg := MatchConfig{AgeTolerance: 3, YearGap: 10}
	links := matchRemainingT(old.Records(), old.Year, new.Records(), new.Year,
		NameOnly(0.9), cfg, block.DefaultStrategies(), false)
	got := map[string]string{}
	for _, l := range links {
		got[l.Old] = l.New
	}
	// Exact-name, age-consistent pairs: John Ashworth can match 1881_1 or
	// 1881_9 (both exact); greedy with ID tie-break picks 1881_1.
	if got["1871_1"] != "1881_1" {
		t.Errorf("John Ashworth -> %s", got["1871_1"])
	}
	if got["1871_8"] != "1881_6" {
		t.Errorf("Steve Smith -> %s", got["1871_8"])
	}
	seenNew := map[string]bool{}
	for _, l := range links {
		if seenNew[l.New] {
			t.Fatalf("new record %s linked twice", l.New)
		}
		seenNew[l.New] = true
	}
}

// TestMatchRemainingAgeWindow: an exact-name pair that did not age by the
// census interval is rejected.
func TestMatchRemainingAgeWindow(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	// William 1871 (age 2) vs William of household d (age 10): deviates by 2
	// -> accepted. Shrink the tolerance to 1 to force rejection.
	cfg := MatchConfig{AgeTolerance: 1, YearGap: 10}
	links := matchRemainingT(
		[]*census.Record{old.Record("1871_4")}, old.Year,
		[]*census.Record{new.Record("1881_11")}, new.Year,
		NameOnly(0.9), cfg, block.DefaultStrategies(), false)
	if len(links) != 0 {
		t.Errorf("age-inconsistent remainder link accepted: %v", links)
	}
}

// TestLinkProvenance: every record link carries a source; Alice and Steve
// come from the remainder pass, the rest from subgraphs with the supporting
// group pair recorded.
func TestLinkProvenance(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	res, err := LinkContext(context.Background(), old, new, runningExampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sources) != len(res.RecordLinks) {
		t.Fatalf("sources = %d for %d links", len(res.Sources), len(res.RecordLinks))
	}
	src, ok := res.Sources[Pair{Old: "1871_1", New: "1881_1"}]
	if !ok || src.Kind != SourceSubgraph {
		t.Errorf("John Ashworth source = %+v", src)
	}
	if src.Group != (GroupPair{Old: "1871_a", New: "1881_a"}) {
		t.Errorf("John Ashworth supporting group = %+v", src.Group)
	}
	if src.GSim <= 0 || src.Delta != 1.0 {
		t.Errorf("subgraph source scores = %+v", src)
	}
	for _, id := range []string{"1871_3", "1871_8"} {
		found := false
		for p, s := range res.Sources {
			if p.Old == id {
				found = true
				if s.Kind != SourceRemainder {
					t.Errorf("%s source = %v, want remainder", id, s.Kind)
				}
				if s.Delta != 0.6 {
					t.Errorf("%s remainder delta = %v", id, s.Delta)
				}
			}
		}
		if !found {
			t.Errorf("no source for %s", id)
		}
	}
	if SourceSubgraph.String() != "subgraph" || SourceRemainder.String() != "remainder" {
		t.Error("source kind names wrong")
	}
}

// TestMatchRemainingOptimal: the Hungarian variant resolves the classic
// greedy trap — two olds competing for two news where the greedy top pick
// starves the other — and never totals less similarity than greedy.
func TestMatchRemainingOptimal(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	cfg := MatchConfig{AgeTolerance: 3, YearGap: 10}
	greedy := matchRemainingT(old.Records(), old.Year, new.Records(), new.Year,
		NameOnly(0.6), cfg, block.DefaultStrategies(), false)
	optimal := matchRemainingT(old.Records(), old.Year, new.Records(), new.Year,
		NameOnly(0.6), cfg, block.DefaultStrategies(), true)
	sum := func(links []RecordLink) float64 {
		s := 0.0
		for _, l := range links {
			s += l.Sim
		}
		return s
	}
	if sum(optimal) < sum(greedy)-1e-9 {
		t.Errorf("optimal total %.4f below greedy %.4f", sum(optimal), sum(greedy))
	}
	// Both stay 1:1.
	seen := map[string]bool{}
	for _, l := range optimal {
		if seen[l.Old] || seen["n"+l.New] {
			t.Fatalf("not 1:1: %v", l)
		}
		seen[l.Old] = true
		seen["n"+l.New] = true
	}
}

// TestLinkOptimalRemainderConfig: the pipeline accepts the option and still
// reproduces the running example.
func TestLinkOptimalRemainderConfig(t *testing.T) {
	cfg := runningExampleConfig()
	cfg.OptimalRemainder = true
	old, new := paperexample.Old(), paperexample.New()
	res, err := LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, l := range res.RecordLinks {
		got[l.Old] = l.New
	}
	for o, n := range paperexample.TrueRecordMapping() {
		if got[o] != n {
			t.Errorf("link %s -> %s missing under optimal remainder", o, n)
		}
	}
}

// groupPairsSet returns the group mapping of a result as a set of household
// ID pairs.
func groupPairsSet(r *Result) map[GroupPair]bool {
	out := make(map[GroupPair]bool, len(r.GroupLinks))
	for _, l := range r.GroupLinks {
		out[GroupPair{Old: l.Old, New: l.New}] = true
	}
	return out
}
