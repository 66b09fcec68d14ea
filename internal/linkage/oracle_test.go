package linkage

// Differential tests of the compiled pipeline against the interpreted
// oracle. The oracle scans build a fresh blocking index over the records
// they are given and score every candidate pair with SimFunc.AggSim. The
// executor's run hook hands each pass's inputs and outputs to the oracle,
// so every δ pre-match and the remainder pass of a full Link are checked on
// exactly the records that were still unlinked when they ran.

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/cluster"
	"censuslink/internal/compare"
	"censuslink/internal/obs"
	"censuslink/internal/synth"
)

// preMatchView is the record-ID view of a pre-matching pass: what the
// interpreted oracle produces, and what viewOf derives from the
// position-keyed PreMatchResult for comparison. Labels are keyed by
// (side, record ID), because an ID alone may name a record of each year.
type preMatchView struct {
	Sims      map[Pair]float64
	Links     []Pair
	Labels    map[recordKey]int
	LabelSize map[int]int
	Compared  int
	Blocked   int
}

// recordKey identifies a record of either dataset.
type recordKey struct {
	New bool
	ID  string
}

// ufKey encodes a record key for the string-keyed union-find so that keys
// sort by record ID first and an old record before a new one with the same
// ID — the order the production labels are numbered in.
func ufKey(k recordKey) string {
	if k.New {
		return k.ID + "\x001"
	}
	return k.ID + "\x000"
}

// viewOf returns the record-ID view of a production pre-matching result.
func viewOf(pre *PreMatchResult) *preMatchView {
	v := &preMatchView{
		Sims:      pre.Sims(),
		Links:     pre.Pairs(),
		Labels:    make(map[recordKey]int),
		LabelSize: make(map[int]int),
		Compared:  pre.Compared,
		Blocked:   pre.Blocked,
	}
	for i, l := range pre.OldLabels {
		if l >= 0 {
			v.Labels[recordKey{ID: pre.old.Recs[i].ID}] = int(l)
		}
	}
	for j, l := range pre.NewLabels {
		if l >= 0 {
			v.Labels[recordKey{New: true, ID: pre.new.Recs[j].ID}] = int(l)
		}
	}
	for l, n := range pre.LabelSize {
		v.LabelSize[l] = int(n)
	}
	return v
}

// preMatchOracle is the interpreted pre-matching pass: blocked candidates
// from a fresh index over new, kept when f.AggSim reaches f's δ, clustered
// by the transitive closure of the kept links with a union-find keyed by
// (side, record ID).
func preMatchOracle(old []*census.Record, oldYear int, new []*census.Record, newYear int,
	f SimFunc, strategies []block.Strategy) *preMatchView {
	ix := block.NewIndex(new, newYear, strategies)
	out := &preMatchView{Sims: make(map[Pair]float64), LabelSize: make(map[int]int)}
	uf := cluster.NewUnionFind()
	keyOf := make(map[string]recordKey)
	for _, r := range old {
		k := recordKey{ID: r.ID}
		uf.Add(ufKey(k))
		keyOf[ufKey(k)] = k
	}
	for _, r := range new {
		k := recordKey{New: true, ID: r.ID}
		uf.Add(ufKey(k))
		keyOf[ufKey(k)] = k
	}
	var scratch block.Scratch
	for _, o := range old {
		for _, n := range ix.Candidates(o, oldYear, &scratch) {
			out.Compared++
			if s := f.AggSim(o, n); s >= f.Delta {
				p := Pair{Old: o.ID, New: n.ID}
				out.Links = append(out.Links, p)
				out.Sims[p] = s
				uf.Union(ufKey(recordKey{ID: o.ID}), ufKey(recordKey{New: true, ID: n.ID}))
			}
		}
	}
	out.Labels = make(map[recordKey]int)
	for key, l := range uf.Labels() {
		out.Labels[keyOf[key]] = l
		out.LabelSize[l]++
	}
	out.Blocked = int(ix.Generated())
	return out
}

// remainderOracle is the interpreted remainder pass: blocked,
// age-consistent candidates from a fresh index over new whose f.AggSim
// reaches f's δ, selected 1:1 greedily.
func remainderOracle(old []*census.Record, oldYear int, new []*census.Record, newYear int,
	f SimFunc, match MatchConfig, strategies []block.Strategy) []RecordLink {
	ix := block.NewIndex(new, newYear, strategies)
	var cands []RecordLink
	var scratch block.Scratch
	for _, o := range old {
		for _, n := range ix.Candidates(o, oldYear, &scratch) {
			if !match.AgeConsistent(o, n) {
				continue
			}
			if s := f.AggSim(o, n); s >= f.Delta {
				cands = append(cands, RecordLink{Old: o.ID, New: n.ID, Sim: s})
			}
		}
	}
	return greedyRemainder(cands)
}

// oracleChecker is a run hook that requires every δ pre-match and the
// remainder pass of a run to equal the oracle's on the same records.
type oracleChecker struct {
	t                 *testing.T
	iterations, links int
	remainders        int
	remainderLinks    int
}

func (c *oracleChecker) hook(rs *runState, delta float64, remOld, remNew []*census.Record, pre *PreMatchResult, rem []RecordLink) {
	t := c.t
	cfg := rs.cfg
	if pre == nil {
		want := remainderOracle(remOld, rs.old.Year, remNew, rs.new.Year,
			cfg.Remainder, rs.match, cfg.Strategies)
		if !reflect.DeepEqual(rem, want) {
			t.Fatalf("remainder: %d links, oracle %d (or they differ)", len(rem), len(want))
		}
		c.remainders++
		c.remainderLinks += len(rem)
		return
	}
	want := preMatchOracle(remOld, rs.old.Year, remNew, rs.new.Year, cfg.Sim.WithDelta(delta), cfg.Strategies)
	got := viewOf(pre)
	for _, cmp := range []struct {
		name      string
		got, want any
	}{
		{"Sims", got.Sims, want.Sims},
		{"Links", got.Links, want.Links},
		{"Labels", got.Labels, want.Labels},
		{"LabelSize", got.LabelSize, want.LabelSize},
		{"Compared", got.Compared, want.Compared},
	} {
		if !reflect.DeepEqual(cmp.got, cmp.want) {
			t.Fatalf("delta=%v: pre-match %s differs from the oracle's", delta, cmp.name)
		}
	}
	// Later iterations read the candidate table of the full datasets, whose
	// raw hit counts include records already linked; only the first pass
	// sees the same record set as a fresh index.
	if c.iterations == 0 && pre.Blocked != want.Blocked {
		t.Fatalf("delta=%v: Blocked %d, oracle %d", delta, pre.Blocked, want.Blocked)
	}
	c.iterations++
	c.links += len(pre.Links)
}

// linkWithOracle runs the executor with the oracle checker hooked in and
// requires the run to be non-vacuous and its result deep-equal to a plain
// Link of the same inputs.
func linkWithOracle(t *testing.T, old, new *census.Dataset, cfg Config) *Result {
	t.Helper()
	c := &oracleChecker{t: t}
	res, err := link(context.Background(), old, new, cfg, c.hook)
	if err != nil {
		t.Fatal(err)
	}
	if c.iterations == 0 || c.links == 0 || c.remainders != 1 || c.remainderLinks == 0 {
		t.Fatalf("vacuous check: %d iterations with %d links, %d remainder passes with %d links",
			c.iterations, c.links, c.remainders, c.remainderLinks)
	}
	plain, err := LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Fatal("the hooked run's result differs from a plain Link")
	}
	return res
}

// TestLinkEngineDifferential: every pass of a default Link equals the
// interpreted oracle on the synthetic series.
func TestLinkEngineDifferential(t *testing.T) {
	for _, seed := range []int64{7, 23} {
		old, new, err := synth.GeneratePair(synth.TestConfig(0.03, seed), 1861, 1871)
		if err != nil {
			t.Fatal(err)
		}
		linkWithOracle(t, old, new, DefaultConfig())
	}
}

// TestLinkEngineDifferentialVariants: identity must also hold under the
// one-shot schedule, ω1 matching, one worker, a clamped schedule, direct
// vertices only and LSH blocking.
func TestLinkEngineDifferentialVariants(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 41), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := ParseBlocking("lsh")
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(*Config){
		"one-shot":      func(c *Config) { c.DeltaHigh, c.DeltaLow, c.DeltaStep = 0.5, 0.5, 0 },
		"omega1":        func(c *Config) { c.Sim = OmegaOne(0.7) },
		"single-worker": func(c *Config) { c.Workers = 1 },
		// Non-multiple DeltaHigh-DeltaLow: the schedule clamps its last
		// step to δ_low; the oracle must see the identical thresholds.
		"clamped-schedule":     func(c *Config) { c.DeltaLow = 0.52 },
		"direct-vertices-only": func(c *Config) { c.DirectVerticesOnly = true },
		"lsh":                  func(c *Config) { c.Strategies = lsh },
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			mutate(&cfg)
			linkWithOracle(t, old, new, cfg)
		})
	}
}

// TestRemainderSharesSimCompile: when Sim_func_rem compiles like Sim_func
// (DefaultConfig: ω2 at two thresholds) the remainder pass scores through
// the Sim engine, so a link interns each dataset once. A remainder that
// differs in its matchers (NameOnly), in one weight or in matcher order
// compiles an engine of its own. Either way every pass equals the
// interpreted oracle.
func TestRemainderSharesSimCompile(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.03, 23), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	reweighted := OmegaTwo(0.75)
	reweighted.Matchers = slices.Clone(reweighted.Matchers)
	reweighted.Matchers[3].Weight, reweighted.Matchers[4].Weight = 0.15, 0.05
	reordered := OmegaTwo(0.75)
	reordered.Matchers = slices.Clone(reordered.Matchers)
	slices.Reverse(reordered.Matchers)
	for _, c := range []struct {
		name   string
		rem    SimFunc
		shared bool
	}{
		{"default", DefaultConfig().Remainder, true},
		{"name-only", NameOnly(0.8), false},
		{"reweighted", reweighted, false},
		{"reordered", reordered, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Remainder = c.rem
			oc := &oracleChecker{t: t}
			passes := 0
			if _, err := link(context.Background(), old, new, cfg, func(rs *runState, delta float64,
				remOld, remNew []*census.Record, pre *PreMatchResult, rem []RecordLink) {
				if shared := rs.rem.eng == rs.sim.eng; shared != c.shared {
					t.Fatalf("remainder shares the Sim engine: %t, want %t", shared, c.shared)
				}
				passes++
				oc.hook(rs, delta, remOld, remNew, pre, rem)
			}); err != nil {
				t.Fatal(err)
			}
			if passes < 2 || oc.remainders != 1 || oc.remainderLinks == 0 {
				t.Fatalf("vacuous check: %d passes, %d remainder passes with %d links", passes, oc.remainders, oc.remainderLinks)
			}
		})
	}
}

// TestLinkSeriesEngineDifferential: every pair of a multi-decade series run
// equals an oracle-checked run of that pair.
func TestLinkSeriesEngineDifferential(t *testing.T) {
	series, err := synth.Generate(synth.TestConfig(0.02, 17))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	results, err := LinkSeriesOpts(context.Background(), series, cfg, SeriesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := series.Pairs()
	if len(results) != len(pairs) {
		t.Fatalf("%d series results for %d pairs", len(results), len(pairs))
	}
	for i, p := range pairs {
		if got := linkWithOracle(t, p[0], p[1], cfg); !reflect.DeepEqual(results[i], got) {
			t.Fatalf("pair %d→%d: series result differs from the oracle-checked run", p[0].Year, p[1].Year)
		}
	}
}

// TestPreMatchOracleDifferential: the standalone pre-matching entry point
// equals the oracle at every δ of the default schedule, Blocked included.
func TestPreMatchOracleDifferential(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.03, 23), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, delta := range cfg.deltaSchedule() {
		f := cfg.Sim.WithDelta(delta)
		got, err := PreMatchOpts(context.Background(), old.Records(), new.Records(), PreMatchOptions{
			Sim: f, OldYear: old.Year, NewYear: new.Year, Strategies: cfg.Strategies, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := preMatchOracle(old.Records(), old.Year, new.Records(), new.Year, f, cfg.Strategies)
		if len(want.Links) == 0 {
			t.Fatalf("delta=%v: oracle found no links; the check would be vacuous", delta)
		}
		if !reflect.DeepEqual(viewOf(got), want) {
			t.Fatalf("delta=%v: PreMatchOpts differs from the oracle", delta)
		}
	}
}

// TestMatchRemainingOracleDifferential: the standalone remainder entry
// point selects exactly the oracle's links.
func TestMatchRemainingOracleDifferential(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.03, 23), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	match := MatchConfig{AgeTolerance: cfg.AgeTolerance, YearGap: new.Year - old.Year}
	got, err := MatchRemaining(context.Background(), old.Records(), new.Records(), RemainderOptions{
		Sim: cfg.Remainder, OldYear: old.Year, NewYear: new.Year, Match: match,
		Strategies: cfg.Strategies,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := remainderOracle(old.Records(), old.Year, new.Records(), new.Year,
		cfg.Remainder, match, cfg.Strategies)
	if len(want) == 0 {
		t.Fatal("oracle found no links; the check would be vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchRemaining %d links, oracle %d (or they differ)", len(got), len(want))
	}
}

// pruneReplay recounts the pruned comparisons of a link from its run hook:
// it replays every δ pass on its own resumable scores for the candidate
// table's entries, and the remainder pass from zero state, through the
// run's stateless engines without a similarity cache. passes[i] is the
// count of the i-th δ pass and remainder that of the remainder pass;
// compared and remainderCompared count the attribute comparisons the
// same passes make.
type pruneReplay struct {
	sum               []float64
	next              []uint8
	passes, compared  []int64
	remainder         int64
	remainderCompared int64
}

func (p *pruneReplay) hook(rs *runState, delta float64, remOld, remNew []*census.Record, pre *PreMatchResult, _ []RecordLink) {
	cp := rs.rem
	if pre != nil {
		cp = rs.sim.compiledPair
		if p.sum == nil {
			p.sum, p.next = make([]float64, cp.tab.Pairs()), make([]uint8, cp.tab.Pairs())
		}
	}
	active := make([]bool, len(cp.eng.New.Recs))
	for _, n := range remNew {
		if j, ok := cp.eng.New.Pos(n.ID); ok {
			active[j] = true
		}
	}
	var pruned, compared int64
	for _, o := range remOld {
		oi, ok := cp.eng.Old.Pos(o.ID)
		if !ok {
			continue
		}
		e := cp.tab.Offset(oi)
		for _, ni := range cp.tab.Row(oi) {
			switch {
			case !active[ni]:
			case pre != nil:
				before := p.next[e]
				if cp.eng.ResumeAtLeast(oi, int(ni), delta, &p.sum[e], &p.next[e], nil) == compare.Pruned {
					pruned++
				}
				compared += int64(p.next[e] - before)
			case rs.match.AgeConsistent(o, cp.eng.New.Recs[ni]):
				var s float64
				var k uint8
				if cp.eng.ResumeAtLeast(oi, int(ni), delta, &s, &k, nil) == compare.Pruned {
					pruned++
				}
				compared += int64(k)
			}
			e++
		}
	}
	if pre != nil {
		p.passes = append(p.passes, pruned)
		p.compared = append(p.compared, compared)
	} else {
		p.remainder, p.remainderCompared = pruned, compared
	}
}

// total is the replayed pruned count of the whole link.
func (p *pruneReplay) total() int64 {
	t := p.remainder
	for _, n := range p.passes {
		t += n
	}
	return t
}

// TestObsCompiledCacheCounters: the report carries the pruned-comparison
// counter and the compile stage. The counter comes from the scoring passes
// of the two resident engines alone: an oracle-checked run, whose
// string-level scoring bypasses them, reports exactly the comparisons a
// replay of those passes prunes, and the same total as a plain run.
func TestObsCompiledCacheCounters(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.03, 7), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Obs = obs.NewStats(nil)
	if _, err := LinkContext(context.Background(), old, new, cfg); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Obs.Report()
	if rep.Counters[obs.PrunedComparisons] <= 0 {
		t.Fatalf("run recorded %d pruned comparisons; want some", rep.Counters[obs.PrunedComparisons])
	}
	if _, ok := rep.Stages["compile"]; !ok {
		t.Error("compile stage missing from report")
	}

	checked := DefaultConfig()
	checked.Obs = obs.NewStats(nil)
	c := &oracleChecker{t: t}
	replay := &pruneReplay{}
	if _, err := link(context.Background(), old, new, checked, func(r *runState, delta float64,
		remOld, remNew []*census.Record, pre *PreMatchResult, rem []RecordLink) {
		replay.hook(r, delta, remOld, remNew, pre, rem)
		c.hook(r, delta, remOld, remNew, pre, rem)
	}); err != nil {
		t.Fatal(err)
	}
	got := checked.Obs.Report().Counters[obs.PrunedComparisons]
	if want := replay.total(); got != want {
		t.Errorf("oracle-checked run reported %d pruned comparisons, a replay of its passes pruned %d", got, want)
	}
	if want := rep.Counters[obs.PrunedComparisons]; got != want {
		t.Errorf("oracle-checked run pruned %d comparisons, a plain run %d", got, want)
	}
}

// countedKeys wraps a strategy so every call of its index or probe key
// functions adds one to calls.
func countedKeys(s block.Strategy, calls *atomic.Int64) block.Strategy {
	count := func(factory func() block.KeyFunc) func() block.KeyFunc {
		return func() block.KeyFunc {
			keys := factory()
			return func(r *census.Record, year int, dst []block.Key) []block.Key {
				calls.Add(1)
				return keys(r, year, dst)
			}
		}
	}
	c := block.Strategy{Name: s.Name, Keys: count(s.Keys)}
	if s.Probe != nil {
		c.Probe = count(s.Probe)
	}
	return c
}

// TestLinkQueriesIndexOnce: the compile stage keys every new record once
// to build the blocking index and every old record once (with its probe
// keys) to query it into the candidate table, and no later pass keys a
// record again; so the
// table's raw hit count is every raw hit the index produced over the link,
// and it equals the first iteration's Blocked, for both blocking schemes.
func TestLinkQueriesIndexOnce(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.03, 23), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"default", "lsh"} {
		cfg := DefaultConfig()
		if cfg.Strategies, err = ParseBlocking(scheme); err != nil {
			t.Fatal(err)
		}
		calls := make([]atomic.Int64, len(cfg.Strategies))
		for si, s := range cfg.Strategies {
			cfg.Strategies[si] = countedKeys(s, &calls[si])
		}
		var rs *runState
		var blocked []int
		if _, err := link(context.Background(), old, new, cfg, func(r *runState, _ float64,
			_, _ []*census.Record, pre *PreMatchResult, _ []RecordLink) {
			rs = r
			if pre != nil {
				blocked = append(blocked, pre.Blocked)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if len(blocked) < 2 || blocked[0] == 0 {
			t.Fatalf("%s: %d iterations, first Blocked %v; the check would be vacuous", scheme, len(blocked), blocked)
		}
		want := int64(len(old.Records()) + len(new.Records()))
		for si := range calls {
			if got := calls[si].Load(); got != want {
				t.Errorf("%s: strategy %d keyed %d records over the link, want %d (each record once)", scheme, si, got, want)
			}
		}
		tab, raw := rs.sim.tab, 0
		for i := 0; i < tab.Rows(); i++ {
			raw += tab.Raw(i)
		}
		if raw != blocked[0] {
			t.Errorf("%s: candidate table holds %d raw hits, first iteration Blocked %d", scheme, raw, blocked[0])
		}
	}
}
