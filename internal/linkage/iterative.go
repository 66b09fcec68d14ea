package linkage

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"censuslink/internal/assign"
	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/faultinject"
	"censuslink/internal/hgraph"
	"censuslink/internal/obs"
)

// Config holds all parameters of the iterative record and group linkage
// (the input list of Algorithm 1).
type Config struct {
	// Sim is the record similarity function Sim_func; its Delta field is
	// overridden by the iteration thresholds below.
	Sim SimFunc
	// DeltaHigh, DeltaLow and DeltaStep control the threshold relaxation:
	// iterations run at δ = DeltaHigh, DeltaHigh-Δ, ... down to DeltaLow.
	// Setting DeltaHigh == DeltaLow yields the non-iterative one-shot
	// variant evaluated in Table 5.
	DeltaHigh, DeltaLow, DeltaStep float64
	// Alpha and Beta weight avg_sim and e_sim in the aggregated group
	// similarity (uniqueness gets 1-Alpha-Beta).
	Alpha, Beta float64
	// AgeTolerance is τ: the acceptable deviation of edge age differences
	// and of record age gaps from the census interval.
	AgeTolerance int
	// Remainder is Sim_func_rem used to match records left over after the
	// subgraph-based iterations; its own Delta applies.
	Remainder SimFunc
	// Strategies is the blocking configuration for candidate generation.
	Strategies []block.Strategy
	// Workers bounds the pre-matching and subgraph-matching worker pools;
	// <= 0 means GOMAXPROCS.
	Workers int
	// StopOnEmpty terminates the loop as soon as an iteration yields no new
	// group links (the M_G^p = ∅ condition of Algorithm 1). Enabled in the
	// default configuration.
	StopOnEmpty bool
	// DirectVerticesOnly restricts subgraph vertices to directly compared
	// pairs (ablation; the paper uses cluster labels, see MatchConfig).
	DirectVerticesOnly bool
	// VertexGuards enables extra vertex-level sanity guards beyond the
	// paper (see MatchConfig.VertexGuards).
	VertexGuards bool
	// OptimalRemainder solves the leftover 1:1 matching optimally (maximum
	// total similarity via the Hungarian algorithm) instead of greedily.
	OptimalRemainder bool
	// Panics selects what a pool-worker panic does to the run: abort with a
	// typed *PipelineError naming the offending work item (PanicFailFast,
	// the default), or skip the poisoned item, count it on the
	// obs.PanicsRecovered counter and complete on the remaining work
	// (PanicSkip).
	Panics PanicPolicy
	// Obs, when non-nil, collects stage timings and per-iteration counters
	// for the run (see internal/obs). Nil disables observability; the
	// pipeline never logs on its own.
	Obs *obs.Stats
	// GraphCache, when non-nil, memoizes household-graph enrichment per
	// dataset content hash, so a process linking many year pairs over a
	// shared series (LinkSeriesOpts, the linkserver, an append-only evolution
	// build) enriches each census year once instead of once per pair. Like
	// Workers this is an execution knob: results are identical with or
	// without it and Fingerprint ignores it.
	GraphCache *hgraph.Cache
}

// DefaultConfig returns the paper's best configuration: ω2 pre-matching with
// δ_high=0.7, Δ=0.05, δ_low=0.5, group-selection weights (α, β)=(0.2, 0.7)
// and an age tolerance of 3 years.
func DefaultConfig() Config {
	return Config{
		Sim:          OmegaTwo(0.7),
		DeltaHigh:    0.7,
		DeltaLow:     0.5,
		DeltaStep:    0.05,
		Alpha:        0.2,
		Beta:         0.7,
		AgeTolerance: 3,
		Remainder:    OmegaTwo(0.75),
		Strategies:   block.DefaultStrategies(),
		StopOnEmpty:  true,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	if err := c.Remainder.Validate(); err != nil {
		return fmt.Errorf("linkage: remainder: %w", err)
	}
	if !(c.DeltaHigh >= 0 && c.DeltaHigh <= 1) || !(c.DeltaLow >= 0 && c.DeltaLow <= 1) {
		return fmt.Errorf("linkage: delta_high %v and delta_low %v must lie in [0, 1]", c.DeltaHigh, c.DeltaLow)
	}
	if c.DeltaHigh < c.DeltaLow {
		return fmt.Errorf("linkage: delta_high %.3f below delta_low %.3f", c.DeltaHigh, c.DeltaLow)
	}
	if c.DeltaHigh > c.DeltaLow {
		// roundDelta snaps every δ to a 1e-9 grid, so a finer step would
		// repeat thresholds.
		if !(c.DeltaStep >= 1e-9 && c.DeltaStep <= 1) {
			return fmt.Errorf("linkage: delta_step %v must lie in [1e-9, 1]", c.DeltaStep)
		}
		if n := c.deltaPasses(); n > maxDeltaPasses {
			return fmt.Errorf("linkage: delta schedule %v→%v by %v has %d passes, at most %d",
				c.DeltaHigh, c.DeltaLow, c.DeltaStep, n, maxDeltaPasses)
		}
	}
	if c.Alpha < 0 || c.Beta < 0 || c.Alpha+c.Beta > 1.0001 {
		return fmt.Errorf("linkage: invalid group weights alpha=%.2f beta=%.2f", c.Alpha, c.Beta)
	}
	if c.AgeTolerance < 0 {
		return fmt.Errorf("linkage: negative age tolerance %d", c.AgeTolerance)
	}
	if len(c.Strategies) == 0 {
		return fmt.Errorf("linkage: no blocking strategies configured")
	}
	return nil
}

// deltaSchedule returns the pre-matching thresholds of Algorithm 1 in
// descending order. Each δ is computed from the iteration index
// (DeltaHigh - i*DeltaStep, snapped to the decimal grid) rather than by
// repeated subtraction, so binary floating-point drift cannot leak values
// like 0.6000000000000001 into IterationStats, LinkSource provenance, obs
// snapshots or JSON reports. The final threshold is clamped to exactly
// DeltaLow, so the paper-mandated δ_low iteration runs even when
// DeltaHigh-DeltaLow is not an integer multiple of DeltaStep.
func (c Config) deltaSchedule() []float64 {
	if c.DeltaHigh <= c.DeltaLow || c.DeltaStep <= 0 {
		return []float64{c.DeltaLow} // one-shot configuration
	}
	var out []float64
	for i := 0; ; i++ {
		d := roundDelta(c.DeltaHigh - float64(i)*c.DeltaStep)
		if d <= c.DeltaLow {
			return append(out, c.DeltaLow)
		}
		out = append(out, d)
	}
}

// maxDeltaPasses bounds the length of the δ schedule Validate accepts.
const maxDeltaPasses = 1000

// deltaPasses returns len(c.deltaSchedule()) without building it: one pass
// per threshold above DeltaLow plus the clamped final one. The quotient
// only estimates the first index whose snapped threshold reaches DeltaLow,
// so it is corrected by the schedule's own test, which is monotone in the
// index.
func (c Config) deltaPasses() int {
	if c.DeltaHigh <= c.DeltaLow || c.DeltaStep <= 0 {
		return 1
	}
	reached := func(i int) bool { return roundDelta(c.DeltaHigh-float64(i)*c.DeltaStep) <= c.DeltaLow }
	k := int(math.Ceil((c.DeltaHigh - c.DeltaLow) / c.DeltaStep))
	for k > 0 && reached(k-1) {
		k--
	}
	for !reached(k) {
		k++
	}
	return k + 1
}

// roundDelta snaps a computed threshold to nine decimal places, more than
// enough for any configured step while absorbing one multiply's rounding
// error.
func roundDelta(x float64) float64 { return math.Round(x*1e9) / 1e9 }

// IterationStats reports what one relaxation round contributed.
type IterationStats struct {
	Delta          float64
	ComparedPairs  int
	CandidateLinks int // pre-matching links above δ
	GroupPairs     int // candidate group pairs examined
	NewGroupLinks  int
	NewRecordLinks int
	RemainingOld   int // unlinked old records after the round
	RemainingNew   int
}

// SourceKind distinguishes how a record link was found.
type SourceKind int

// Record-link sources.
const (
	// SourceSubgraph marks links extracted from an accepted subgraph.
	SourceSubgraph SourceKind = iota
	// SourceRemainder marks links from the final Sim_func_rem pass.
	SourceRemainder
)

// String names the source kind.
func (k SourceKind) String() string {
	if k == SourceRemainder {
		return "remainder"
	}
	return "subgraph"
}

// LinkSource is the provenance of one record link: the pipeline stage that
// produced it, the threshold in effect, and (for subgraph links) the
// supporting group pair and its aggregated similarity.
type LinkSource struct {
	Kind  SourceKind
	Delta float64   // pre-matching δ of the iteration, or Sim_func_rem's δ
	Group GroupPair // supporting group pair (subgraph links only)
	GSim  float64   // the supporting subgraph's g_sim (subgraph links only)
}

// Result is the output of Algorithm 1: the 1:1 record mapping M_R, the N:M
// group mapping M_G, per-iteration statistics and per-link provenance.
type Result struct {
	RecordLinks []RecordLink
	GroupLinks  []GroupLink
	Iterations  []IterationStats
	// Sources records, for every record link, which stage produced it.
	Sources map[Pair]LinkSource
	// RemainderRecordLinks counts how many record links came from the final
	// Sim_func_rem pass rather than from subgraph matching.
	RemainderRecordLinks int
	// RemainderGroupLinks counts group links derived from those leftovers.
	RemainderGroupLinks int
}

// LinkContext runs the full iterative record and group linkage
// (Algorithm 1) between two successive census datasets. The iteration loop,
// the pre-matching chunk workers, the subgraph-match worker pool and the
// remainder pass all observe ctx at checkpoints, so a deadline or SIGINT
// aborts the run promptly with a *PipelineError wrapping ctx.Err()
// (errors.Is sees context.Canceled / context.DeadlineExceeded) instead of
// wedging the process. Worker panics are isolated per Config.Panics.
//
// LinkContext validates the configuration and hands control to the
// executor below.
func LinkContext(ctx context.Context, oldDS, newDS *census.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return link(ctx, oldDS, newDS, cfg, nil)
}

// link is the executor of Algorithm 1. All cross-stage state — the
// remaining record lists, the seen-group dedup, provenance, iteration
// statistics — lives here; the stages only transform their typed artifacts.
func link(ctx context.Context, oldDS, newDS *census.Dataset, cfg Config, hook runHook) (*Result, error) {
	rs, err := buildGraphs(ctx, oldDS, newDS, cfg)
	if err != nil {
		return nil, err
	}
	if err := rs.compile(ctx); err != nil {
		return nil, err
	}

	res := &Result{Sources: make(map[Pair]LinkSource)}
	remainingOld := append([]*census.Record(nil), oldDS.Records()...)
	remainingNew := append([]*census.Record(nil), newDS.Records()...)
	groupSeen := make(map[GroupPair]bool)

	for _, delta := range cfg.deltaSchedule() {
		if err := ctx.Err(); err != nil {
			return nil, cancelErr("iterate", delta, err)
		}
		cfg.Obs.BeginIteration(delta)
		pre, err := rs.prematch(ctx, delta, remainingOld, remainingNew)
		if err != nil {
			cfg.Obs.EndIteration()
			return nil, err
		}
		if hook != nil {
			hook(rs, delta, remainingOld, remainingNew, pre, nil)
		}
		cfg.Obs.Add(obs.BlockingPairs, pre.Blocked)
		cfg.Obs.Add(obs.PairsCompared, pre.Compared)
		cfg.Obs.Add(obs.CandidateLinks, len(pre.Links))
		cfg.Obs.Add(obs.ClusterLabels, len(pre.LabelSize))
		pairs := rs.candidateGroups(pre)
		cfg.Obs.Add(obs.GroupPairs, len(pairs))
		subs, err := rs.subgraphMatch(ctx, delta, pairs, pre)
		if err != nil {
			cfg.Obs.EndIteration()
			return nil, err
		}
		cfg.Obs.Add(obs.Subgraphs, len(subs))
		stop := cfg.Obs.Stage("selection")
		accepted := SelectGroupLinks(subs)
		stop()
		var groups []GroupLink
		var records []RecordLink
		for _, acc := range accepted {
			groups = append(groups, acc.Group)
			records = append(records, acc.Records...)
			for _, l := range acc.Records {
				res.Sources[Pair{Old: l.Old, New: l.New}] = LinkSource{
					Kind:  SourceSubgraph,
					Delta: delta,
					Group: GroupPair(acc.Group),
					GSim:  acc.GSim,
				}
			}
		}

		newGroups := 0
		for _, g := range groups {
			gp := GroupPair(g)
			if !groupSeen[gp] {
				groupSeen[gp] = true
				res.GroupLinks = append(res.GroupLinks, g)
				newGroups++
			}
		}
		res.RecordLinks = append(res.RecordLinks, records...)
		remainingOld = withoutLinked(remainingOld, records, true)
		remainingNew = withoutLinked(remainingNew, records, false)

		res.Iterations = append(res.Iterations, IterationStats{
			Delta:          delta,
			ComparedPairs:  pre.Compared,
			CandidateLinks: len(pre.Links),
			GroupPairs:     len(pairs),
			NewGroupLinks:  newGroups,
			NewRecordLinks: len(records),
			RemainingOld:   len(remainingOld),
			RemainingNew:   len(remainingNew),
		})
		cfg.Obs.Add(obs.GroupLinks, newGroups)
		cfg.Obs.Add(obs.RecordLinks, len(records))
		cfg.Obs.EndIteration()
		if cfg.StopOnEmpty && len(groups) == 0 {
			break
		}
	}

	// Match the remaining records attribute-only (line 17 of Algorithm 1).
	remLinks, err := rs.remainder(ctx, remainingOld, remainingNew)
	if err != nil {
		return nil, err
	}
	if hook != nil {
		hook(rs, cfg.Remainder.Delta, remainingOld, remainingNew, nil, remLinks)
	}
	cfg.Obs.Add(obs.RemainderLinks, len(remLinks))
	res.RecordLinks = append(res.RecordLinks, remLinks...)
	res.RemainderRecordLinks = len(remLinks)
	for _, l := range remLinks {
		res.Sources[Pair{Old: l.Old, New: l.New}] = LinkSource{
			Kind:  SourceRemainder,
			Delta: cfg.Remainder.Delta,
		}
	}

	// extractGroupLinks: group pairs newly connected by the leftover links.
	for _, l := range remLinks {
		o, n := oldDS.Record(l.Old), newDS.Record(l.New)
		if o == nil || n == nil {
			continue
		}
		gp := GroupPair{Old: o.HouseholdID, New: n.HouseholdID}
		if !groupSeen[gp] {
			groupSeen[gp] = true
			res.GroupLinks = append(res.GroupLinks, GroupLink(gp))
			res.RemainderGroupLinks++
		}
	}
	cfg.Obs.Add(obs.RemainderGroupLinks, res.RemainderGroupLinks)

	sortLinks(res.RecordLinks)
	sort.Slice(res.GroupLinks, func(i, j int) bool {
		if res.GroupLinks[i].Old != res.GroupLinks[j].Old {
			return res.GroupLinks[i].Old < res.GroupLinks[j].Old
		}
		return res.GroupLinks[i].New < res.GroupLinks[j].New
	})
	return res, nil
}

// RemainderOptions configures one standalone leftover-matching pass (see
// MatchRemaining). The zero value of every field is usable: year 0, a
// greedy pass with no observability.
type RemainderOptions struct {
	// Sim is the attribute-only similarity function Sim_func_rem; its own
	// Delta applies.
	Sim SimFunc
	// OldYear and NewYear are the census years of the two record lists.
	OldYear, NewYear int
	// Match supplies the age-consistency guard (year gap and tolerance).
	Match MatchConfig
	// Strategies is the blocking configuration; it must not be empty.
	Strategies []block.Strategy
	// Optimal solves the 1:1 matching optimally (Hungarian) instead of
	// greedily by descending similarity.
	Optimal bool
	// Obs, when non-nil, receives the compiled engine's cache counters.
	Obs *obs.Stats
}

// MatchRemaining links leftover records with the attribute-only similarity
// function Sim_func_rem: blocked candidates above the threshold that are
// age-consistent with the census interval, selected into a 1:1 mapping —
// greedily by descending similarity, or optimally (maximum total similarity
// via the Hungarian algorithm) with opts.Optimal. It is the single
// standalone entry point of the remainder pass.
func MatchRemaining(ctx context.Context, old, new []*census.Record, opts RemainderOptions) ([]RecordLink, error) {
	tab, err := compileTable(ctx, old, opts.OldYear, new, opts.NewYear, opts.Strategies,
		0, PanicFailFast, nil)
	if err != nil {
		return nil, err
	}
	cp := &compiledPair{eng: opts.Sim.Compile(old, new), tab: tab, active: allActive(len(new))}
	defer cp.flushCounters(opts.Obs)
	return matchRemainder(ctx, old, new, opts.Sim, opts.Match, cp, opts.Optimal)
}

// matchRemainder is the remainder pass: after the remainder fault-injection
// checkpoint it collects the blocked, age-consistent candidate links with
// similarity at or above Sim_func_rem's δ — the candidate-table rows of the
// old records filtered by cp's active mask, scored through the compiled
// engine — and selects them into a 1:1 mapping, greedily or optimally. The
// candidate scan observes ctx every few records and aborts with a typed
// error; the assignment solve runs to completion (it is in-memory and brief
// relative to the scan). With a background context it never fails.
func matchRemainder(ctx context.Context, old, new []*census.Record,
	f SimFunc, cfg MatchConfig, cp *compiledPair, optimal bool) ([]RecordLink, error) {
	if err := faultinject.Hit("linkage.remainder"); err != nil {
		return nil, &PipelineError{Stage: "remainder", Delta: f.Delta, Chunk: -1, Err: err}
	}
	var cands []RecordLink
	for i, o := range old {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, cancelErr("remainder", f.Delta, err)
			}
		}
		oi, ok := cp.eng.Old.Pos(o.ID)
		if !ok {
			continue
		}
		for _, ni := range cp.tab.Row(oi) {
			if !cp.active[ni] {
				continue
			}
			n := cp.eng.New.Recs[ni]
			if !cfg.AgeConsistent(o, n) {
				continue
			}
			if s, hit := cp.eng.AggSimAtLeast(oi, int(ni), f.Delta); hit {
				cands = append(cands, RecordLink{Old: o.ID, New: n.ID, Sim: s})
			}
		}
	}
	if optimal {
		return optimalRemainder(cands, old, new), nil
	}
	return greedyRemainder(cands), nil
}

// greedyRemainder selects a 1:1 mapping from the candidate links greedily by
// descending similarity (ties broken by record IDs, so the result is
// deterministic regardless of candidate order).
func greedyRemainder(cands []RecordLink) []RecordLink {
	cands = append([]RecordLink(nil), cands...)
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Sim != b.Sim {
			return a.Sim > b.Sim
		}
		if a.Old != b.Old {
			return a.Old < b.Old
		}
		return a.New < b.New
	})
	usedOld := make(map[string]bool)
	usedNew := make(map[string]bool)
	var out []RecordLink
	for _, c := range cands {
		if usedOld[c.Old] || usedNew[c.New] {
			continue
		}
		usedOld[c.Old] = true
		usedNew[c.New] = true
		out = append(out, c)
	}
	return out
}

// optimalRemainder selects the 1:1 mapping of maximum total similarity over
// the candidate links with the Hungarian algorithm (per connected candidate
// component), sorted by record IDs. The solver breaks ties by element and
// edge order, so it is given both record lists and the candidates sorted
// by record ID: the mapping then does not depend on the datasets' row
// order.
func optimalRemainder(cands []RecordLink, old, new []*census.Record) []RecordLink {
	byID := func(a, b *census.Record) int { return strings.Compare(a.ID, b.ID) }
	old, new, cands = slices.Clone(old), slices.Clone(new), slices.Clone(cands)
	slices.SortFunc(old, byID)
	slices.SortFunc(new, byID)
	sortLinks(cands)
	oldIdx := make(map[string]int, len(old))
	for i, r := range old {
		oldIdx[r.ID] = i
	}
	newIdx := make(map[string]int, len(new))
	for i, r := range new {
		newIdx[r.ID] = i
	}
	edges := make([]assign.Edge, 0, len(cands))
	for _, c := range cands {
		edges = append(edges, assign.Edge{Left: oldIdx[c.Old], Right: newIdx[c.New], Weight: c.Sim})
	}
	match := assign.Max(len(old), len(new), edges)
	sims := make(map[[2]int]float64, len(edges))
	for _, e := range edges {
		k := [2]int{e.Left, e.Right}
		if e.Weight > sims[k] {
			sims[k] = e.Weight
		}
	}
	var out []RecordLink
	for l, r := range match {
		if r >= 0 {
			out = append(out, RecordLink{Old: old[l].ID, New: new[r].ID, Sim: sims[[2]int{l, r}]})
		}
	}
	return out
}

// sortLinks sorts record links by old and then new record ID.
func sortLinks(links []RecordLink) {
	slices.SortFunc(links, func(a, b RecordLink) int {
		return cmp.Or(strings.Compare(a.Old, b.Old), strings.Compare(a.New, b.New))
	})
}

// withoutLinked filters out the records that appear on the given side of any
// link, preserving order (nonMatchedRecords of Algorithm 1).
func withoutLinked(recs []*census.Record, links []RecordLink, oldSide bool) []*census.Record {
	if len(links) == 0 {
		return recs
	}
	linked := make(map[string]bool, len(links))
	for _, l := range links {
		if oldSide {
			linked[l.Old] = true
		} else {
			linked[l.New] = true
		}
	}
	out := recs[:0]
	for _, r := range recs {
		if !linked[r.ID] {
			out = append(out, r)
		}
	}
	return out
}
