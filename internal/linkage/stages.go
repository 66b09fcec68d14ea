// Stages of Algorithm 1 (DESIGN.md §14). One LinkContext call builds one
// runState, and the executor in iterative.go drives the stages over it in
// order: build_graphs and compile once, then per δ prematch →
// subgraph_match → selection, and finally the remainder pass. Each stage
// is a plain function or runState method timed under its obs stage name.
package linkage

import (
	"context"

	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/hgraph"
	"censuslink/internal/obs"
)

// runState is the per-run state of one LinkContext call: the two datasets,
// the subgraph-matching configuration, the household graphs and the two
// resident compiled engines.
type runState struct {
	cfg      Config
	old, new *census.Dataset
	// match is the subgraph-matching configuration (τ, year gap, α, β and
	// the ablation toggles) shared by the subgraph and remainder stages.
	match MatchConfig
	// oldHH and newHH number each dataset's households by record position
	// and hold one household graph per household number (completeGroups of
	// Algorithm 1).
	oldHH, newHH householdIndex
	// groups is the subgraph_match stage's link offsets and per-chunk
	// buffers, reused across δ.
	groups groupStage
	// sim scores pre-matching and the transitively linked vertex pairs of
	// the subgraph stage; rem scores the remainder pass with Sim_func_rem,
	// through sim's engine when the two compile alike.
	// Both read the one candidate table, share the active-record mask the
	// δ loop narrows and live for the whole call. sim also keeps every
	// table entry's resumable score, so each pass continues a pair's
	// scoring where the previous pass stopped, and one similarity cache
	// per pre-match chunk.
	sim *preMatcher
	rem *compiledPair
}

// runHook is the executor's one test seam; it is nil in production. It is
// called after each δ's pre-match, before subgraph matching (pre set, rem
// nil), and after the remainder scan (pre nil, rem the remainder links),
// with the records that were still unlinked when the pass ran.
type runHook func(rs *runState, delta float64, remOld, remNew []*census.Record, pre *PreMatchResult, rem []RecordLink)

// buildGraphs is the build_graphs stage: it enriches every household graph
// of both datasets once, the two datasets in chunks of their own on the
// pool, and derives the group-match configuration from the census
// interval. A failed chunk fails the stage under either panic policy: a
// link cannot go on without a year's households.
func buildGraphs(ctx context.Context, oldDS, newDS *census.Dataset, cfg Config) (*runState, error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr("build_graphs", 0, err)
	}
	stop := cfg.Obs.Stage("build_graphs")
	defer stop()
	buildAll := hgraph.BuildAll
	if cfg.GraphCache != nil {
		buildAll = cfg.GraphCache.BuildAll
	}
	ds := [2]*census.Dataset{oldDS, newDS}
	var hh [2]householdIndex
	if err := runAll(ctx, "build_graphs", 2, cfg.Workers, func(i int) {
		hh[i] = newHouseholdIndex(ds[i], buildAll(ds[i]))
	}); err != nil {
		return nil, err
	}
	return &runState{
		cfg: cfg,
		old: oldDS,
		new: newDS,
		match: MatchConfig{
			AgeTolerance:       cfg.AgeTolerance,
			YearGap:            newDS.Year - oldDS.Year,
			Alpha:              cfg.Alpha,
			Beta:               cfg.Beta,
			DirectVerticesOnly: cfg.DirectVerticesOnly,
		},
		oldHH: hh[0],
		newHH: hh[1],
	}, nil
}

// compile is the compile stage: it builds the blocking index once per
// year pair and queries it once per old record into the candidate table
// every later pass reads, and interns both datasets against each
// similarity function. The index itself does not outlive the stage. When
// Sim_func_rem compiles like Sim_func (SimFunc.compilesLike), as in
// DefaultConfig, the remainder pass scores through the Sim engine, which
// is stateless, instead of interning the datasets a second time.
func (rs *runState) compile(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return cancelErr("compile", 0, err)
	}
	stop := rs.cfg.Obs.Stage("compile")
	defer stop()
	oldRecs, newRecs := rs.old.Records(), rs.new.Records()
	tab, err := compileTable(ctx, oldRecs, rs.old.Year, newRecs, rs.new.Year, rs.cfg.Strategies,
		rs.cfg.Workers, rs.cfg.Panics, rs.cfg.Obs)
	if err != nil {
		return err
	}
	sim, err := rs.cfg.Sim.compile(ctx, oldRecs, newRecs, rs.cfg.Workers)
	if err != nil {
		return err
	}
	rem := sim
	if !rs.cfg.Remainder.compilesLike(rs.cfg.Sim) {
		if rem, err = rs.cfg.Remainder.compile(ctx, oldRecs, newRecs, rs.cfg.Workers); err != nil {
			return err
		}
	}
	active := make([]bool, len(newRecs))
	rs.sim = newPreMatcher(&compiledPair{eng: sim, tab: tab, active: active})
	rs.rem = &compiledPair{eng: rem, tab: tab, active: active}
	rs.cfg.Obs.Add(obs.CandidateTablePairs, tab.Pairs())
	rs.cfg.Obs.Add(obs.CandidateTableBytes, rs.sim.bytes())
	return nil
}

// prematch is the prematch stage: one δ pass over the remaining records,
// which scores their candidate-table entries and clusters the links.
func (rs *runState) prematch(ctx context.Context, delta float64, remOld, remNew []*census.Record) (*PreMatchResult, error) {
	stop := rs.cfg.Obs.Stage("prematch")
	rs.sim.setActive(remNew)
	oldPos := make([]int32, 0, len(remOld))
	for _, o := range remOld {
		if i, ok := rs.sim.eng.Old.Pos(o.ID); ok {
			oldPos = append(oldPos, int32(i))
		}
	}
	pre, err := rs.sim.preMatch(ctx, oldPos, delta, rs.cfg.Workers, rs.cfg.Panics, rs.cfg.Obs)
	stop()
	return pre, err
}

// subgraphMatch is the subgraph_match stage: the position view of the
// pass, then every group pair its links connect matched on the chunk pool
// in chunks of old households (groupStage.run). It returns the subgraphs
// in ascending pair order, the number of linked group pairs and the number
// that passed the matcher's first test.
func (rs *runState) subgraphMatch(ctx context.Context, delta float64, pre *PreMatchResult) ([]*Subgraph, int, int, error) {
	stop := rs.cfg.Obs.Stage("subgraph_match")
	defer stop()
	gm := NewGroupMatcher(pre, rs.sim.eng, rs.match)
	return rs.groups.run(ctx, delta, gm, &rs.oldHH, &rs.newHH, rs.cfg.Workers, rs.cfg.Panics, rs.cfg.Obs)
}

// remainder is the remainder stage: the attribute-only pass (line 17 of
// Algorithm 1) over the records no iteration linked. When it scores
// through the Sim engine it reuses the first pre-match chunk's similarity
// cache, warm from the δ passes; otherwise it makes one for its engine.
func (rs *runState) remainder(ctx context.Context, remOld, remNew []*census.Record) ([]RecordLink, error) {
	stop := rs.cfg.Obs.Stage("remainder")
	rs.rem.setActive(remNew)
	var c *compare.SimCache
	if rs.rem.eng == rs.sim.eng && len(rs.sim.caches) > 0 {
		c = rs.sim.caches[0]
	} else {
		c = rs.rem.eng.NewSimCache()
	}
	links, err := matchRemainder(ctx, remOld, rs.cfg.Remainder, rs.match, rs.rem, c, rs.cfg.Obs)
	stop()
	return links, err
}
