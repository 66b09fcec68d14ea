// Stages of Algorithm 1 (DESIGN.md §14). One LinkContext call builds one
// runState, and the executor in iterative.go drives the stages over it in
// order: build_graphs and compile once, then per δ prematch →
// candidate_groups → subgraph_match → selection, and finally the remainder
// pass. Each stage is a plain function or runState method timed under its
// obs stage name.
package linkage

import (
	"context"

	"censuslink/internal/census"
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
	// groupBuf is the candidate_groups stage's buffer, reused across δ.
	groupBuf []uint64
	// sim scores pre-matching and the transitively linked vertex pairs of
	// the subgraph stage; rem scores the remainder pass with Sim_func_rem.
	// Both read the one candidate table, share the active-record mask the
	// δ loop narrows and live for the whole call. sim also keeps every
	// table entry's resumable score, so each pass continues a pair's
	// scoring where the previous pass stopped.
	sim *preMatcher
	rem *compiledPair
}

// runHook is the executor's one test seam; it is nil in production. It is
// called after each δ's pre-match, before subgraph matching (pre set, rem
// nil), and after the remainder scan (pre nil, rem the remainder links),
// with the records that were still unlinked when the pass ran.
type runHook func(rs *runState, delta float64, remOld, remNew []*census.Record, pre *PreMatchResult, rem []RecordLink)

// buildGraphs is the build_graphs stage: it enriches every household graph
// of both datasets once and derives the group-match configuration from the
// census interval.
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
			VertexGuards:       cfg.VertexGuards,
		},
		oldHH: newHouseholdIndex(oldDS, buildAll(oldDS)),
		newHH: newHouseholdIndex(newDS, buildAll(newDS)),
	}, nil
}

// compile is the compile stage: it interns both datasets against each
// similarity function, and builds the blocking index once per year pair
// and queries it once per old record into the candidate table every later
// pass reads. The index itself does not outlive the stage.
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
	active := make([]bool, len(newRecs))
	rs.sim = newPreMatcher(&compiledPair{eng: rs.cfg.Sim.Compile(oldRecs, newRecs), tab: tab, active: active})
	rs.rem = &compiledPair{eng: rs.cfg.Remainder.Compile(oldRecs, newRecs), tab: tab, active: active}
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
	rs.sim.flushCounters(rs.cfg.Obs)
	return pre, err
}

// candidateGroups is the candidate_groups stage. The returned pairs live
// in the run's buffer until the next δ's call.
func (rs *runState) candidateGroups(pre *PreMatchResult) []uint64 {
	stop := rs.cfg.Obs.Stage("candidate_groups")
	defer stop()
	rs.groupBuf = candidateGroupPairs(pre, rs.oldHH, rs.newHH, rs.groupBuf)
	return rs.groupBuf
}

// subgraphMatch is the subgraph_match stage: the position view of the pass,
// then MatchGroups over every candidate group pair on the chunk pool, one
// pair per chunk. A failure names its group pair in PipelineError.Group,
// and under PanicSkip only the poisoned pair is dropped. Subgraphs come
// out in pair order.
func (rs *runState) subgraphMatch(ctx context.Context, delta float64, pairs []uint64, pre *PreMatchResult) ([]*Subgraph, error) {
	stop := rs.cfg.Obs.Stage("subgraph_match")
	gm := NewGroupMatcher(pre, rs.sim.eng, delta, rs.match)
	slots := make([]*Subgraph, len(pairs))
	_, err := runChunks(ctx, "subgraph_match", delta, len(pairs), 1, rs.cfg.Workers, rs.cfg.Panics, rs.cfg.Obs,
		func(ci, _, _ int) error {
			ho, hn := unpackPair(pairs[ci])
			slots[ci] = gm.MatchGroups(rs.oldHH.graphs[ho], rs.newHH.graphs[hn])
			return nil
		})
	stop()
	if err != nil {
		if pe, ok := err.(*PipelineError); ok && pe.Chunk >= 0 {
			pe.Group, pe.Chunk = groupPair(pairs[pe.Chunk], rs.oldHH, rs.newHH), -1
		}
		return nil, err
	}
	subs := slots[:0]
	for _, s := range slots {
		if s != nil {
			subs = append(subs, s)
		}
	}
	return subs, nil
}

// remainder is the remainder stage: the attribute-only pass (line 17 of
// Algorithm 1) over the records no iteration linked.
func (rs *runState) remainder(ctx context.Context, remOld, remNew []*census.Record) ([]RecordLink, error) {
	stop := rs.cfg.Obs.Stage("remainder")
	rs.rem.setActive(remNew)
	links, err := matchRemainder(ctx, remOld, remNew, rs.cfg.Remainder, rs.match,
		rs.rem, rs.cfg.OptimalRemainder)
	stop()
	rs.rem.flushCounters(rs.cfg.Obs)
	return links, err
}
