// Stage layer of the linkage pipeline (DESIGN.md §14): Algorithm 1 is
// decomposed into explicit stages — Enrich, Block, PreMatch, SubgraphMatch,
// Select and the final Remainder pass — each behind a small interface that
// consumes and produces typed artifacts and carries the existing
// ctx/obs/faultinject plumbing. Link/LinkContext compose the stages through
// the executor in iterative.go; the sharded stage variants live in shard.go.
//
// The stage interfaces live inside package linkage rather than a separate
// pipeline package because the artifacts they exchange (PreMatchResult,
// Subgraph, compiled engine state) are the package's own types — a child
// package would need them all exported and would import-cycle back.
package linkage

import (
	"context"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/hgraph"
)

// Enriched is the artifact of the Enrich stage: the two datasets with every
// household graph materialized (completeGroups of Algorithm 1) and the
// group-match configuration derived from the census interval.
type Enriched struct {
	Old, New *census.Dataset
	// Match is the subgraph-matching configuration (τ, year gap, α, β and
	// the ablation toggles) shared by the SubgraphMatch and Remainder
	// stages.
	Match MatchConfig
	// OldGraphs and NewGraphs hold one household graph per household ID.
	OldGraphs, NewGraphs map[string]*hgraph.Graph
}

// Partition is one shard of the record space: the old- and new-dataset
// records whose blocking keys hash to this shard, in dataset order. A
// record carrying keys that hash to several shards is replicated into each,
// so the union of per-shard candidate pairs is exactly the global candidate
// pair set (duplicates are deduplicated at merge time).
type Partition struct {
	Index    int
	Old, New []*census.Record
}

// Partitions is the artifact of the Block stage: the shard layout of the
// record space, plus — on the resident single-shard path — the compiled
// engine state that lives for the whole run.
type Partitions struct {
	// K is the shard count (1 = unsharded).
	K                int
	OldYear, NewYear int
	Parts            []*Partition
	// resident holds the compiled engines and shared blocking index of the
	// K==1 compiled path; nil under the naive engine or when sharded (the
	// sharded stages build transient per-shard state instead).
	resident *residentState
	// match is the full-dataset Sim engine the SubgraphMatch stage scores
	// transitively linked vertex pairs through: resident.sim on the
	// resident path, otherwise an engine compiled for that stage alone.
	match *compiledPair
}

// residentState is the per-run compiled state of the unsharded path: one
// memoizing engine per similarity function, sharing the full-dataset
// blocking index and active mask across δ-iterations.
type residentState struct {
	sim, rem *compiledPair
}

// Enricher prepares the household graphs and match configuration of a year
// pair.
type Enricher interface {
	Enrich(ctx context.Context, oldDS, newDS *census.Dataset) (*Enriched, error)
}

// Blocker lays out the record space into partitions (and, on the resident
// path, compiles the engines).
type Blocker interface {
	Block(ctx context.Context, enr *Enriched) (*Partitions, error)
}

// PreMatcher runs one δ pre-matching pass (Section 3.2) over the remaining
// unlinked records and returns the candidate record links with their
// transitive-closure cluster labels.
type PreMatcher interface {
	PreMatch(ctx context.Context, parts *Partitions, delta float64, remOld, remNew []*census.Record) (*PreMatchResult, error)
}

// SubgraphMatcher matches the candidate group pairs' household graphs
// (Section 3.3) into scored subgraphs.
type SubgraphMatcher interface {
	MatchSubgraphs(ctx context.Context, enr *Enriched, parts *Partitions, delta float64, pairs []GroupPair, pre *PreMatchResult) ([]*Subgraph, error)
}

// Selector is Algorithm 2: the record-disjoint greedy selection of group
// links by descending aggregated similarity.
type Selector interface {
	Select(subs []*Subgraph) []Accepted
}

// RemainderMatcher is the final attribute-only pass (line 17 of
// Algorithm 1) over the records no iteration linked.
type RemainderMatcher interface {
	MatchRemainder(ctx context.Context, enr *Enriched, parts *Partitions, remOld, remNew []*census.Record) ([]RecordLink, error)
}

// graphEnricher is the default Enrich stage: hgraph.BuildAll over both
// datasets under the build_graphs timer.
type graphEnricher struct{ cfg Config }

func (g *graphEnricher) Enrich(ctx context.Context, oldDS, newDS *census.Dataset) (*Enriched, error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr("build_graphs", 0, err)
	}
	stop := g.cfg.Obs.Stage("build_graphs")
	defer stop()
	buildAll := hgraph.BuildAll
	if g.cfg.GraphCache != nil {
		buildAll = g.cfg.GraphCache.BuildAll
	}
	return &Enriched{
		Old: oldDS,
		New: newDS,
		Match: MatchConfig{
			AgeTolerance:       g.cfg.AgeTolerance,
			YearGap:            newDS.Year - oldDS.Year,
			Alpha:              g.cfg.Alpha,
			Beta:               g.cfg.Beta,
			DirectVerticesOnly: g.cfg.DirectVerticesOnly,
			VertexGuards:       g.cfg.VertexGuards,
		},
		OldGraphs: buildAll(oldDS),
		NewGraphs: buildAll(newDS),
	}, nil
}

// keyBlocker is the default Block stage. Unsharded it exposes the full
// record lists as one partition and compiles the resident engines; sharded
// it hashes every blocking key into one of K shards and replicates each
// record into the shards its keys map to (shard.go).
type keyBlocker struct{ cfg Config }

func (b *keyBlocker) Block(ctx context.Context, enr *Enriched) (*Partitions, error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr("block", 0, err)
	}
	parts := &Partitions{K: 1, OldYear: enr.Old.Year, NewYear: enr.New.Year}
	oldRecs, newRecs := enr.Old.Records(), enr.New.Records()
	if b.cfg.Shards > 1 {
		stop := b.cfg.Obs.Stage("block_partition")
		parts.K = b.cfg.Shards
		parts.Parts = partitionRecords(oldRecs, enr.Old.Year,
			newRecs, enr.New.Year, b.cfg.Strategies, b.cfg.Shards)
		stop()
	} else {
		parts.Parts = []*Partition{{Old: oldRecs, New: newRecs}}
	}
	stop := b.cfg.Obs.Stage("compile")
	defer stop()
	if b.cfg.Shards > 1 || b.cfg.Engine != EngineCompiled {
		// The naive and sharded stages hold no full-dataset engine, so the
		// subgraph stage gets one of its own.
		parts.match = &compiledPair{eng: b.cfg.Sim.Compile(oldRecs, newRecs)}
		return parts, nil
	}
	// Compiled resident path: intern both datasets and build the blocking
	// index once per year-pair. The engines (and their distinct-pair memo
	// tables) live for the whole call, so similarities computed at a higher
	// δ are reused verbatim at relaxed thresholds and by the subgraph stage,
	// and the iteration loop only narrows the shared active mask instead of
	// rebuilding the index.
	fullIx := block.NewIndex(newRecs, enr.New.Year, b.cfg.Strategies)
	active := make([]bool, len(newRecs))
	parts.resident = &residentState{
		sim: &compiledPair{eng: b.cfg.Sim.Compile(oldRecs, newRecs), ix: fullIx, active: active},
		rem: &compiledPair{eng: b.cfg.Remainder.Compile(oldRecs, newRecs), ix: fullIx, active: active},
	}
	parts.match = parts.resident.sim
	return parts, nil
}

// residentPreMatcher is the unsharded PreMatch stage: one preMatch pass over
// the remaining records, through the resident compiled pair when present.
type residentPreMatcher struct{ cfg Config }

func (m *residentPreMatcher) PreMatch(ctx context.Context, parts *Partitions, delta float64, remOld, remNew []*census.Record) (*PreMatchResult, error) {
	f := m.cfg.Sim.WithDelta(delta)
	var cp *compiledPair
	if parts.resident != nil {
		cp = parts.resident.sim
	}
	stop := m.cfg.Obs.Stage("prematch")
	if cp != nil {
		cp.setActive(remNew)
	}
	pre, err := preMatch(ctx, remOld, parts.OldYear, remNew, parts.NewYear, f,
		m.cfg.Strategies, m.cfg.Workers, m.cfg.Panics, m.cfg.Obs, cp)
	stop()
	if cp != nil {
		cp.flushCounters(m.cfg.Obs)
	}
	return pre, err
}

// poolSubgraphMatcher is the default SubgraphMatch stage: the position view
// of the pass, then MatchGroups over every candidate group pair on a bounded
// worker pool (group pairs are the natural subgraph partition — the stage
// holds no per-shard index state, so it needs no sharded variant).
type poolSubgraphMatcher struct{ cfg Config }

func (m *poolSubgraphMatcher) MatchSubgraphs(ctx context.Context, enr *Enriched, parts *Partitions, delta float64, pairs []GroupPair, pre *PreMatchResult) ([]*Subgraph, error) {
	stop := m.cfg.Obs.Stage("subgraph_match")
	gm := NewGroupMatcher(pre, parts.match.eng, delta, enr.Match)
	subs, err := matchGroupsParallel(ctx, delta, pairs, enr.OldGraphs, enr.NewGraphs,
		gm, m.cfg.Workers, m.cfg.Panics, m.cfg.Obs)
	stop()
	// Flushed inside the δ iteration, so the memo counters land in its
	// snapshot; a naive-engine run reports none.
	if m.cfg.Engine == EngineCompiled {
		parts.match.flushCounters(m.cfg.Obs)
	}
	return subs, err
}

// heapSelector is the default Select stage: Algorithm 2's record-disjoint
// greedy selection.
type heapSelector struct{ cfg Config }

func (s *heapSelector) Select(subs []*Subgraph) []Accepted {
	stop := s.cfg.Obs.Stage("selection")
	defer stop()
	return SelectGroupLinksDetailed(subs)
}

// residentRemainderMatcher is the unsharded Remainder stage, scoring through
// the resident compiled pair when present.
type residentRemainderMatcher struct{ cfg Config }

func (m *residentRemainderMatcher) MatchRemainder(ctx context.Context, enr *Enriched, parts *Partitions, remOld, remNew []*census.Record) ([]RecordLink, error) {
	var cp *compiledPair
	if parts.resident != nil {
		cp = parts.resident.rem
	}
	stop := m.cfg.Obs.Stage("remainder")
	if cp != nil {
		cp.setActive(remNew)
	}
	var links []RecordLink
	var err error
	if m.cfg.OptimalRemainder {
		links, err = matchRemainingOptimal(ctx, remOld, parts.OldYear, remNew, parts.NewYear,
			m.cfg.Remainder, enr.Match, m.cfg.Strategies, cp)
	} else {
		links, err = matchRemaining(ctx, remOld, parts.OldYear, remNew, parts.NewYear,
			m.cfg.Remainder, enr.Match, m.cfg.Strategies, cp)
	}
	stop()
	if cp != nil {
		cp.flushCounters(m.cfg.Obs)
	}
	return links, err
}

// stageSet bundles one implementation per pipeline stage; the executor in
// iterative.go drives them through the δ-relaxation loop.
type stageSet struct {
	enrich    Enricher
	block     Blocker
	prematch  PreMatcher
	subgraphs SubgraphMatcher
	selector  Selector
	remainder RemainderMatcher
}

// newStageSet wires the default stage implementations for a validated
// configuration: resident single-shard stages, or the sharded variants when
// cfg.Shards > 1.
func newStageSet(cfg Config) *stageSet {
	s := &stageSet{
		enrich:    &graphEnricher{cfg: cfg},
		block:     &keyBlocker{cfg: cfg},
		subgraphs: &poolSubgraphMatcher{cfg: cfg},
		selector:  &heapSelector{cfg: cfg},
	}
	if cfg.Shards > 1 {
		s.prematch = &shardedPreMatcher{cfg: cfg}
		s.remainder = &shardedRemainderMatcher{cfg: cfg}
	} else {
		s.prematch = &residentPreMatcher{cfg: cfg}
		s.remainder = &residentRemainderMatcher{cfg: cfg}
	}
	return s
}
