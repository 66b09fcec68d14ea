package linkage

import (
	"cmp"
	"context"
	"slices"
	"strings"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/obs"
)

// Pair identifies a record pair across the two datasets by record ID.
type Pair struct {
	Old, New string
}

// CandidateLink is one pre-matching link: an old and a new record, by
// position in the record lists the pass was compiled over, and their
// aggregated similarity.
type CandidateLink struct {
	Old, New int32
	Sim      float64
}

// PreMatchResult is the outcome of the pre-matching step (Section 3.2),
// keyed by dataset position: the candidate record links above δ with their
// aggregated similarities, the cluster label of every record of the
// transitive closure, and the per-label record counts used by the
// uniqueness score. Positions index the old and new record lists the pass
// was compiled over (inside LinkContext, the full datasets). Record IDs are unique
// only within one census year, so the string views look records up per
// side.
type PreMatchResult struct {
	// Links lists the candidate pairs with agg_sim >= δ sorted by old and
	// then new position: the old records of a pass are scored in ascending
	// position (inside LinkContext the remaining records keep dataset
	// order), each with its candidate-table row, which ascends by new
	// position. NewGroupMatcher relies on this order to find a pair's
	// similarity by binary search.
	Links []CandidateLink
	// OldLabels[i] and NewLabels[j] are the cluster labels of old record i
	// and new record j, or -1 for a record outside the pass's input.
	// Records without any link get a singleton label. Labels are numbered
	// by component in the order of each component's smallest record ID
	// (an old record first where an old and a new ID are equal).
	OldLabels, NewLabels []int32
	// LabelSize[l] counts the records carrying label l across both
	// datasets (|label(r)| in Eq. 7).
	LabelSize []int32
	// Compared is the number of candidate pairs compared (for reporting).
	Compared int
	// Blocked is the raw number of candidate pairs the blocking index
	// generated for this pass's old records across all strategies before
	// deduplication; Blocked - Compared measures the overlap of the
	// multi-pass strategies. Candidates come from the candidate table,
	// which keeps each old record's raw count, so inside LinkContext a relaxed
	// pass also counts hits on new records linked in earlier iterations.
	Blocked int
	// old and new are the compiled record lists the positions index.
	old, new *compare.CompiledDataset
}

// Pairs returns the candidate links as record-ID pairs, in Links order.
func (p *PreMatchResult) Pairs() []Pair {
	out := make([]Pair, len(p.Links))
	for i, l := range p.Links {
		out[i] = Pair{Old: p.old.Recs[l.Old].ID, New: p.new.Recs[l.New].ID}
	}
	return out
}

// Sims returns the aggregated similarity of every candidate link, keyed by
// record-ID pair.
func (p *PreMatchResult) Sims() map[Pair]float64 {
	out := make(map[Pair]float64, len(p.Links))
	for _, l := range p.Links {
		out[Pair{Old: p.old.Recs[l.Old].ID, New: p.new.Recs[l.New].ID}] = l.Sim
	}
	return out
}

// OldLabel returns the cluster label of the old record with the given ID
// and whether it has one.
func (p *PreMatchResult) OldLabel(id string) (int, bool) { return labelOf(p.old, p.OldLabels, id) }

// NewLabel returns the cluster label of the new record with the given ID
// and whether it has one.
func (p *PreMatchResult) NewLabel(id string) (int, bool) { return labelOf(p.new, p.NewLabels, id) }

// labelOf looks up the label of the record with the given ID in one
// side's label array.
func labelOf(cd *compare.CompiledDataset, labels []int32, id string) (int, bool) {
	i, ok := cd.Pos(id)
	if !ok || labels[i] < 0 {
		return 0, false
	}
	return int(labels[i]), true
}

// PreMatchOptions configures one standalone pre-matching pass (see
// PreMatchOpts). The zero value of every field is usable: year 0,
// GOMAXPROCS workers, fail-fast panics, no observability.
type PreMatchOptions struct {
	// Sim is the record similarity function; pairs below its Delta are
	// dropped.
	Sim SimFunc
	// OldYear and NewYear are the census years of the two record lists;
	// blocking keys may depend on them (e.g. birth-year bands).
	OldYear, NewYear int
	// Strategies is the blocking configuration; it must not be empty.
	Strategies []block.Strategy
	// Workers bounds the chunk parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// Panics selects the worker panic policy (fail-fast by default).
	Panics PanicPolicy
	// Obs, when non-nil, receives the pass's PrunedComparisons,
	// SimCacheHits and SimCacheMisses and, under PanicSkip, the
	// PanicsRecovered counter.
	Obs *obs.Stats
}

// PreMatchOpts is the single pre-matching entry point: it applies the
// similarity function to every blocked candidate pair between the old and
// new records, keeps pairs reaching f's δ, and clusters records via the
// transitive closure of those links (Section 3.2). It compiles the two
// lists and builds their candidate table for this one pass, so the
// result's positions index old and new. Cancellation is cooperative —
// chunk workers observe ctx between records and the call returns a
// *PipelineError wrapping ctx.Err(). Worker panics surface as typed errors
// naming the offending chunk (stage "compile" while the table is built and
// the records interned, "prematch" while pairs are scored), or are skipped
// and counted, per opts.Panics; a panic while building a strategy's
// postings or interning a record list fails the pass under either policy.
func PreMatchOpts(ctx context.Context, old, new []*census.Record, opts PreMatchOptions) (*PreMatchResult, error) {
	tab, err := compileTable(ctx, old, opts.OldYear, new, opts.NewYear, opts.Strategies,
		opts.Workers, opts.Panics, opts.Obs)
	if err != nil {
		return nil, err
	}
	eng, err := opts.Sim.compile(ctx, old, new, opts.Workers)
	if err != nil {
		return nil, err
	}
	pm := newPreMatcher(&compiledPair{eng: eng, tab: tab, active: allActive(len(new))})
	oldPos := make([]int32, len(old))
	for i := range oldPos {
		oldPos[i] = int32(i)
	}
	return pm.preMatch(ctx, oldPos, opts.Sim.Delta, opts.Workers, opts.Panics, opts.Obs)
}

// preMatcher is the resident pre-matching state of one year pair: the Sim
// engine's compiledPair plus the resumable score of every candidate-table
// entry and the record order that numbers cluster labels. Inside LinkContext it
// lives for the whole call, so each δ pass resumes every pair where the
// previous pass stopped scoring it.
type preMatcher struct {
	*compiledPair
	// sum[e] and next[e] are table entry e's partial similarity and the
	// number of weighted matchers already added to it
	// (compare.Engine.ResumeAtLeast); both zero before its first pass.
	sum  []float64
	next []uint8
	// byID lists every old position i and new position nOld+j, ordered by
	// record ID and old before new on equal IDs. Labels are numbered by
	// walking it once per pass.
	byID []int32
	// links[ci] is chunk ci's link buffer, truncated and refilled by every
	// pass, so the δ passes of one link reuse it instead of growing a new
	// one each time.
	links [][]CandidateLink
	// caches[ci] is chunk ci's attribute-similarity cache, kept for the
	// whole link like its link buffer, so a relaxed pass starts warm.
	// The remainder pass reuses caches[0] when it scores through eng.
	caches []*compare.SimCache
}

// newPreMatcher allocates the per-entry score state of cp's table and
// sorts the record IDs of both datasets once.
func newPreMatcher(cp *compiledPair) *preMatcher {
	old, new := cp.eng.Old.Recs, cp.eng.New.Recs
	byID := make([]int32, len(old)+len(new))
	for i := range byID {
		byID[i] = int32(i)
	}
	id := func(v int32) string {
		if int(v) < len(old) {
			return old[v].ID
		}
		return new[int(v)-len(old)].ID
	}
	slices.SortFunc(byID, func(a, b int32) int {
		if c := strings.Compare(id(a), id(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return &preMatcher{
		compiledPair: cp,
		sum:          make([]float64, cp.tab.Pairs()),
		next:         make([]uint8, cp.tab.Pairs()),
		byID:         byID,
	}
}

// bytes returns the memory of the candidate table and its score state.
func (pm *preMatcher) bytes() int {
	return pm.tab.Bytes() + 8*len(pm.sum) + len(pm.next)
}

// preMatch is one pre-matching pass at threshold delta over the old
// records at positions oldPos and the active new records. It scores the
// candidate-table rows of oldPos on bounded chunk workers with panic
// isolation and cooperative cancellation (runChunks, stage "prematch"),
// resuming every active entry's score through
// compare.Engine.ResumeAtLeast, so accepted pairs carry similarities
// bit-for-bit equal to SimFunc.AggSim. Chunk ci scores through its own
// similarity cache (preMatcher.caches). Each chunk counts its own compared,
// blocked and pruned pairs and its cache's hits and misses, and the pass
// adds the totals to obs.PrunedComparisons, obs.SimCacheHits and
// obs.SimCacheMisses once. Under PanicSkip a failed chunk contributes
// no comparisons and is counted on obs.PanicsRecovered; the surviving
// chunks still merge deterministically because results are slotted by
// chunk index. The links are then clustered with a position-keyed
// union-find.
//
// oldPos must ascend strictly: chunks then own disjoint rows and update
// disjoint score entries, and Links come out sorted by position.
func (pm *preMatcher) preMatch(ctx context.Context, oldPos []int32, delta float64,
	workers int, policy PanicPolicy, st *obs.Stats) (*PreMatchResult, error) {
	type chunkResult struct {
		compared, blocked, pruned, hits, misses int
	}
	size := perWorker(len(oldPos), workers)
	chunks := chunkCount(len(oldPos), size)
	results := make([]chunkResult, chunks)
	for len(pm.links) < chunks {
		pm.links = append(pm.links, nil)
		pm.caches = append(pm.caches, pm.eng.NewSimCache())
	}
	skipped, err := runChunks(ctx, "prematch", delta, len(oldPos), size, workers, policy, st, func(ci, lo, hi int) error {
		res := &results[ci]
		links := pm.links[ci][:0]
		c := pm.caches[ci]
		c.Hits, c.Misses = 0, 0
		for j := lo; j < hi; j++ {
			if (j-lo)%cancelCheckEvery == 0 {
				if e := ctx.Err(); e != nil {
					return cancelErr("prematch", delta, e)
				}
			}
			oi := int(oldPos[j])
			res.blocked += pm.tab.Raw(oi)
			e := pm.tab.Offset(oi)
			for _, ni := range pm.tab.Row(oi) {
				if pm.active[ni] {
					res.compared++
					switch pm.eng.ResumeAtLeast(oi, int(ni), delta, &pm.sum[e], &pm.next[e], c) {
					case compare.Accepted:
						links = append(links, CandidateLink{Old: int32(oi), New: ni, Sim: pm.sum[e]})
					case compare.Pruned:
						res.pruned++
					}
				}
				e++
			}
		}
		pm.links[ci] = links
		res.hits, res.misses = c.Hits, c.Misses
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &PreMatchResult{old: pm.eng.Old, new: pm.eng.New}
	n, pruned, hits, misses := 0, 0, 0, 0
	for ci, res := range results {
		if skipped[ci] {
			continue
		}
		out.Compared += res.compared
		out.Blocked += res.blocked
		pruned += res.pruned
		hits += res.hits
		misses += res.misses
		n += len(pm.links[ci])
	}
	out.Links = make([]CandidateLink, 0, n)
	for ci := range results {
		if !skipped[ci] {
			out.Links = append(out.Links, pm.links[ci]...)
		}
	}
	st.Add(obs.PrunedComparisons, pruned)
	st.Add(obs.SimCacheHits, hits)
	st.Add(obs.SimCacheMisses, misses)
	pm.cluster(out, oldPos)
	return out, nil
}

// cluster labels the transitive closure of out.Links over the pass's input
// records — the old records at oldPos and the active new records — with a
// union-find over old positions i and new positions nOld+j, then numbers
// the components by walking byID, so a component's label is its rank by
// smallest record ID.
func (pm *preMatcher) cluster(out *PreMatchResult, oldPos []int32) {
	nOld := int32(len(pm.eng.Old.Recs))
	n := len(pm.byID)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range out.Links {
		if a, b := find(l.Old), find(nOld+l.New); a != b {
			parent[a] = b
		}
	}

	// label[v] is -1 outside the input; input records are marked -2 until
	// the walk below labels them. rootLabel[r] is the label of the
	// component rooted at r, once its smallest record has been reached.
	label := make([]int32, n)
	rootLabel := make([]int32, n)
	for i := range label {
		label[i], rootLabel[i] = -1, -1
	}
	for _, oi := range oldPos {
		label[oi] = -2
	}
	for j, a := range pm.active {
		if a {
			label[nOld+int32(j)] = -2
		}
	}
	for _, v := range pm.byID {
		if label[v] == -1 {
			continue
		}
		r := find(v)
		if rootLabel[r] < 0 {
			rootLabel[r] = int32(len(out.LabelSize))
			out.LabelSize = append(out.LabelSize, 0)
		}
		label[v] = rootLabel[r]
		out.LabelSize[label[v]]++
	}
	out.OldLabels, out.NewLabels = label[:nOld:nOld], label[nOld:]
}
