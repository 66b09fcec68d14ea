package linkage

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/cluster"
	"censuslink/internal/faultinject"
	"censuslink/internal/obs"
)

// Pair identifies a record pair across the two datasets by record ID.
type Pair struct {
	Old, New string
}

// PreMatchResult is the outcome of the pre-matching step (Section 3.2):
// the candidate record links above δ with their aggregated similarities, the
// cluster labels of the transitive closure, and the per-label record counts
// used by the uniqueness score.
type PreMatchResult struct {
	// Sims holds agg_sim for every candidate pair with agg_sim >= δ.
	Sims map[Pair]float64
	// Links lists the candidate pairs in deterministic order.
	Links []Pair
	// Labels assigns a cluster label to every record (of either dataset)
	// that appeared in the pre-matching input. Records without any link get
	// a singleton label.
	Labels map[string]int
	// LabelSize counts the records carrying each label across both
	// datasets (|label(r)| in Eq. 7).
	LabelSize map[int]int
	// Compared is the number of candidate pairs compared (for reporting).
	Compared int
	// Blocked is the raw number of candidate pairs the blocking index
	// generated across all strategies before deduplication; Blocked -
	// Compared measures the overlap of the multi-pass strategies. Inside
	// Link the index covers the full new dataset, so hits on records
	// already linked in earlier iterations are included too.
	Blocked int
}

// Label returns the cluster label of a record ID and whether it has one.
func (p *PreMatchResult) Label(id string) (int, bool) {
	l, ok := p.Labels[id]
	return l, ok
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
	// Obs, when non-nil, receives the PanicsRecovered counter under
	// PanicSkip.
	Obs *obs.Stats
}

// PreMatchOpts is the single pre-matching entry point: it applies the
// similarity function to every blocked candidate pair between the old and
// new records, keeps pairs reaching f's δ, and clusters records via the
// transitive closure of those links (Section 3.2). Cancellation is
// cooperative — chunk workers observe ctx between records and the call
// returns a *PipelineError wrapping ctx.Err(). Worker panics surface as
// typed errors naming the offending chunk (or are skipped and counted,
// per opts.Panics).
func PreMatchOpts(ctx context.Context, old, new []*census.Record, opts PreMatchOptions) (*PreMatchResult, error) {
	cp := &compiledPair{
		eng:    opts.Sim.Compile(old, new),
		ix:     block.NewIndex(new, opts.NewYear, opts.Strategies),
		active: make([]bool, len(new)),
	}
	cp.setActive(new)
	return preMatch(ctx, old, opts.OldYear, new, opts.Sim, opts.Workers, opts.Panics, opts.Obs, cp)
}

// cancelCheckEvery is the number of records a pipeline loop processes
// between cancellation checkpoints — frequent enough for prompt aborts,
// rare enough to stay invisible in profiles.
const cancelCheckEvery = 64

// preMatch is the full pre-matching implementation: bounded chunk workers
// with panic isolation, cooperative cancellation and the configured panic
// policy. Under PanicSkip a failed chunk contributes no comparisons and is
// counted on obs.PanicsRecovered; the surviving chunks still merge
// deterministically because results are slotted by chunk index.
//
// Candidates come from cp's prebuilt index filtered by the active mask
// (cp.setActive must have been called for this new slice), and pairs are
// scored through the memoizing engine with early exit; accepted pairs carry
// similarities bit-for-bit equal to SimFunc.AggSim.
func preMatch(ctx context.Context, old []*census.Record, oldYear int, new []*census.Record,
	f SimFunc, workers int, policy PanicPolicy, st *obs.Stats, cp *compiledPair) (*PreMatchResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	gen0 := cp.ix.Generated()

	type chunkResult struct {
		pairs []Pair
		sims  []float64
		n     int
	}
	// Split the old records into contiguous chunks, one result slot per
	// chunk, so the merged output is deterministic regardless of scheduling.
	chunkSize := (len(old) + workers - 1) / workers
	if chunkSize < 1 {
		chunkSize = 1
	}
	var chunks [][]*census.Record
	for i := 0; i < len(old); i += chunkSize {
		end := i + chunkSize
		if end > len(old) {
			end = len(old)
		}
		chunks = append(chunks, old[i:end])
	}
	results := make([]chunkResult, len(chunks))
	errs := make([]error, len(chunks))
	runChunk := func(ci int, chunk []*census.Record) (res chunkResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				pe := panicErr("prematch", f.Delta, r, debug.Stack())
				pe.Chunk = ci
				err = pe
			}
		}()
		if e := faultinject.Hit("linkage.prematch.chunk"); e != nil {
			return res, &PipelineError{Stage: "prematch", Delta: f.Delta, Chunk: ci, Err: e}
		}
		// The scratch's epoch-stamp dedup state is allocated once per chunk
		// and reused across every candidate query of the chunk.
		var scratch block.Scratch
		for j, o := range chunk {
			if j%cancelCheckEvery == 0 {
				if e := ctx.Err(); e != nil {
					return res, cancelErr("prematch", f.Delta, e)
				}
			}
			oi, ok := cp.eng.Old.Pos(o.ID)
			if !ok {
				continue
			}
			for _, ni := range cp.ix.CandidateIndices(o, oldYear, &scratch) {
				if !cp.active[ni] {
					continue
				}
				res.n++
				if s, hit := cp.eng.AggSimAtLeast(oi, int(ni), f.Delta); hit {
					res.pairs = append(res.pairs, Pair{Old: o.ID, New: cp.ix.Record(ni).ID})
					res.sims = append(res.sims, s)
				}
			}
		}
		return res, nil
	}
	var wg sync.WaitGroup
	for ci, chunk := range chunks {
		wg.Add(1)
		go func(ci int, chunk []*census.Record) {
			defer wg.Done()
			results[ci], errs[ci] = runChunk(ci, chunk)
		}(ci, chunk)
	}
	wg.Wait()

	// Cancellation wins over worker failures: the caller asked the whole
	// run to stop, so report that rather than a coincidental chunk error.
	if err := ctx.Err(); err != nil {
		return nil, cancelErr("prematch", f.Delta, err)
	}
	skipped := make([]bool, len(chunks))
	for ci, err := range errs {
		if err == nil {
			continue
		}
		if policy == PanicFailFast {
			return nil, err
		}
		skipped[ci] = true
		st.Add(obs.PanicsRecovered, 1)
	}

	// Labels is filled by uf.Labels() below; allocating it here too would
	// just produce garbage.
	out := &PreMatchResult{
		Sims:      make(map[Pair]float64),
		LabelSize: make(map[int]int),
	}
	uf := cluster.NewUnionFind()
	for _, r := range old {
		uf.Add(r.ID)
	}
	for _, r := range new {
		uf.Add(r.ID)
	}
	for ci, res := range results {
		if skipped[ci] {
			continue
		}
		out.Compared += res.n
		for i, p := range res.pairs {
			out.Links = append(out.Links, p)
			out.Sims[p] = res.sims[i]
			uf.Union(p.Old, p.New)
		}
	}
	out.Labels = uf.Labels()
	for _, l := range out.Labels {
		out.LabelSize[l]++
	}
	// The shared full-dataset index counts raw hits cumulatively across
	// iterations (and including currently inactive records), so report this
	// call's delta. On the first iteration, when every record is active,
	// this equals the raw count of an index over the remaining records.
	out.Blocked = int(cp.ix.Generated() - gen0)
	return out, nil
}
