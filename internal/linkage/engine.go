package linkage

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/faultinject"
	"censuslink/internal/obs"
)

// CompareMatchers converts the SimFunc's matchers into their compiled form
// for internal/compare. Matchers without a profile comparator fall back to
// scoring through their string function.
func (f SimFunc) CompareMatchers() []compare.Matcher {
	out := make([]compare.Matcher, len(f.Matchers))
	for i, m := range f.Matchers {
		out[i] = compare.Matcher{Attr: m.Attr, Weight: m.Weight, Prof: m.Prof, Sim: m.Sim}
	}
	return out
}

// Compile interns the two record lists against this SimFunc and returns a
// scoring engine whose AggSim/SimVector are bit-for-bit equal to the
// interpreted AggSim/SimVector on the same records.
func (f SimFunc) Compile(old, new []*census.Record) *compare.Engine {
	ms := f.CompareMatchers()
	return compare.NewEngine(compare.Compile(old, ms), compare.Compile(new, ms))
}

// compiledPair is the per-year-pair comparison state: one scoring engine,
// the candidate table built once from the blocking index over the full new
// dataset, and the active-record mask the δ-iteration loop narrows instead
// of querying the index again per iteration.
type compiledPair struct {
	eng *compare.Engine
	// tab holds the blocked candidates of every old record of the engine's
	// old dataset; row i is old record i's.
	tab *block.CandidateTable
	// active[i] reports whether new record i is still unlinked; shared by
	// the pre-matching and remainder passes of one LinkContext call.
	active []bool
	// prevPruned is the engine's pruned count at the last flush to obs, so
	// each stage reports a delta rather than the cumulative total.
	prevPruned int64
}

// setActive recomputes the active mask from the remaining (unlinked) new
// records.
func (cp *compiledPair) setActive(remaining []*census.Record) {
	for i := range cp.active {
		cp.active[i] = false
	}
	for _, r := range remaining {
		if i, ok := cp.eng.New.Pos(r.ID); ok {
			cp.active[i] = true
		}
	}
}

// flushCounters adds the engine's pruned comparisons since the previous
// flush to the run's observability stats.
func (cp *compiledPair) flushCounters(st *obs.Stats) {
	p := cp.eng.Pruned()
	st.Add(obs.PrunedComparisons, int(p-cp.prevPruned))
	cp.prevPruned = p
}

// allActive returns an active mask with every one of n records active.
func allActive(n int) []bool {
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	return active
}

// compileTable is the blocking half of the compile stage: it indexes the
// new records under strategies and queries the index once for every old
// record, returning the candidate table whose row i holds old[i]'s
// candidates. Both halves run on the chunk pool: the new records' keys are
// computed per chunk and joined in record order, so every posting list
// comes out as a serial build would make it, then the old records are
// queried per chunk. The index is dropped on return. Each chunk observes
// ctx every cancelCheckEvery records, and cancellation and worker panics
// are reported as stage "compile". Under PanicSkip a failed chunk's
// records get no keys or no candidates, so they are never compared.
func compileTable(ctx context.Context, old []*census.Record, oldYear int, new []*census.Record, newYear int,
	strategies []block.Strategy, workers int, policy PanicPolicy, st *obs.Stats) (*block.CandidateTable, error) {
	keys, err := compileChunks(ctx, new, workers, policy, st,
		func(n int) *block.RecordKeys { return block.NewRecordKeys(strategies, n) },
		func(rk *block.RecordKeys, r *census.Record) { rk.Append(r, newYear) },
		(*block.RecordKeys).AppendEmpty)
	if err != nil {
		return nil, err
	}
	ix := block.NewIndexFromKeys(new, strategies, keys...)
	rows, err := compileChunks(ctx, old, workers, policy, st,
		func(int) *queryChunk { return &queryChunk{tab: &block.CandidateTable{}} },
		func(q *queryChunk, o *census.Record) { ix.AppendRow(q.tab, o, oldYear, &q.scratch) },
		func(q *queryChunk) { q.tab.AppendEmptyRow() })
	if err != nil {
		return nil, err
	}
	tabs := make([]*block.CandidateTable, len(rows))
	for i, q := range rows {
		tabs[i] = q.tab
	}
	return block.JoinTables(tabs...), nil
}

// Candidates calls visit once for every distinct candidate pair that
// strategies block between old and new, old records in input order and
// each one's candidates in new-input order, and returns the number of
// pairs; visit may be nil to count only. The pairs are the rows of the
// candidate table a link's compile stage builds, on GOMAXPROCS workers.
// The visits run on the calling goroutine, which observes ctx every
// cancelCheckEvery old records; cancellation and worker panics surface as
// a *PipelineError of stage "compile".
func Candidates(ctx context.Context, old []*census.Record, oldYear int, new []*census.Record, newYear int,
	strategies []block.Strategy, visit func(o, n *census.Record)) (int, error) {
	tab, err := compileTable(ctx, old, oldYear, new, newYear, strategies, 0, PanicFailFast, nil)
	if err != nil {
		return 0, err
	}
	if visit == nil {
		return tab.Pairs(), nil
	}
	for i, o := range old {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return 0, cancelErr("compile", 0, err)
			}
		}
		for _, j := range tab.Row(i) {
			visit(o, new[j])
		}
	}
	return tab.Pairs(), nil
}

// queryChunk is one chunk's share of the candidate table and its worker's
// query scratch.
type queryChunk struct {
	tab     *block.CandidateTable
	scratch block.Scratch
}

// compileChunks splits recs into one contiguous chunk per worker and
// builds one part per chunk on the pool: a fresh part from newPart (given
// the chunk's record count), then add for each of the chunk's records in
// order. A chunk skipped under PanicSkip gets a fresh part holding one
// addEmpty entry per record.
func compileChunks[P any](ctx context.Context, recs []*census.Record, workers int, policy PanicPolicy,
	st *obs.Stats, newPart func(n int) P, add func(P, *census.Record), addEmpty func(P)) ([]P, error) {
	size := perWorker(len(recs), workers)
	parts := make([]P, chunkCount(len(recs), size))
	skipped, err := runChunks(ctx, "compile", 0, len(recs), size, workers, policy, st, func(ci, lo, hi int) error {
		p := newPart(hi - lo)
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelCheckEvery == 0 {
				if e := ctx.Err(); e != nil {
					return cancelErr("compile", 0, e)
				}
			}
			add(p, recs[i])
		}
		parts[ci] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ci, skip := range skipped {
		if skip {
			lo, hi := ci*size, min((ci+1)*size, len(recs))
			parts[ci] = newPart(hi - lo)
			for range hi - lo {
				addEmpty(parts[ci])
			}
		}
	}
	return parts, nil
}

// cancelCheckEvery is the number of items a pipeline loop, or a pool
// worker claiming chunks, processes between cancellation checkpoints —
// frequent enough for prompt aborts, rare enough to stay invisible in
// profiles.
const cancelCheckEvery = 64

// poolSize resolves a worker bound: workers <= 0 selects GOMAXPROCS.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// perWorker returns the chunk size that splits n items into one contiguous
// chunk per worker.
func perWorker(n, workers int) int {
	w := poolSize(workers)
	return max((n+w-1)/w, 1)
}

// chunkCount returns the number of chunks of size items that cover n items.
func chunkCount(n, size int) int { return (n + size - 1) / size }

// runChunks is the one worker pool of a link. It covers the item range
// [0, n) with chunks of size items — chunk ci is [ci*size, min((ci+1)*size,
// n)) — and runs fn on them from min(workers, chunks) goroutines that claim
// chunk indices from an atomic cursor. A worker observes ctx before its
// first claim and every cancelCheckEvery claims after it, and every worker
// stops claiming once a chunk has failed under PanicFailFast. Every chunk
// first passes the fault-injection point "linkage.<stage>.chunk"; a panic
// or injected failure becomes a *PipelineError naming the stage, δ and
// chunk index. Cancellation wins over chunk failures: if ctx is done when
// the pool stops, runChunks reports that. Under PanicFailFast the
// lowest-numbered failed chunk's error is returned; under PanicSkip failed
// chunks are counted on obs.PanicsRecovered and flagged in the returned
// slice, and the caller drops their results, so the merge stays
// deterministic.
func runChunks(ctx context.Context, stage string, delta float64, n, size, workers int, policy PanicPolicy,
	st *obs.Stats, fn func(ci, lo, hi int) error) ([]bool, error) {
	point := "linkage." + stage + ".chunk"
	chunks := chunkCount(n, size)
	errs := make([]error, chunks)
	var cursor atomic.Int64
	var failed atomic.Bool
	runOne := func(ci int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				pe := panicErr(stage, delta, r, debug.Stack())
				pe.Chunk = ci
				err = pe
			}
		}()
		if e := faultinject.Hit(point); e != nil {
			return &PipelineError{Stage: stage, Delta: delta, Chunk: ci, Err: e}
		}
		return fn(ci, ci*size, min((ci+1)*size, n))
	}
	var wg sync.WaitGroup
	for range min(poolSize(workers), chunks) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for claims := 0; !failed.Load(); claims++ {
				if claims%cancelCheckEvery == 0 && ctx.Err() != nil {
					return
				}
				ci := int(cursor.Add(1) - 1)
				if ci >= chunks {
					return
				}
				if errs[ci] = runOne(ci); errs[ci] != nil && policy == PanicFailFast {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, cancelErr(stage, delta, err)
	}
	skipped := make([]bool, chunks)
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
	return skipped, nil
}
