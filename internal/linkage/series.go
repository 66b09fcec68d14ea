package linkage

import (
	"context"
	"fmt"
	"slices"

	"censuslink/internal/census"
	"censuslink/internal/obs"
)

// ResultStore is the persistence surface LinkSeriesOpts talks to. It is
// satisfied by *store.Store (internal/store); the interface lives here so
// linkage does not depend on the store's serialization format.
//
// LoadResult returns the stored result for (configHash, oldDS, newDS), or
// (nil, nil) when no snapshot exists. A non-nil error means a snapshot was
// found but could not be trusted (corrupt, truncated, wrong version); the
// caller recomputes and overwrites it.
type ResultStore interface {
	LoadResult(configHash string, oldDS, newDS *census.Dataset) (*Result, error)
	SaveResult(configHash string, oldDS, newDS *census.Dataset, res *Result) error
}

// SeriesOptions controls persistence and scheduling of a series linkage run
// beyond the per-pair Config.
type SeriesOptions struct {
	// Store, when non-nil, receives every freshly computed pair result
	// (write-through). With Incremental it is also consulted first.
	Store ResultStore
	// Incremental skips any year pair whose (config fingerprint, old-dataset
	// hash, new-dataset hash) already has a snapshot in Store, loading the
	// stored result instead of recomputing. Store hits, misses and rejected
	// snapshots are counted on the obs.StoreHits/StoreMisses/StoreCorrupt
	// counters of Config.Obs.
	Incremental bool
	// PairWorkers bounds how many year pairs are linked concurrently. The
	// pairs of Algorithm 1 are data-independent, so they parallelize freely;
	// output order and per-pair iteration stats are preserved regardless.
	// <= 1 runs the pairs sequentially (the historical behaviour).
	PairWorkers int
}

// LinkSeriesOpts links every successive pair of a census series with the
// same configuration, returning one result per pair (results[i] links
// Datasets[i] to Datasets[i+1]). The context is observed between pairs and
// inside every pair's pipeline (see LinkContext), so a deadline or SIGINT
// aborts a multi-decade run promptly. opts adds snapshot persistence and
// bounded pair-level parallelism (see SeriesOptions); the zero value links
// every pair sequentially without a store.
//
// On failure the completed pair results are NOT discarded: the returned
// slice has one slot per pair with nil marking the failed and unstarted
// ones, and the error is a *SeriesError naming the failing pair and how
// many pairs completed — so an incremental caller with a Store has already
// checkpointed the finished pairs and a re-run resumes where it stopped.
func LinkSeriesOpts(ctx context.Context, series *census.Series, cfg Config, opts SeriesOptions) ([]*Result, error) {
	pairs := series.Pairs()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("linkage: series has %d datasets, need at least 2", len(series.Datasets))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var cfgHash string
	if opts.Store != nil {
		cfgHash = cfg.Fingerprint()
	}

	out := make([]*Result, len(pairs))
	var todo []int
	for i, pair := range pairs {
		if out[i] = loadPair(opts, cfgHash, pair, cfg.Obs); out[i] == nil {
			todo = append(todo, i)
		}
	}

	var err error
	if opts.PairWorkers <= 1 || len(todo) <= 1 {
		err = linkPairsSequential(ctx, pairs, cfg, cfgHash, opts, todo, out)
	} else {
		err = linkPairsParallel(ctx, pairs, cfg, cfgHash, opts, todo, out)
	}
	if err != nil {
		return out, err
	}
	return out, nil
}

// LinkAppend links the single new pair created when dataset next arrives at
// the end of an already-linked series: (series.Datasets[last], next). It is
// the linkage leg of the append-only evolution update — the earlier pairs
// are untouched, so arrival cost is one pair linkage (or one store load when
// a snapshot exists).
//
// With opts.Incremental and a Store, the store is consulted first exactly
// like LinkSeriesOpts; fresh results are written through. next.Year must be
// strictly greater than the last year of the series.
func LinkAppend(ctx context.Context, series *census.Series, next *census.Dataset, cfg Config, opts SeriesOptions) (*Result, error) {
	if len(series.Datasets) == 0 {
		return nil, fmt.Errorf("linkage: append to empty series")
	}
	last := series.Datasets[len(series.Datasets)-1]
	if next.Year <= last.Year {
		return nil, fmt.Errorf("linkage: appended year %d not after last series year %d", next.Year, last.Year)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var cfgHash string
	if opts.Store != nil {
		cfgHash = cfg.Fingerprint()
	}
	pair := [2]*census.Dataset{last, next}
	if res := loadPair(opts, cfgHash, pair, cfg.Obs); res != nil {
		return res, nil
	}
	return linkAndSave(ctx, opts, cfgHash, pair, cfg)
}

// loadPair probes the store for one pair's snapshot when opts asks for an
// incremental run, counting the outcome on obs.StoreHits, StoreMisses or
// StoreCorrupt. It returns nil when the pair must be computed: no snapshot,
// or one that was rejected (corrupt, truncated, version mismatch) and is
// overwritten by the fresh result.
func loadPair(opts SeriesOptions, cfgHash string, pair [2]*census.Dataset, st *obs.Stats) *Result {
	if !opts.Incremental || opts.Store == nil {
		return nil
	}
	res, err := opts.Store.LoadResult(cfgHash, pair[0], pair[1])
	switch {
	case res != nil:
		st.Add(obs.StoreHits, 1)
	case err != nil:
		st.Add(obs.StoreCorrupt, 1)
	default:
		st.Add(obs.StoreMisses, 1)
	}
	return res
}

// linkAndSave links one pair and writes the fresh result through to the
// store, if there is one.
func linkAndSave(ctx context.Context, opts SeriesOptions, cfgHash string, pair [2]*census.Dataset, cfg Config) (*Result, error) {
	res, err := LinkContext(ctx, pair[0], pair[1], cfg)
	if err != nil {
		return nil, err
	}
	if opts.Store != nil {
		if err := opts.Store.SaveResult(cfgHash, pair[0], pair[1], res); err != nil {
			return nil, fmt.Errorf("linkage: store pair %d-%d: %w", pair[0].Year, pair[1].Year, err)
		}
	}
	return res, nil
}

// completedCount counts the non-nil slots, i.e. the pairs whose results the
// caller gets back despite a failure elsewhere.
func completedCount(out []*Result) int {
	n := 0
	for _, r := range out {
		if r != nil {
			n++
		}
	}
	return n
}

// linkPairsSequential runs the remaining pairs one by one in index order,
// sharing cfg.Obs directly (iteration snapshots cannot interleave).
func linkPairsSequential(ctx context.Context, pairs [][2]*census.Dataset, cfg Config, cfgHash string,
	opts SeriesOptions, todo []int, out []*Result) error {
	for _, i := range todo {
		pair := pairs[i]
		res, err := linkAndSave(ctx, opts, cfgHash, pair, cfg)
		if err != nil {
			return &SeriesError{
				OldYear:   pair[0].Year,
				NewYear:   pair[1].Year,
				Completed: completedCount(out),
				Pairs:     len(pairs),
				Err:       err,
			}
		}
		out[i] = res
	}
	return nil
}

// linkPairsParallel runs the remaining pairs on the chunk pool, one pair
// per chunk (stage "series"). Results are slotted by pair index, so the
// output order is identical to the sequential path's. Each pair collects
// into its own obs.Stats child; the children are merged into cfg.Obs in
// pair order after the pool stops, so iteration snapshots never interleave
// across pairs. The first failure stops the pool from claiming new pairs,
// but pairs already in flight run to completion and keep their slots — a
// failed save must not discard sibling work that is about to finish. Only
// parent-context cancellation aborts in-flight pairs.
func linkPairsParallel(ctx context.Context, pairs [][2]*census.Dataset, cfg Config, cfgHash string,
	opts SeriesOptions, todo []int, out []*Result) error {
	children := make([]*obs.Stats, len(todo))
	errs := make([]error, len(todo))
	_, err := runChunks(ctx, "series", 0, len(todo), 1, opts.PairWorkers, PanicFailFast, nil,
		func(ti, _, _ int) error {
			pcfg := cfg
			if cfg.Obs != nil {
				children[ti] = obs.NewStats(nil)
				pcfg.Obs = children[ti]
			}
			out[todo[ti]], errs[ti] = linkAndSave(ctx, opts, cfgHash, pairs[todo[ti]], pcfg)
			return errs[ti]
		})
	for _, c := range children {
		if c != nil {
			cfg.Obs.Merge(c.Report())
		}
	}
	if err == nil {
		return nil
	}
	// Report the first real failure in pair order. Cancellation errors may
	// only echo the parent context, so they rank behind any genuine failure
	// and are reported only when nothing else is.
	first := -1
	for ti, err := range errs {
		if err == nil {
			continue
		}
		if first == -1 {
			first = ti
		}
		if pe, ok := err.(*PipelineError); !ok || !pe.Canceled() {
			first = ti
			break
		}
	}
	if first == -1 {
		// A pair panicked, or the pool was cancelled between pairs: blame
		// the first pair without a result.
		if first = slices.IndexFunc(todo, func(i int) bool { return out[i] == nil }); first == -1 {
			return nil
		}
		errs[first] = err
	}
	pair := pairs[todo[first]]
	return &SeriesError{
		OldYear:   pair[0].Year,
		NewYear:   pair[1].Year,
		Completed: completedCount(out),
		Pairs:     len(pairs),
		Err:       errs[first],
	}
}
