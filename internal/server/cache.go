package server

import (
	"context"
	"errors"
	"sync"

	"censuslink/internal/census"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
)

// flight is the single-flight slot of one expensive computation: the first
// request starts it, concurrent requests share it, and the value is cached
// on success. A waiter that gives up (request deadline, client gone) stops
// waiting immediately; when the LAST waiter abandons a still-running
// computation it is cancelled, so a multi-minute pipeline run never
// outlives all interest in it. Failed flights are cleared, so a later
// request retries instead of being poisoned by a bygone cancellation.
type flight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int

	// res/err are written before done is closed (the close is the
	// happens-before edge), so readers need no lock after <-done.
	res *linkage.Result
	err error

	// persisted records whether this result is known to exist in the
	// snapshot store (loaded from it, or written through successfully).
	// Guarded by pairCache.mu; the recovery flush re-saves flights still
	// false after a degraded spell.
	persisted bool
}

// evoBundle is the series-wide evolution state derived from all pair
// results: the evolution graph, the per-person timelines and an index from
// record occurrence to the timelines traversing it.
type evoBundle struct {
	graph     *evolution.Graph
	timelines []evolution.Timeline
	// byRecord maps year|recordID to indices into timelines.
	byRecord map[recordKey][]int
	// edgesFrom indexes the graph's typed group edges by source vertex.
	edgesFrom map[evolution.GroupVertex][]evolution.GroupEdge
}

type recordKey struct {
	Year int
	ID   string
}

// index fills the bundle's derived indexes from its graph and timelines.
func (b *evoBundle) index() {
	b.byRecord = make(map[recordKey][]int)
	b.edgesFrom = make(map[evolution.GroupVertex][]evolution.GroupEdge)
	for ti, tl := range b.timelines {
		for _, e := range tl.Entries {
			k := recordKey{Year: e.Year, ID: e.RecordID}
			b.byRecord[k] = append(b.byRecord[k], ti)
		}
	}
	for _, e := range b.graph.GroupEdges {
		b.edgesFrom[e.From] = append(b.edgesFrom[e.From], e)
	}
}

// pairCache holds the single-flight slots: one per successive year pair,
// plus one for the evolution bundle (which depends on all pairs). The pairs
// slice only grows — ingest appends a completed flight for the new pair
// BEFORE swapping the series state, so any request holding the new state
// always finds its slot.
type pairCache struct {
	s *Server

	mu      sync.Mutex
	pairs   []*flight
	bundleF *bundleFlight
}

// bundleFlight is the single-flight slot of the evolution bundle, stamped
// with the series generation it was computed against: after an ingest the
// old flight no longer answers for the grown series, so bundle() starts a
// fresh one on a generation mismatch (unless ingest already installed the
// incrementally extended bundle).
type bundleFlight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	gen     uint64
	bundle  *evoBundle
	err     error
}

func newPairCache(s *Server) *pairCache {
	return &pairCache{s: s, pairs: make([]*flight, len(s.cur().series.Pairs()))}
}

// completedFlight wraps an already-known result as a closed flight.
func completedFlight(res *linkage.Result, persisted bool) *flight {
	f := &flight{done: make(chan struct{}), cancel: func() {}, res: res, persisted: persisted}
	close(f.done)
	return f
}

// warmStart pre-fills the cache from the persistent store: every pair whose
// (config fingerprint, dataset hashes) address has a trusted snapshot gets a
// completed flight, so no request ever triggers its computation. Each pair
// is probed exactly once, here — compute never re-reads the store — so the
// store_hits/store_misses/store_corrupt counters partition the pairs.
func (c *pairCache) warmStart() {
	for i, pair := range c.s.cur().series.Pairs() {
		if res := c.s.loadStored(pair[0], pair[1]); res != nil {
			c.pairs[i] = completedFlight(res, true)
		}
	}
}

// cached reports how many pair results are computed and resident (for
// /healthz and /metrics).
func (c *pairCache) cached() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, f := range c.pairs {
		if f == nil {
			continue
		}
		select {
		case <-f.done:
			if f.err == nil {
				n++
			}
		default:
		}
	}
	return n
}

// appendPair grows the cache by one completed pair flight and, when the
// incrementally extended bundle is available, installs it as the new
// generation's completed bundle flight. Called by ingest with the new
// series state NOT yet swapped in: after this returns, the swap makes the
// new pair queryable with its result already resident.
func (c *pairCache) appendPair(res *linkage.Result, persisted bool, b *evoBundle, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pairs = append(c.pairs, completedFlight(res, persisted))
	if b != nil {
		c.bundleF = &bundleFlight{
			done: make(chan struct{}), cancel: func() {}, gen: gen, bundle: b,
		}
		close(c.bundleF.done)
	}
	// When no extended bundle was derivable (the old one was never computed
	// or still in flight), the stale-generation flight is left in place:
	// bundle() notices the mismatch and rebuilds from scratch on demand.
}

// result returns the linkage result of pair i, computing it at most once.
// ctx is the requester's context: its deadline bounds only the wait — the
// computation itself runs under the server's base context (capped by
// ComputeTimeout) so one impatient client cannot kill a result another
// client is still waiting for, yet when every waiter is gone the
// computation is cancelled.
func (c *pairCache) result(ctx context.Context, i int) (*linkage.Result, error) {
	for {
		c.mu.Lock()
		f := c.pairs[i]
		if f == nil {
			fctx, cancel := context.WithCancel(c.s.baseCtx)
			f = &flight{done: make(chan struct{}), cancel: cancel}
			c.pairs[i] = f
			go c.compute(fctx, i, f)
		}
		f.waiters++
		c.mu.Unlock()

		select {
		case <-f.done:
			c.mu.Lock()
			f.waiters--
			c.mu.Unlock()
			// A flight cancelled by earlier waiters' abandonment (not by
			// this requester, whose ctx is still live, and not by server
			// shutdown) is nobody's answer: retry on a fresh flight — the
			// failed slot has already been cleared.
			if errors.Is(f.err, context.Canceled) && ctx.Err() == nil && !c.s.shuttingDown() {
				continue
			}
			return f.res, f.err
		case <-ctx.Done():
			c.mu.Lock()
			f.waiters--
			abandoned := f.waiters == 0
			c.mu.Unlock()
			if abandoned {
				f.cancel()
			}
			return nil, ctx.Err()
		}
	}
}

// compute runs one pair's linkage under the flight's context and publishes
// the outcome. Pair indices are stable across ingests (years only append),
// so reading the current state's pair list is always consistent with slot i.
func (c *pairCache) compute(ctx context.Context, i int, f *flight) {
	defer f.cancel()
	pair := c.s.cur().series.Pairs()[i]
	res, persisted, err := c.s.computePair(ctx, pair[0], pair[1])
	c.mu.Lock()
	f.res, f.err = res, err
	f.persisted = persisted
	if err != nil && c.pairs[i] == f {
		c.pairs[i] = nil // failed flights are not cached; retry later
	}
	c.mu.Unlock()
	close(f.done)
}

// loadStored probes the store for one pair's snapshot and returns it, or
// nil when the pair must be computed: no store, no snapshot, a corrupt
// snapshot (the store has quarantined it, so the next replica start sees a
// clean miss; the fresh result overwrites it) or a failing medium. Hits,
// misses and corrupt snapshots are counted; the medium's answers feed the
// degraded-mode state machine.
func (s *Server) loadStored(old, new *census.Dataset) *linkage.Result {
	if s.store == nil {
		return nil
	}
	res, err := s.store.LoadResult(s.cfgHash, old, new)
	switch {
	case err != nil && isCorruptSnapshot(err):
		s.stats.Add(obs.StoreCorrupt, 1)
		return nil
	case err != nil:
		s.health.fail()
		return nil
	case res == nil:
		s.stats.Add(obs.StoreMisses, 1)
	default:
		s.stats.Add(obs.StoreHits, 1)
	}
	s.health.ok()
	return res
}

// computePair links one pair under the server-wide semaphore and compute
// timeout, then writes the result through to the store. persisted reports
// whether the snapshot was written. Persistence failures do not fail the
// computation — the result is good — but they are counted and feed the
// degraded-mode state machine. While degraded the save is skipped outright
// (it would burn its retry budget in the request path); the recovery flush
// picks the result up through its flight's persisted == false.
func (s *Server) computePair(ctx context.Context, old, new *census.Dataset) (res *linkage.Result, persisted bool, err error) {
	res, err = func() (*linkage.Result, error) {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-s.sem }()
		if s.computeTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.computeTimeout)
			defer cancel()
		}
		cfg := s.linkCfg
		cfg.Obs = s.stats
		return s.linkFn(ctx, old, new, cfg)
	}()
	if err != nil || s.store == nil || s.health.isDegraded() {
		return res, false, err
	}
	if err := s.store.SaveResult(s.cfgHash, old, new, res); err != nil {
		s.stats.Add(obs.StoreSaveErrors, 1)
		s.health.fail()
		return res, false, nil
	}
	s.health.ok()
	return res, true, nil
}

// allResults returns every pair result of the given series state, starting
// all missing computations concurrently (the semaphore still bounds the
// actual parallelism).
func (c *pairCache) allResults(ctx context.Context, st *seriesState) ([]*linkage.Result, error) {
	n := len(st.series.Pairs())
	results := make([]*linkage.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.result(ctx, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// bundle returns the evolution bundle of the CURRENT series generation,
// computing it (and any missing pair results) at most once, with the same
// single-flight and abandonment semantics as result. A flight stamped with
// an older generation — the series grew and ingest could not extend the
// bundle incrementally — is replaced by a fresh full build.
func (c *pairCache) bundle(ctx context.Context) (*evoBundle, error) {
	for {
		st := c.s.cur()
		c.mu.Lock()
		bf := c.bundleF
		if bf == nil || bf.gen != st.gen {
			bctx, cancel := context.WithCancel(c.s.baseCtx)
			bf = &bundleFlight{done: make(chan struct{}), cancel: cancel, gen: st.gen}
			c.bundleF = bf
			go c.computeBundle(bctx, st, bf)
		}
		bf.waiters++
		c.mu.Unlock()

		select {
		case <-bf.done:
			c.mu.Lock()
			bf.waiters--
			c.mu.Unlock()
			if errors.Is(bf.err, context.Canceled) && ctx.Err() == nil && !c.s.shuttingDown() {
				continue // inherited another waiter's abandonment; retry
			}
			return bf.bundle, bf.err
		case <-ctx.Done():
			c.mu.Lock()
			bf.waiters--
			abandoned := bf.waiters == 0
			c.mu.Unlock()
			if abandoned {
				bf.cancel()
			}
			return nil, ctx.Err()
		}
	}
}

func (c *pairCache) computeBundle(ctx context.Context, st *seriesState, bf *bundleFlight) {
	defer bf.cancel()
	bundle, err := func() (*evoBundle, error) {
		results, err := c.allResults(ctx, st)
		if err != nil {
			return nil, err
		}
		graph, err := evolution.BuildGraphContext(ctx, st.series, results, c.s.stats)
		if err != nil {
			return nil, err
		}
		b := &evoBundle{
			graph:     graph,
			timelines: graph.PersonTimelines(1),
		}
		b.index()
		return b, nil
	}()
	c.mu.Lock()
	bf.bundle, bf.err = bundle, err
	if err != nil && c.bundleF == bf {
		c.bundleF = nil // not cached; a later request retries
	}
	c.mu.Unlock()
	close(bf.done)
}

// currentBundle returns the completed bundle of the given generation if one
// is resident, without starting a computation. Ingest uses it to decide
// whether the evolution state can be extended incrementally.
func (c *pairCache) currentBundle(gen uint64) *evoBundle {
	c.mu.Lock()
	bf := c.bundleF
	c.mu.Unlock()
	if bf == nil || bf.gen != gen {
		return nil
	}
	select {
	case <-bf.done:
		if bf.err == nil {
			return bf.bundle
		}
	default:
	}
	return nil
}
