package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"censuslink/internal/linkage"
	"censuslink/internal/obs"
)

// storeDegradedAfter is how many consecutive store I/O failures flip the
// server into degraded mode. One failed operation is noise (a transient
// the store's own retry budget could not absorb); three in a row without a
// single success in between means the medium is down.
const storeDegradedAfter = 3

// refreshBackoffMax caps the degraded-mode probe backoff at this many
// refresh intervals, so recovery is noticed within a bounded delay.
const refreshBackoffMax = 8

// storeHealth is the degraded-mode state machine for the snapshot store.
//
//	healthy --(storeDegradedAfter consecutive I/O failures)--> degraded
//	degraded --(any successful store operation)--> healthy
//
// While degraded the server keeps answering every query from cache and
// pipeline — the store is an accelerator, never a dependency — but stops
// attempting write-throughs (each would eat its retry budget in the request
// path) and lets the refresh loop probe for recovery with backoff. The
// transition back to healthy is counted on obs.StoreRecoveries and triggers
// a flush of results computed while the store was away.
type storeHealth struct {
	stats *obs.Stats

	mu       sync.Mutex
	consec   int
	degraded bool
}

func newStoreHealth(stats *obs.Stats) *storeHealth {
	return &storeHealth{stats: stats}
}

// fail records one store I/O failure; it reports whether this failure
// flipped the state machine into degraded mode.
func (h *storeHealth) fail() (flipped bool) {
	h.stats.Add(obs.StoreIOErrors, 1)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consec++
	if !h.degraded && h.consec >= storeDegradedAfter {
		h.degraded = true
		return true
	}
	return false
}

// ok records one successful store operation; it reports whether this was
// the recovery out of degraded mode (counted on obs.StoreRecoveries).
func (h *storeHealth) ok() (recovered bool) {
	h.mu.Lock()
	h.consec = 0
	recovered = h.degraded
	h.degraded = false
	h.mu.Unlock()
	if recovered {
		h.stats.Add(obs.StoreRecoveries, 1)
	}
	return recovered
}

// isDegraded reports the current state.
func (h *storeHealth) isDegraded() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.degraded
}

// isCorruptSnapshot splits a ResultStore error into its two classes: a bad
// snapshot file (the store quarantines it and the pair is simply
// recomputed) versus the medium itself failing (feeds the degraded-mode
// state machine). *store.CorruptError carries the marker method; fakes in
// tests can carry it too.
func isCorruptSnapshot(err error) bool {
	var m interface{ IsCorruptSnapshot() bool }
	return errors.As(err, &m)
}

// refreshLoop runs until ctx is cancelled, refreshing the cache from the
// store every interval (see refreshOnce). While degraded it probes less
// often — doubling the skipped intervals up to refreshBackoffMax — so a
// down store is not hammered every tick, yet recovery is still noticed
// within a bounded delay.
func (c *pairCache) refreshLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	backoff, skip := 1, 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if skip > 0 {
			skip--
			continue
		}
		wasDegraded := c.s.health.isDegraded()
		c.refreshOnce(ctx)
		if c.s.health.isDegraded() {
			if wasDegraded && backoff < refreshBackoffMax {
				backoff *= 2
			}
			skip = backoff - 1
		} else {
			backoff, skip = 1, 0
		}
	}
}

// refreshOnce is one replica-refresh pass: probe the store, then adopt any
// snapshot another replica has written for a pair this server has not
// computed, installing it as a completed flight (counted on
// obs.StoreRefreshLoads). A successful pass while degraded is the recovery
// probe succeeding: the state machine flips back and every result computed
// during the outage is flushed to the store.
func (c *pairCache) refreshOnce(ctx context.Context) {
	if p, ok := c.s.store.(interface{ Ping() error }); ok {
		if err := p.Ping(); err != nil {
			c.s.health.fail()
			return
		}
	}
	ioFailed := false
	for i, pair := range c.s.cur().series.Pairs() {
		if ctx.Err() != nil {
			return
		}
		c.mu.Lock()
		occupied := c.pairs[i] != nil
		c.mu.Unlock()
		if occupied {
			// Cached, failed-and-cleared (nil again), or mid-compute: the
			// single-flight machinery owns this slot.
			continue
		}
		res, err := c.s.store.LoadResult(c.s.cfgHash, pair[0], pair[1])
		switch {
		case err != nil && isCorruptSnapshot(err):
			c.s.stats.Add(obs.StoreCorrupt, 1)
		case err != nil:
			c.s.health.fail()
			ioFailed = true
		case res == nil:
			// No replica has computed this pair yet.
		default:
			c.s.stats.Add(obs.StoreRefreshLoads, 1)
			c.install(i, res)
		}
	}
	if ioFailed {
		return
	}
	if recovered := c.s.health.ok(); recovered {
		c.flushUnpersisted()
	}
}

// install publishes a store-loaded result as a completed, persisted flight,
// unless a compute has claimed the slot in the meantime (that computation's
// own result then wins — it is byte-equivalent anyway, both being the
// deterministic pipeline's output for the same inputs).
func (c *pairCache) install(i int, res *linkage.Result) {
	f := completedFlight(res, true)
	c.mu.Lock()
	if c.pairs[i] == nil {
		c.pairs[i] = f
	}
	c.mu.Unlock()
}

// flushUnpersisted write-throughs every cached result that was computed
// while the store was degraded (its flight carries persisted == false).
// Called on recovery, so an outage never silently loses this replica's work
// for the rest of the fleet.
func (c *pairCache) flushUnpersisted() {
	type todo struct {
		i   int
		f   *flight
		res *linkage.Result
	}
	var flush []todo
	c.mu.Lock()
	for i, f := range c.pairs {
		if f == nil {
			continue
		}
		select {
		case <-f.done:
			if f.err == nil && f.res != nil && !f.persisted {
				flush = append(flush, todo{i: i, f: f, res: f.res})
			}
		default:
		}
	}
	c.mu.Unlock()
	for _, td := range flush {
		pair := c.s.cur().series.Pairs()[td.i]
		if err := c.s.store.SaveResult(c.s.cfgHash, pair[0], pair[1], td.res); err != nil {
			c.s.stats.Add(obs.StoreSaveErrors, 1)
			c.s.health.fail()
			return
		}
		c.s.health.ok()
		c.mu.Lock()
		td.f.persisted = true
		c.mu.Unlock()
	}
}
