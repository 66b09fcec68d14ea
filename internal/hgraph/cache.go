package hgraph

import (
	"sync"

	"censuslink/internal/census"
)

// Cache memoizes BuildAll per dataset content hash so a long-lived process
// (the linkserver, an append-only evolution build) enriches each census year
// once, no matter how many year pairs it participates in. Entries are keyed
// by census.Dataset.ContentHash, so two Dataset values holding the same
// records share one enrichment and a re-read dataset with edits misses
// cleanly.
//
// The cached graphs are treated as immutable by every consumer (the linkage
// pipeline only reads them), so handing the same map to concurrent callers
// is safe. A Cache is safe for concurrent use; the zero value is NOT ready —
// use NewCache.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    uint64
	misses  uint64
}

// cacheEntry is a single-flight slot: the first caller for a hash builds the
// graphs while later callers wait on done.
type cacheEntry struct {
	done   chan struct{}
	graphs map[string]*Graph
}

// NewCache returns an empty enrichment cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// BuildAll returns the enriched household graphs for d, building them on the
// first call for d's content hash and reusing them afterwards. Concurrent
// callers for the same dataset coalesce onto one build. If the build
// panics, the panic propagates to its caller, the entry is dropped and the
// callers waiting on it build the graphs themselves.
func (c *Cache) BuildAll(d *census.Dataset) map[string]*Graph { return c.build(d, BuildAll) }

// build is BuildAll with the builder of a missing entry given.
func (c *Cache) build(d *census.Dataset, buildAll func(*census.Dataset) map[string]*Graph) map[string]*Graph {
	key := d.ContentHash()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.done
		if e.graphs == nil {
			return buildAll(d)
		}
		return e.graphs
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	defer func() {
		if e.graphs == nil {
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.graphs = buildAll(d)
	return e.graphs
}

// Stats reports cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the number of cached datasets.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
