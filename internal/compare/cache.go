package compare

// simCacheBits sizes every SimCache: 1<<simCacheBits slots of 16 bytes,
// 256 KiB per cache whatever the dictionary sizes or matcher count.
const simCacheBits = 14

// vidBits is the width of each value ID in a packed cache key: the key
// holds the weighted-matcher index plus one in its top 8 bits (so no key
// is 0, the empty slot) and the old and new value IDs in 28 bits each.
// An engine with a dictionary of more than 1<<vidBits values scores without
// its caches.
const vidBits = 28

// SimCache is a fixed-size, direct-mapped cache of one engine's attribute
// similarities, keyed by (weighted matcher, old value ID, new value ID).
// Census values repeat, so most of a pass's attribute comparisons compare
// a value pair the same worker has compared before. A hit returns the
// exact float64 the comparator returned, so cached scores are bit-for-bit
// the uncached ones; a collision evicts the slot's entry.
//
// A cache is not safe for concurrent use: each worker scores through its
// own. It is bound to the engine that made it (Engine.NewSimCache) and
// used only with that engine.
type SimCache struct {
	eng   *Engine
	slots []simSlot
	shift uint8
	// Hits counts the lookups the cache answered and Misses those it
	// passed to the comparator; the caller reads and resets them.
	Hits, Misses int
}

// simSlot is one cache entry: a packed key and its similarity.
type simSlot struct {
	key uint64
	sim float64
}

// NewSimCache returns an empty cache for scoring through e.
func (e *Engine) NewSimCache() *SimCache { return e.newSimCache(simCacheBits) }

// newSimCache returns an empty cache of 1<<bits slots.
func (e *Engine) newSimCache(bits uint8) *SimCache {
	return &SimCache{eng: e, slots: make([]simSlot, 1<<bits), shift: 64 - bits}
}

// sim returns weighted matcher k's (matcher mi's) similarity of old value
// ov and new value nv, from the cache or, on a miss, from the comparator.
// The slot is written only after Compare returns, so a panicking
// comparator leaves it as it was.
func (c *SimCache) sim(k, mi int, ov, nv int32) float64 {
	key := uint64(k+1)<<(2*vidBits) | uint64(ov)<<vidBits | uint64(nv)
	slot := &c.slots[(key*0x9e3779b97f4a7c15)>>c.shift]
	if slot.key == key {
		c.Hits++
		return slot.sim
	}
	c.Misses++
	s := c.eng.compareValues(mi, ov, nv)
	slot.key, slot.sim = key, s
	return s
}
