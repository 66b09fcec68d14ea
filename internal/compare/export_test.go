package compare

// NewSimCacheBits returns an empty cache of e with 1<<bits slots, so the
// differential tests outside the package can force collisions and
// evictions.
func NewSimCacheBits(e *Engine, bits uint8) *SimCache { return e.newSimCache(bits) }
