package compare

import (
	"math"
	"testing"

	"censuslink/internal/strsim"
)

// TestSimCacheCounts scores every record pair over a threshold schedule
// through one cache, on the engine whose comparisons resumeEngines counts,
// and the same pairs without a cache on its twin: the sums, verdicts and
// next indices agree (checkCached), every miss is one comparator call and
// every lookup one comparison the uncached scoring makes. It does so for
// the production size and for a 16-slot table whose lookups collide.
func TestSimCacheCounts(t *testing.T) {
	deltas := []float64{0.7, 0.65, 0.6, 0.55, 0.5, 0.9}
	for _, bits := range []uint8{simCacheBits, 4} {
		cached, uncached, compares := resumeEngines(40, 37)
		c := cached.newSimCache(bits)
		for oi := range cached.Old.Recs {
			for ni := range cached.New.Recs {
				sum, next := 0.0, uint8(0)
				csum, cnext := 0.0, uint8(0)
				for _, delta := range deltas {
					v := uncached.ResumeAtLeast(oi, ni, delta, &sum, &next, nil)
					cv := cached.ResumeAtLeast(oi, ni, delta, &csum, &cnext, c)
					if cv != v || math.Float64bits(csum) != math.Float64bits(sum) || cnext != next {
						t.Fatalf("bits %d pair (%d, %d) at %v: cached (%v, %v, %d), uncached (%v, %v, %d)",
							bits, oi, ni, delta, cv, csum, cnext, v, sum, next)
					}
				}
			}
		}
		if c.Misses != compares[0] {
			t.Errorf("bits %d: %d misses, %d comparator calls", bits, c.Misses, compares[0])
		}
		if c.Hits+c.Misses != compares[1] {
			t.Errorf("bits %d: %d hits + %d misses, the uncached scoring made %d comparisons", bits, c.Hits, c.Misses, compares[1])
		}
		if c.Hits == 0 {
			t.Errorf("bits %d: no lookup hit", bits)
		}
		// Every miss writes a slot, so more misses than slots evicted entries.
		if bits < simCacheBits && c.Misses <= 2*len(c.slots) {
			t.Errorf("bits %d: %d misses in %d slots; want evictions", bits, c.Misses, len(c.slots))
		}
	}
}

// TestSimCachePanickingComparator: a comparator that panics leaves its
// cache slot as it was, so the next lookup of the same value pair misses
// and scores the pair in full, bit-for-bit as an uncached score does.
func TestSimCachePanickingComparator(t *testing.T) {
	old, new := testRecords("o", 6), testRecords("n", 6)
	boom := false
	ms := resumeMatchers()
	first := *ms[0].Prof
	cmp := first.Compare
	first.Compare = func(a, b *strsim.Profile) float64 {
		if boom {
			panic("comparator failed")
		}
		return cmp(a, b)
	}
	ms[0].Prof = &first
	e := NewEngine(Compile(old, ms), Compile(new, ms))
	c := e.NewSimCache()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the comparator did not panic")
			}
		}()
		boom = true
		var s float64
		var k uint8
		e.ResumeAtLeast(1, 2, 0.5, &s, &k, c)
	}()
	boom = false
	var s float64
	var k uint8
	e.ResumeAtLeast(1, 2, math.Inf(-1), &s, &k, c)
	if want := e.AggSim(1, 2); math.Float64bits(s) != math.Float64bits(want) {
		t.Fatalf("after a panic the cached score is %v, AggSim %v", s, want)
	}
	if c.Hits != 0 {
		t.Fatalf("%d hits after a panicking comparison; its slot must stay empty", c.Hits)
	}
}

// TestSimCacheBoundToEngine: a cache scores only through the engine that
// made it; another engine panics rather than read its similarities.
func TestSimCacheBoundToEngine(t *testing.T) {
	a, b, _ := resumeEngines(4, 4)
	c := a.NewSimCache()
	defer func() {
		if recover() == nil {
			t.Fatal("scoring through another engine's cache did not panic")
		}
	}()
	var s float64
	var k uint8
	b.ResumeAtLeast(0, 0, 0.5, &s, &k, c)
}
