package linkage

import (
	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/obs"
)

// CompareMatchers converts the SimFunc's matchers into their compiled form
// for internal/compare. Matchers without a profile comparator fall back to
// memoizing their string function.
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

// compiledPair is the per-year-pair comparison state: one scoring
// engine, the blocking index built once over the full new dataset, and the
// active-record mask the δ-iteration loop narrows instead of rebuilding the
// index per iteration.
type compiledPair struct {
	eng *compare.Engine
	ix  *block.Index
	// active[i] reports whether new record i is still unlinked; shared by
	// the pre-matching and remainder passes of one Link call.
	active []bool
	// Last engine counter values flushed to obs, so each stage reports
	// deltas rather than cumulative totals.
	prevHits, prevMisses, prevPruned int64
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

// flushCounters adds the engine counter deltas since the previous flush to
// the run's observability stats.
func (cp *compiledPair) flushCounters(st *obs.Stats) {
	h, m, p := cp.eng.Counters()
	st.Add(obs.SimCacheHits, int(h-cp.prevHits))
	st.Add(obs.SimCacheMisses, int(m-cp.prevMisses))
	st.Add(obs.PrunedComparisons, int(p-cp.prevPruned))
	cp.prevHits, cp.prevMisses, cp.prevPruned = h, m, p
}
