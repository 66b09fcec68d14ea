// Package compare implements the compiled comparison engine: census records
// are compiled once per dataset — every attribute value interned into a
// per-attribute dictionary of value IDs with one precomputed strsim.Profile
// per distinct value — and record pairs are then scored by comparing the
// two records' profiles matcher by matcher, with a remaining-weight
// upper-bound early exit and a resumable partial score.
//
// Census data is dominated by small dictionaries of distinct surnames,
// addresses and occupations, so normalising and tokenising each distinct
// value once leaves each attribute comparison only the profile kernel. The
// engine is constructed so its results are bit-for-bit identical to the
// interpreted string path (linkage.SimFunc): profiles share the same
// rune-level cores as the string functions, and aggregation follows the
// same matcher order with the same skip-zero-weight rule.
package compare

import (
	"fmt"
	"math"
	"sync/atomic"

	"censuslink/internal/census"
	"censuslink/internal/strsim"
)

// Matcher is the compiled form of one weighted attribute comparator. It
// mirrors linkage.AttributeMatcher without importing the linkage package
// (linkage imports compare, not the reverse).
type Matcher struct {
	Attr   census.Attribute
	Weight float64
	// Prof is the profile comparator. When nil, Sim is wrapped with
	// strsim.FuncProfiled, whose profile is the raw value, so the matcher
	// scores through the string path.
	Prof *strsim.Profiled
	// Sim is the interpreted fallback used when Prof is nil.
	Sim strsim.Func
}

// CompiledDataset holds one record list compiled against a matcher set:
// per-matcher value-ID vectors plus one profile per distinct value.
type CompiledDataset struct {
	Recs     []*census.Record
	matchers []Matcher
	// ids[mi][ri] is the dictionary ID of record ri's value for matcher mi.
	ids [][]int32
	// profiles[mi][vid] is the precompiled profile of distinct value vid.
	profiles [][]strsim.Profile
	pos      map[string]int
}

// Compile interns recs against the matcher set. Matchers sharing an
// attribute share one dictionary pass; profiles are built per matcher
// because different comparators compile values differently.
func Compile(recs []*census.Record, matchers []Matcher) *CompiledDataset {
	cd := &CompiledDataset{
		Recs:     recs,
		matchers: make([]Matcher, len(matchers)),
		ids:      make([][]int32, len(matchers)),
		profiles: make([][]strsim.Profile, len(matchers)),
		pos:      make(map[string]int, len(recs)),
	}
	copy(cd.matchers, matchers)
	for mi := range cd.matchers {
		if cd.matchers[mi].Prof == nil {
			if cd.matchers[mi].Sim == nil {
				panic(fmt.Sprintf("compare: matcher %d (%v) has neither Prof nor Sim", mi, cd.matchers[mi].Attr))
			}
			cd.matchers[mi].Prof = strsim.FuncProfiled("func", cd.matchers[mi].Sim)
		}
	}
	for i, r := range recs {
		cd.pos[r.ID] = i
	}
	// One dictionary pass per distinct attribute.
	var attrIDs [census.NumAttributes][]int32
	var attrVals [census.NumAttributes][]string
	for _, m := range cd.matchers {
		if attrIDs[m.Attr] != nil {
			continue
		}
		ids := make([]int32, len(recs))
		seen := make(map[string]int32, 64)
		vals := make([]string, 0, 64)
		for i, r := range recs {
			v := r.Value(m.Attr)
			id, ok := seen[v]
			if !ok {
				id = int32(len(vals))
				seen[v] = id
				vals = append(vals, v)
			}
			ids[i] = id
		}
		attrIDs[m.Attr] = ids
		attrVals[m.Attr] = vals
	}
	for mi, m := range cd.matchers {
		cd.ids[mi] = attrIDs[m.Attr]
		vals := attrVals[m.Attr]
		profs := make([]strsim.Profile, len(vals))
		for vi, v := range vals {
			profs[vi] = m.Prof.Build(v)
		}
		cd.profiles[mi] = profs
	}
	return cd
}

// Pos returns the index of the record with the given ID.
func (cd *CompiledDataset) Pos(id string) (int, bool) {
	i, ok := cd.pos[id]
	return i, ok
}

// DistinctValues returns the dictionary size for matcher mi, for
// diagnostics and tests.
func (cd *CompiledDataset) DistinctValues(mi int) int {
	return len(cd.profiles[mi])
}

// pruneEps guards the remaining-weight early exit against float rounding:
// a pair is pruned only when even a maximal remaining contribution leaves
// it more than pruneEps below δ, so no pair that the full sum would accept
// can ever be cut short. Attribute similarities are in [0, 1] and the
// aggregation involves at most a handful of multiply-adds, so accumulated
// error is orders of magnitude below 1e-9.
const pruneEps = 1e-9

// Engine scores (old record index, new record index) pairs between two
// compiled datasets. It is safe for concurrent use and is designed to live
// across all δ-iterations of a LinkContext call; callers that keep each
// pair's resumable score (ResumeAtLeast) continue at a relaxed threshold
// where the higher one stopped.
type Engine struct {
	Old *CompiledDataset
	New *CompiledDataset
	// suffixW[i] is the total weight of matchers after i: the maximum
	// possible remaining contribution once matcher i has been added.
	suffixW []float64
	// scored lists the matchers with non-zero weight in matcher order; a
	// resumable score's next index counts into it.
	scored []int

	pruned atomic.Int64
}

// NewEngine pairs two datasets compiled against the same matcher set.
func NewEngine(old, new *CompiledDataset) *Engine {
	if len(old.matchers) != len(new.matchers) {
		panic(fmt.Sprintf("compare: matcher count mismatch: %d vs %d", len(old.matchers), len(new.matchers)))
	}
	for mi := range old.matchers {
		if old.matchers[mi].Attr != new.matchers[mi].Attr {
			panic(fmt.Sprintf("compare: matcher %d attribute mismatch: %v vs %v", mi, old.matchers[mi].Attr, new.matchers[mi].Attr))
		}
	}
	e := &Engine{
		Old:     old,
		New:     new,
		suffixW: make([]float64, len(old.matchers)),
	}
	for i := len(old.matchers) - 1; i >= 0; i-- {
		if i+1 < len(old.matchers) {
			e.suffixW[i] = e.suffixW[i+1] + old.matchers[i+1].Weight
		}
	}
	for mi, m := range old.matchers {
		if m.Weight != 0 {
			e.scored = append(e.scored, mi)
		}
	}
	if len(e.scored) > MaxWeightedMatchers {
		panic(fmt.Sprintf("compare: %d weighted matchers, at most %d can resume", len(e.scored), MaxWeightedMatchers))
	}
	return e
}

// attrSim returns the matcher-mi similarity of the pair, compared on the
// two interned value profiles.
func (e *Engine) attrSim(mi, oi, ni int) float64 {
	a, b := &e.Old.profiles[mi][e.Old.ids[mi][oi]], &e.New.profiles[mi][e.New.ids[mi][ni]]
	return e.Old.matchers[mi].Prof.Compare(a, b)
}

// AggSim returns the weighted aggregated similarity of old record oi and
// new record ni, bit-for-bit equal to linkage.SimFunc.AggSim on the same
// records: identical per-attribute values, identical accumulation order.
// It is ResumeAtLeast from zero state at δ = −Inf, which never prunes.
func (e *Engine) AggSim(oi, ni int) float64 {
	var s float64
	var k uint8
	e.ResumeAtLeast(oi, ni, math.Inf(-1), &s, &k)
	return s
}

// AggSimAtLeast returns (AggSim(oi, ni), true) when the aggregated
// similarity reaches delta. When the remaining-weight upper bound proves
// the pair cannot reach delta it stops early and returns the partial sum
// with false; the partial value must not be used as an exact similarity.
// The epsilon guard guarantees no pair whose full similarity is ≥ delta is
// ever pruned, so accepted pairs are exactly those AggSim accepts.
func (e *Engine) AggSimAtLeast(oi, ni int, delta float64) (float64, bool) {
	var s float64
	var k uint8
	ok := e.ResumeAtLeast(oi, ni, delta, &s, &k)
	return s, ok
}

// MaxWeightedMatchers is the largest number of weighted matchers an
// Engine accepts: a resumable score's uint8 next index counts them.
const MaxWeightedMatchers = 255

// ResumeAtLeast is AggSimAtLeast for a pair that may be scored again at
// another threshold: *sum and *next hold the pair's partial sum and the
// number of weighted matchers already added to it, both zero for a pair
// never scored, and are updated in place. AggSimAtLeast is this call from
// zero state.
//
// If the stored upper bound *sum + suffixW (the weight still to come)
// proves the pair below delta, it returns false without comparing an
// attribute and counts a pruned comparison. Otherwise it adds the
// remaining matchers in matcher order, stopping early once the upper bound
// falls below delta. Because matchers are added in the same order whatever
// the thresholds, *sum after an accepting call is bit-for-bit AggSim, and
// the pairs accepted at each delta are exactly those a fresh score
// accepts. Over a non-increasing threshold sequence the partial sum of a
// rejected pair is also the one a fresh score returns.
func (e *Engine) ResumeAtLeast(oi, ni int, delta float64, sum *float64, next *uint8) bool {
	s, k := *sum, int(*next)
	if k > 0 && s+e.suffixW[e.scored[k-1]] < delta-pruneEps {
		e.pruned.Add(1)
		return false
	}
	for ; k < len(e.scored); k++ {
		mi := e.scored[k]
		s += e.Old.matchers[mi].Weight * e.attrSim(mi, oi, ni)
		if s+e.suffixW[mi] < delta-pruneEps {
			*sum, *next = s, uint8(k+1)
			e.pruned.Add(1)
			return false
		}
	}
	*sum, *next = s, uint8(k)
	return s >= delta
}

// SimVector returns the per-matcher similarity vector, bit-for-bit equal
// to linkage.SimFunc.SimVector (zero-weight matchers included).
func (e *Engine) SimVector(oi, ni int) []float64 {
	out := make([]float64, len(e.suffixW))
	for mi := range out {
		out[mi] = e.attrSim(mi, oi, ni)
	}
	return out
}

// Pruned returns the cumulative count of comparisons the upper bound cut
// short.
func (e *Engine) Pruned() int64 {
	return e.pruned.Load()
}
