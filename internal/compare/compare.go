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
//
// The engine itself is stateless. Values also repeat across record pairs,
// so a caller scoring many pairs on one goroutine passes ResumeAtLeast a
// SimCache: a fixed-size, direct-mapped table of the similarities of the
// value pairs that goroutine has compared, which returns the exact float64
// the comparator returned. A nil cache scores straight through the
// comparators on the same loop.
package compare

import (
	"fmt"
	"math"

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
// compiled datasets. It holds no mutable state, so it is safe for
// concurrent use, and it is designed to live across all δ-iterations of a
// LinkContext call; callers that keep each pair's resumable score
// (ResumeAtLeast) continue at a relaxed threshold where the higher one
// stopped, and callers that score many pairs give each worker a SimCache
// of its own.
type Engine struct {
	Old *CompiledDataset
	New *CompiledDataset
	// suffixW[i] is the total weight of matchers after i: the maximum
	// possible remaining contribution once matcher i has been added.
	suffixW []float64
	// scored lists the matchers with non-zero weight in matcher order; a
	// resumable score's next index counts into it.
	scored []int
	// cacheable reports whether every dictionary's value IDs fit a
	// SimCache key; when not, ResumeAtLeast scores without the cache.
	cacheable bool
}

// Verdict is the outcome of scoring a pair against a threshold δ.
type Verdict uint8

const (
	// Below: every weighted matcher was added and the sum is under δ.
	Below Verdict = iota
	// Pruned: the remaining-weight upper bound proved the pair under δ
	// while at least one weighted matcher was still to be added; a pair
	// with every weighted matcher added is Below, never Pruned.
	Pruned
	// Accepted: the sum reached δ; it is bit-for-bit AggSim.
	Accepted
)

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
	e.cacheable = true
	for mi := range old.matchers {
		if len(old.profiles[mi]) > 1<<vidBits || len(new.profiles[mi]) > 1<<vidBits {
			e.cacheable = false
		}
	}
	return e
}

// compareValues returns the matcher-mi similarity of old value ov and new
// value nv, compared on their interned profiles.
func (e *Engine) compareValues(mi int, ov, nv int32) float64 {
	return e.Old.matchers[mi].Prof.Compare(&e.Old.profiles[mi][ov], &e.New.profiles[mi][nv])
}

// AggSim returns the weighted aggregated similarity of old record oi and
// new record ni, bit-for-bit equal to linkage.SimFunc.AggSim on the same
// records: identical per-attribute values, identical accumulation order.
// It is ResumeAtLeast from zero state at δ = −Inf, which never prunes.
func (e *Engine) AggSim(oi, ni int) float64 {
	var s float64
	var k uint8
	e.ResumeAtLeast(oi, ni, math.Inf(-1), &s, &k, nil)
	return s
}

// AggSimAtLeast returns (AggSim(oi, ni), Accepted) when the aggregated
// similarity reaches delta, and (AggSim(oi, ni), Below) when it falls short
// after every matcher. When the remaining-weight upper bound proves the
// pair cannot reach delta it stops early and returns the partial sum with
// Pruned; the partial value must not be used as an exact similarity.
// The epsilon guard guarantees no pair whose full similarity is ≥ delta is
// ever pruned, so accepted pairs are exactly those AggSim accepts.
func (e *Engine) AggSimAtLeast(oi, ni int, delta float64) (float64, Verdict) {
	var s float64
	var k uint8
	v := e.ResumeAtLeast(oi, ni, delta, &s, &k, nil)
	return s, v
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
// If the pair is not fully scored and the stored upper bound *sum +
// suffixW (the weight still to come) proves it below delta, it returns
// Pruned without comparing an attribute. Otherwise it adds the remaining
// matchers in matcher order, stopping early with Pruned once the upper
// bound falls below delta while a matcher is still to come, and returns
// Accepted or Below once every weighted matcher is in. The caller counts
// the Pruned verdicts it reports. Because matchers are added in the same
// order whatever the thresholds, *sum after an accepting call is
// bit-for-bit AggSim, and the pairs accepted at each delta are exactly
// those a fresh score accepts. Over a non-increasing threshold sequence
// the partial sum of a rejected pair is also the one a fresh score
// returns.
//
// Attribute similarities come from c, a cache of e's (NewSimCache), or
// straight from the comparators when c is nil; either way the sums are
// the same, bit for bit.
func (e *Engine) ResumeAtLeast(oi, ni int, delta float64, sum *float64, next *uint8, c *SimCache) Verdict {
	if c != nil && c.eng != e {
		panic("compare: SimCache used with an engine that did not make it")
	}
	if !e.cacheable {
		c = nil
	}
	s, k, n := *sum, int(*next), len(e.scored)
	if k > 0 && k < n && s+e.suffixW[e.scored[k-1]] < delta-pruneEps {
		return Pruned
	}
	for ; k < n; k++ {
		mi := e.scored[k]
		ov, nv := e.Old.ids[mi][oi], e.New.ids[mi][ni]
		var a float64
		if c != nil {
			a = c.sim(k, mi, ov, nv)
		} else {
			a = e.compareValues(mi, ov, nv)
		}
		s += e.Old.matchers[mi].Weight * a
		if k+1 < n && s+e.suffixW[mi] < delta-pruneEps {
			*sum, *next = s, uint8(k+1)
			return Pruned
		}
	}
	*sum, *next = s, uint8(k)
	if s >= delta {
		return Accepted
	}
	return Below
}

// SimVector returns the per-matcher similarity vector, bit-for-bit equal
// to linkage.SimFunc.SimVector (zero-weight matchers included).
func (e *Engine) SimVector(oi, ni int) []float64 {
	out := make([]float64, len(e.suffixW))
	for mi := range out {
		out[mi] = e.compareValues(mi, e.Old.ids[mi][oi], e.New.ids[mi][ni])
	}
	return out
}
