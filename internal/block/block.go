// Package block provides blocking (indexing) strategies that restrict the
// pairwise record comparison space between two census datasets, avoiding the
// full cross product R_i × R_{i+1}.
//
// A blocking Strategy maps each record to one or more blocking keys; records
// from the two datasets that share a key become candidate pairs. Multiple
// strategies are combined as a union (multi-pass blocking), and every
// candidate pair is visited exactly once.
package block

import (
	"sort"
	"sync/atomic"

	"censuslink/internal/census"
	"censuslink/internal/strsim"
)

// KeyFunc derives the blocking keys of a record. The census year is passed
// so keys can be computed on time-shifted values such as the birth year.
// Returning no keys excludes the record from the pass.
type KeyFunc func(r *census.Record, year int) []string

// Strategy is a named blocking pass.
type Strategy struct {
	Name string
	Keys KeyFunc
}

// SurnameSoundex blocks on the Soundex code of the surname. It is the
// primary pass: surnames are the most stable high-selectivity attribute.
func SurnameSoundex() Strategy {
	return Strategy{
		Name: "surname-soundex",
		Keys: func(r *census.Record, _ int) []string {
			code := strsim.Soundex(r.Surname)
			if code == "" {
				return nil
			}
			return []string{"sn:" + code}
		},
	}
}

// FirstNameSoundexSex blocks on the Soundex code of the first name combined
// with sex. This pass recovers records whose surname changed between
// censuses (typically women at marriage).
func FirstNameSoundexSex() Strategy {
	return Strategy{
		Name: "firstname-soundex-sex",
		Keys: func(r *census.Record, _ int) []string {
			code := strsim.Soundex(r.FirstName)
			if code == "" {
				return nil
			}
			return []string{"fn:" + code + ":" + r.Sex.String()}
		},
	}
}

// BirthYearBand blocks on the estimated birth year (census year minus age)
// rounded into bands of the given width, emitting the band and its two
// neighbours so that small age-recording errors still collide.
func BirthYearBand(width int) Strategy {
	if width < 1 {
		width = 5
	}
	return Strategy{
		Name: "birthyear-band",
		Keys: func(r *census.Record, year int) []string {
			if r.Age == census.AgeMissing {
				return nil
			}
			birth := year - r.Age
			band := birth / width
			return []string{
				"by:" + itoa(band-1),
				"by:" + itoa(band),
				"by:" + itoa(band+1),
			}
		},
	}
}

// DefaultStrategies is the multi-pass configuration used by the linkage
// pipeline: a stable-surname pass plus a surname-change recovery pass.
func DefaultStrategies() []Strategy {
	return []Strategy{SurnameSoundex(), FirstNameSoundexSex()}
}

// CrossProduct is a degenerate strategy that puts every record into a single
// block. Only suitable for small datasets and tests.
func CrossProduct() Strategy {
	return Strategy{
		Name: "cross-product",
		Keys: func(*census.Record, int) []string { return []string{"all"} },
	}
}

// Index is a prebuilt blocking index over the records of the newer dataset.
// It stores dataset positions (int32) rather than record pointers so the
// iterative linkage loop can build it once per year-pair and filter the
// shrinking unlinked subset per δ-iteration instead of rebuilding it.
// It can be queried concurrently once built.
type Index struct {
	recs       []*census.Record
	strategies []Strategy
	byKey      []map[string][]int32 // one map per strategy; values are positions in recs
	generated  atomic.Int64         // raw key collisions across all Candidates calls
}

// Generated returns the raw number of candidate-pair hits the index has
// produced so far, before cross-strategy deduplication — the "blocking
// pairs generated" figure of the run report. Distinct pairs actually handed
// to comparison are counted by the caller; the difference measures how much
// the multi-pass strategies overlap. Safe for concurrent queries.
func (ix *Index) Generated() int64 { return ix.generated.Load() }

// NewIndex indexes the given records (of the dataset with the given census
// year) under every strategy.
func NewIndex(recs []*census.Record, year int, strategies []Strategy) *Index {
	ix := &Index{
		recs:       recs,
		strategies: strategies,
		byKey:      make([]map[string][]int32, len(strategies)),
	}
	for si, s := range strategies {
		m := make(map[string][]int32)
		for i, r := range recs {
			for _, k := range s.Keys(r, year) {
				m[k] = append(m[k], int32(i))
			}
		}
		ix.byKey[si] = m
	}
	return ix
}

// Len returns the number of indexed records.
func (ix *Index) Len() int { return len(ix.recs) }

// Scratch is reusable per-worker query state for CandidateIndices. The
// epoch-stamp array replaces the per-call map clear of the old scratch map:
// bumping the epoch invalidates every previous stamp in O(1), so dedup
// state is reused across candidate calls without any reset loop.
type Scratch struct {
	stamp []int32
	epoch int32
	out   []int32
}

// reset prepares the scratch for an index of n records and starts a new
// dedup epoch.
func (sc *Scratch) reset(n int) {
	if len(sc.stamp) < n {
		sc.stamp = make([]int32, n)
		sc.epoch = 0
	}
	if sc.epoch == int32(^uint32(0)>>1) { // epoch overflow: hard reset
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	sc.out = sc.out[:0]
}

// CandidateIndices returns the positions of the distinct indexed records
// sharing at least one blocking key with record o (whose dataset has the
// given year), in ascending position order — the same order the pointer
// API returns records in. The returned slice aliases the scratch buffer
// and is only valid until the next call with the same Scratch.
func (ix *Index) CandidateIndices(o *census.Record, oldYear int, sc *Scratch) []int32 {
	out, _ := ix.query(o, oldYear, sc)
	return out
}

// query is CandidateIndices that also returns the record's raw hit count.
func (ix *Index) query(o *census.Record, oldYear int, sc *Scratch) ([]int32, int) {
	if sc == nil {
		sc = &Scratch{}
	}
	sc.reset(len(ix.recs))
	raw := 0
	for si, s := range ix.strategies {
		for _, k := range s.Keys(o, oldYear) {
			for _, n := range ix.byKey[si][k] {
				raw++
				if sc.stamp[n] == sc.epoch {
					continue
				}
				sc.stamp[n] = sc.epoch
				sc.out = append(sc.out, n)
			}
		}
	}
	if raw > 0 {
		ix.generated.Add(int64(raw)) // one add per query, not per hit
	}
	sort.Slice(sc.out, func(i, j int) bool { return sc.out[i] < sc.out[j] })
	return sc.out, raw
}

// CandidateTable is the blocked candidate set of a year pair in flat
// (CSR) form, queried once and read by every pass that needs candidates.
// Row i lists, in ascending order, the distinct positions in the indexed
// new dataset that CandidateIndices returns for the i-th queried old
// record; entries are numbered consecutively across rows, so a caller can
// keep per-entry state in a parallel slice of length Pairs(). The table is
// read-only once built and safe for concurrent readers.
type CandidateTable struct {
	// start[i] is the entry number of row i's first entry; row i spans
	// nbr[start[i]:start[i+1]].
	start []int
	nbr   []int32
	// raw[i] is row i's raw hit count across all strategies, before
	// deduplication.
	raw []int32
}

// AppendRow queries the index once for old record o (of a dataset with the
// given year) and appends its candidates as the table's next row. The
// query counts towards Generated like any CandidateIndices call.
func (ix *Index) AppendRow(t *CandidateTable, o *census.Record, oldYear int, sc *Scratch) {
	if len(t.start) == 0 {
		t.start = append(t.start, 0)
	}
	row, raw := ix.query(o, oldYear, sc)
	t.nbr = append(t.nbr, row...)
	t.start = append(t.start, len(t.nbr))
	t.raw = append(t.raw, int32(raw))
}

// AppendEmptyRow appends a row with no candidates and no raw hits.
func (t *CandidateTable) AppendEmptyRow() {
	if len(t.start) == 0 {
		t.start = append(t.start, 0)
	}
	t.start = append(t.start, len(t.nbr))
	t.raw = append(t.raw, 0)
}

// JoinTables concatenates tables built over consecutive runs of old
// records into one table whose rows follow in argument order.
func JoinTables(parts ...*CandidateTable) *CandidateTable {
	rows, pairs := 0, 0
	for _, p := range parts {
		rows += p.Rows()
		pairs += p.Pairs()
	}
	t := &CandidateTable{
		start: make([]int, 1, rows+1),
		nbr:   make([]int32, 0, pairs),
		raw:   make([]int32, 0, rows),
	}
	for _, p := range parts {
		base := len(t.nbr)
		for _, st := range p.start[min(1, len(p.start)):] {
			t.start = append(t.start, base+st)
		}
		t.nbr = append(t.nbr, p.nbr...)
		t.raw = append(t.raw, p.raw...)
	}
	return t
}

// Rows returns the number of rows (queried old records).
func (t *CandidateTable) Rows() int { return len(t.raw) }

// Pairs returns the number of entries: distinct candidate pairs over all
// rows.
func (t *CandidateTable) Pairs() int { return len(t.nbr) }

// Row returns the candidate new positions of row i in ascending order. The
// slice aliases the table and must not be modified.
func (t *CandidateTable) Row(i int) []int32 { return t.nbr[t.start[i]:t.start[i+1]] }

// Offset returns the entry number of row i's first entry.
func (t *CandidateTable) Offset(i int) int { return t.start[i] }

// Raw returns row i's raw hit count before cross-strategy deduplication.
func (t *CandidateTable) Raw(i int) int { return int(t.raw[i]) }

// Bytes returns the memory held by the table's arrays.
func (t *CandidateTable) Bytes() int {
	return 8*cap(t.start) + 4*cap(t.nbr) + 4*cap(t.raw)
}

// Candidates returns the distinct indexed records sharing at least one
// blocking key with record o, ordered by their position in the indexed
// dataset. Convenience wrapper over CandidateIndices; the scratch, if
// non-nil, is reused across calls to avoid allocation in tight loops.
func (ix *Index) Candidates(o *census.Record, oldYear int, sc *Scratch) []*census.Record {
	idxs := ix.CandidateIndices(o, oldYear, sc)
	out := make([]*census.Record, len(idxs))
	for i, n := range idxs {
		out[i] = ix.recs[n]
	}
	return out
}

// Candidates enumerates the union of candidate pairs over all strategies and
// calls visit exactly once per distinct (old, new) record pair. Enumeration
// order is deterministic: old records in input order, and for each old
// record its candidates in new-input order.
func Candidates(old []*census.Record, oldYear int, new []*census.Record, newYear int,
	strategies []Strategy, visit func(o, n *census.Record)) {
	ix := NewIndex(new, newYear, strategies)
	var scratch Scratch
	for _, o := range old {
		for _, n := range ix.Candidates(o, oldYear, &scratch) {
			visit(o, n)
		}
	}
}

// CountPairs returns the number of distinct candidate pairs the strategies
// generate, for reduction-ratio reporting.
func CountPairs(old []*census.Record, oldYear int, new []*census.Record, newYear int, strategies []Strategy) int {
	n := 0
	Candidates(old, oldYear, new, newYear, strategies, func(_, _ *census.Record) { n++ })
	return n
}

// itoa is a minimal integer formatter (avoids strconv import for one use).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
