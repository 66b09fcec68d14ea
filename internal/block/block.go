// Package block provides blocking (indexing) strategies that restrict the
// pairwise record comparison space between two census datasets, avoiding the
// full cross product R_i × R_{i+1}.
//
// A blocking Strategy maps each record to one or more blocking keys; an
// old record and a new one become a candidate pair when one of the old
// record's probe keys equals one of the new record's index keys (for most
// strategies the two key sets are the same). Multiple strategies are
// combined as a union (multi-pass blocking), and every candidate pair is
// visited exactly once.
package block

import (
	"slices"
	"sync/atomic"

	"censuslink/internal/census"
	"censuslink/internal/strsim"
)

// Key is a blocking key. Within one strategy, two records share a block
// exactly when they emit an equal Key, so each strategy packs the parts
// that define its blocks into the three words injectively (see the
// strategy constructors for each layout). Keys of different strategies
// never meet: the index keeps one key space per strategy.
//
// Every built-in strategy leaves the top 16 bits of Tag zero, so a
// wrapping strategy can scope keys (by district, say) by setting them.
type Key struct {
	// Tag holds small discriminators: an LSH band index and a sex byte.
	Tag    uint64
	Hi, Lo uint64
}

// KeyFunc appends the blocking keys of a record to dst and returns the
// extended slice. The census year is passed so keys can be computed on
// time-shifted values such as the birth year. Appending no keys excludes
// the record from the pass. A KeyFunc may keep caches between calls, so it
// must not be shared between goroutines.
type KeyFunc func(r *census.Record, year int, dst []Key) []Key

// Strategy is a named blocking pass.
type Strategy struct {
	Name string
	// Keys returns a key function for one goroutine. Every key function of
	// a strategy returns the same keys for the same record and year. An
	// index files each record under its Keys.
	Keys func() KeyFunc
	// Probe, when set, returns the key function a query looks a record up
	// with; nil means Keys. A pass whose blocks overlap (the birth-year
	// bands) files each record under its own block only and probes every
	// block it overlaps, so a record meets an indexed one at most once per
	// block instead of once per shared neighbour.
	Probe func() KeyFunc
}

// stateless wraps a cache-free key function as a Strategy.Keys factory.
func stateless(f KeyFunc) func() KeyFunc { return func() KeyFunc { return f } }

// sexByte is the sex as its string form encoded it: 'm', 'f' or 0 for
// every other value.
func sexByte(s census.Sex) uint64 {
	if s == census.SexMale || s == census.SexFemale {
		return uint64(s)
	}
	return 0
}

// soundexKey packs a Soundex code (a letter and three digits, never more
// than eight bytes) and its length into a key.
func soundexKey(code string) Key {
	var lo uint64
	for i := 0; i < len(code); i++ {
		lo = lo<<8 | uint64(code[i])
	}
	return Key{Hi: uint64(len(code)), Lo: lo}
}

// SurnameSoundex blocks on the Soundex code of the surname. It is the
// primary pass: surnames are the most stable high-selectivity attribute.
// Key: the code in Hi/Lo.
func SurnameSoundex() Strategy {
	return Strategy{
		Name: "surname-soundex",
		Keys: stateless(func(r *census.Record, _ int, dst []Key) []Key {
			code := strsim.Soundex(r.Surname)
			if code == "" {
				return dst
			}
			return append(dst, soundexKey(code))
		}),
	}
}

// FirstNameSoundexSex blocks on the Soundex code of the first name combined
// with sex. This pass recovers records whose surname changed between
// censuses (typically women at marriage). Key: the code in Hi/Lo, the sex
// in Tag.
func FirstNameSoundexSex() Strategy {
	return Strategy{
		Name: "firstname-soundex-sex",
		Keys: stateless(func(r *census.Record, _ int, dst []Key) []Key {
			code := strsim.Soundex(r.FirstName)
			if code == "" {
				return dst
			}
			k := soundexKey(code)
			k.Tag = sexByte(r.Sex)
			return append(dst, k)
		}),
	}
}

// birthBand returns the record's estimated birth year (census year minus
// age) divided into bands of the given width, and false for a missing age.
func birthBand(r *census.Record, year, width int) (int, bool) {
	if r.Age == census.AgeMissing {
		return 0, false
	}
	return (year - r.Age) / width, true
}

// birthSpread is how many birth-year bands on either side of its own a
// probe reaches: two records of a birth-year-guarded pass meet when their
// bands differ by at most birthSpread.
const birthSpread = 2

// BirthYearBand blocks on the estimated birth year (census year minus age)
// rounded into bands of the given width. A record is indexed under its own
// band and probes the bands within two of it, so small age-recording errors
// still collide: two records meet when their bands differ by at most two
// (modulo 2^64, as the band wraps in uint64), once. Key: the band in Lo.
func BirthYearBand(width int) Strategy {
	if width < 1 {
		width = 5
	}
	keys := func(spread int) func() KeyFunc {
		return stateless(func(r *census.Record, year int, dst []Key) []Key {
			band, ok := birthBand(r, year, width)
			if !ok {
				return dst
			}
			for d := -spread; d <= spread; d++ {
				dst = append(dst, Key{Lo: uint64(band + d)})
			}
			return dst
		})
	}
	return Strategy{Name: "birthyear-band", Keys: keys(0), Probe: keys(birthSpread)}
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
		Keys: stateless(func(_ *census.Record, _ int, dst []Key) []Key { return append(dst, Key{}) }),
	}
}

// RecordKeys holds the blocking keys of a run of consecutive records under
// every strategy of a pass set, in record order. Building it is the costly
// half of indexing, so callers can key disjoint runs on separate
// goroutines and join the runs with NewIndexFromKeys. One RecordKeys must
// not be shared between goroutines: it owns one key function (and so one
// cache) per strategy.
type RecordKeys struct {
	strategies []Strategy
	fns        []KeyFunc
	// keys[si] holds strategy si's keys, record after record; end[si][i]
	// is the end of record i's keys in keys[si].
	keys [][]Key
	end  [][]int32
	n    int
	// size is the expected number of records, for sizing the key arrays.
	size int
}

// NewRecordKeys returns an empty run keyed under the given strategies,
// with room for about size records.
func NewRecordKeys(strategies []Strategy, size int) *RecordKeys {
	rk := &RecordKeys{
		strategies: strategies,
		keys:       make([][]Key, len(strategies)),
		end:        make([][]int32, len(strategies)),
		size:       size,
	}
	for si := range rk.end {
		rk.end[si] = make([]int32, 0, size)
	}
	return rk
}

// Append keys record r (of a dataset with the given year) as the run's
// next record.
func (rk *RecordKeys) Append(r *census.Record, year int) {
	if rk.fns == nil {
		rk.fns = keyFuncs(rk.strategies)
	}
	for si, f := range rk.fns {
		had := len(rk.keys[si])
		rk.keys[si] = f(r, year, rk.keys[si])
		if had == 0 && len(rk.keys[si]) > 0 {
			// Most records emit as many keys as the first one that emits
			// any does.
			rk.keys[si] = slices.Grow(rk.keys[si], len(rk.keys[si])*max(rk.size-rk.n-1, 0))
		}
		rk.end[si] = append(rk.end[si], int32(len(rk.keys[si])))
	}
	rk.n++
}

// AppendEmpty appends a record with no keys: it is in no block.
func (rk *RecordKeys) AppendEmpty() {
	for si := range rk.strategies {
		rk.end[si] = append(rk.end[si], int32(len(rk.keys[si])))
	}
	rk.n++
}

// keyFuncs returns one fresh index key function per strategy.
func keyFuncs(strategies []Strategy) []KeyFunc {
	fns := make([]KeyFunc, len(strategies))
	for si, s := range strategies {
		fns[si] = s.Keys()
	}
	return fns
}

// probeFuncs returns one fresh probe key function per strategy.
func probeFuncs(strategies []Strategy) []KeyFunc {
	fns := make([]KeyFunc, len(strategies))
	for si, s := range strategies {
		if s.Probe != nil {
			fns[si] = s.Probe()
		} else {
			fns[si] = s.Keys()
		}
	}
	return fns
}

// postings is one strategy's key space in CSR form: list l spans
// pos[start[l]:start[l+1]], the positions of the records emitting the
// key with id l, ascending (a record emitting a key twice is listed
// twice).
type postings struct {
	ids   keyIDs
	start []int32
	pos   []int32
}

// newPostings fills strategy si's postings from the runs, visiting
// records in order so every list comes out ascending.
func newPostings(si int, parts []*RecordKeys) postings {
	total := 0
	for _, p := range parts {
		total += len(p.keys[si])
	}
	// At most about three in four index keys of a pass are distinct: on
	// the benchmark's synthetic pairs, 65-73% under the guarded surname LSH
	// pass, 47-51% under the first-name one, 54-59% under the full-name
	// pass and 8-15% under the Soundex passes. The table grows if more are.
	var ids keyIDs
	ids.init(total - total/4)
	occ := make([]int32, 0, total) // list id of every key occurrence
	var count []int32
	for _, p := range parts {
		for _, k := range p.keys[si] {
			id := ids.put(k, int32(len(count)))
			if int(id) == len(count) {
				count = append(count, 0)
			}
			count[id]++
			occ = append(occ, id)
		}
	}
	start := make([]int32, len(count)+1)
	for id, c := range count {
		start[id+1] = start[id] + c
	}
	next := count // reused as each list's fill cursor
	copy(next, start)
	pos := make([]int32, total)
	o, base := 0, 0
	for _, p := range parts {
		first := o
		for i, end := range p.end[si] {
			for ; o < first+int(end); o++ {
				pos[next[occ[o]]] = int32(base + i)
				next[occ[o]]++
			}
		}
		base += p.n
	}
	return postings{ids: ids, start: start, pos: pos}
}

// keyIDs is an open-addressing hash table (linear probing, at most half
// full, doubling when it would fill further) from key to list id. It replaces a Go map because the generic map
// hashes and compares a 24-byte key through out-of-line calls, which made
// the map half of the index build.
type keyIDs struct {
	keys []Key
	ids  []int32 // id+1 of the key in the same slot; 0 marks a free slot
	n    int
}

// slot returns the first slot of k's probe sequence.
func (t *keyIDs) slot(k Key) int {
	h := k.Lo ^ (k.Hi*0x9e3779b97f4a7c15+k.Tag)*0xc2b2ae3d27d4eb4f
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & uint64(len(t.keys)-1))
}

// get returns k's id, and false if k is absent.
func (t *keyIDs) get(k Key) (int32, bool) {
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		switch {
		case t.ids[i] == 0:
			return 0, false
		case t.keys[i] == k:
			return t.ids[i] - 1, true
		}
	}
}

// put returns k's id, first giving it the id fresh if k is absent.
func (t *keyIDs) put(k Key, fresh int32) int32 {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		switch {
		case t.ids[i] == 0:
			t.keys[i], t.ids[i] = k, fresh+1
			t.n++
			return fresh
		case t.keys[i] == k:
			return t.ids[i] - 1
		}
	}
}

// init empties the table and sizes it for n keys without growing.
func (t *keyIDs) init(n int) {
	size := 64
	for size < 2*n {
		size *= 2
	}
	t.keys, t.ids, t.n = make([]Key, size), make([]int32, size), 0
}

// grow doubles the table and reinserts every key.
func (t *keyIDs) grow() {
	old, oldIDs := t.keys, t.ids
	t.init(len(old))
	for i, id := range oldIDs {
		if id != 0 {
			t.put(old[i], id-1)
		}
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
	post       []postings   // one key space per strategy
	generated  atomic.Int64 // raw hits across all queries
}

// Generated returns the raw number of candidate-pair hits the index has
// produced so far, before cross-strategy deduplication — the "blocking
// pairs generated" figure of the run report. A hit is one probe key of a
// queried record meeting one index key of an indexed record, so a pair
// scores one hit per block it shares: per LSH band under the
// birth-year-guarded passes, however many birth-year bands the two records
// are apart. Distinct pairs actually handed to comparison are counted by
// the caller; the difference measures how much the multi-pass strategies
// and their blocks overlap. Safe for concurrent queries.
func (ix *Index) Generated() int64 { return ix.generated.Load() }

// Each runs fn(i) once for every i in [0, n), possibly concurrently, and
// returns when every call has returned, or with the error that stopped it
// (the calls it did not make then do not matter).
type Each func(n int, fn func(i int)) error

// serial is the Each that runs the calls in order on the calling goroutine.
func serial(n int, fn func(i int)) error {
	for i := range n {
		fn(i)
	}
	return nil
}

// NewIndex indexes the given records (of the dataset with the given census
// year) under every strategy, on the calling goroutine.
func NewIndex(recs []*census.Record, year int, strategies []Strategy) *Index {
	rk := NewRecordKeys(strategies, len(recs))
	for _, r := range recs {
		rk.Append(r, year)
	}
	ix, _ := NewIndexFromKeys(recs, strategies, serial, rk)
	return ix
}

// NewIndexFromKeys indexes recs from their keys under strategies, given as
// runs that together cover recs in order. Each strategy's postings are
// built by one call through each, independently of the others' (so each
// may run them concurrently), and an error from each is returned with no
// index. It consumes the runs: each strategy's keys are released once its
// postings are filled. It panics if the runs do not cover recs exactly.
func NewIndexFromKeys(recs []*census.Record, strategies []Strategy, each Each, parts ...*RecordKeys) (*Index, error) {
	n := 0
	for _, p := range parts {
		n += p.n
		p.fns = nil // the key caches
	}
	if n != len(recs) {
		panic("block: key runs cover a different number of records than the index")
	}
	ix := &Index{recs: recs, strategies: strategies, post: make([]postings, len(strategies))}
	err := each(len(strategies), func(si int) {
		ix.post[si] = newPostings(si, parts)
		for _, p := range parts {
			p.keys[si], p.end[si] = nil, nil
		}
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// Len returns the number of indexed records.
func (ix *Index) Len() int { return len(ix.recs) }

// Scratch is reusable per-worker query state for CandidateIndices: an
// epoch-stamp array for deduplication (bumping the epoch invalidates every
// previous stamp in O(1), so no reset loop runs between calls), the key
// buffer, and one probe key function per strategy of the index last
// queried, so key caches serve every query of the worker.
type Scratch struct {
	stamp []int32
	epoch int32
	out   []int32
	keys  []Key
	ix    *Index
	fns   []KeyFunc
}

// reset prepares the scratch for a query of ix and starts a new dedup
// epoch.
func (sc *Scratch) reset(ix *Index) {
	if sc.ix != ix {
		sc.ix, sc.fns = ix, probeFuncs(ix.strategies)
	}
	if n := len(ix.recs); len(sc.stamp) < n {
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
// whose keys meet at least one probe key of record o (whose dataset has the
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
	sc.reset(ix)
	raw := 0
	for si, f := range sc.fns {
		p := &ix.post[si]
		sc.keys = f(o, oldYear, sc.keys[:0])
		for _, k := range sc.keys {
			id, ok := p.ids.get(k)
			if !ok {
				continue
			}
			for _, n := range p.pos[p.start[id]:p.start[id+1]] {
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
	slices.Sort(sc.out)
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
