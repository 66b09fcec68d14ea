package block

import (
	"fmt"

	"censuslink/internal/census"
	"censuslink/internal/strsim"
)

// MinHash/LSH q-gram blocking: the third index kind next to exact-key
// blocking and the sorted neighbourhood. Each record value is tokenized into
// padded q-grams, the gram set is summarized by a MinHash signature of
// Hashes independent permutations, and the signature is cut into Bands
// bands of Hashes/Bands rows each; one blocking key is emitted per band.
// Two records collide in a band exactly when all rows of that band agree,
// which happens with probability s^rows for gram-Jaccard similarity s —
// banding turns that into the classic S-curve 1-(1-s^r)^b, so near-duplicate
// names collide almost surely while unrelated names almost never do. That
// is a far tighter candidate set than a phonetic bucket (Soundex lumps every
// Smith/Smyth/Smed into one key) at near-identical recall on true matches.
//
// Because the scheme emits keys through the same Strategy interface as the
// exact passes, it composes with everything downstream: multi-pass union,
// the prebuilt Index and per-δ filtering.

// MinHashParams configures the q-gram MinHash/LSH scheme.
type MinHashParams struct {
	// Q is the gram length of the padded q-gram tokenization (2 by default —
	// the same granularity the qgram2 comparator scores with).
	Q int
	// Hashes is the signature length: the number of independent min-hash
	// permutations (16 by default). Must be a multiple of Bands.
	Hashes int
	// Bands is the number of LSH bands the signature is cut into (8 by
	// default, i.e. 2 rows per band ≈ collision threshold s ≈ 0.35).
	Bands int
}

// withDefaults fills zero fields with the default parameterization.
func (p MinHashParams) withDefaults() MinHashParams {
	if p.Q < 1 {
		p.Q = 2
	}
	if p.Hashes < 1 {
		p.Hashes = 16
	}
	if p.Bands < 1 || p.Bands > p.Hashes {
		p.Bands = 8
		if p.Bands > p.Hashes {
			p.Bands = p.Hashes
		}
	}
	for p.Hashes%p.Bands != 0 {
		p.Hashes++ // round the signature up to a whole number of bands
	}
	return p
}

// String renders the parameterization for strategy names, so differently
// parameterized LSH passes fingerprint differently (linkage.Fingerprint
// hashes strategies by name).
func (p MinHashParams) String() string {
	return fmt.Sprintf("q=%d,h=%d,b=%d", p.Q, p.Hashes, p.Bands)
}

// splitmix64 is the seed expander of the permutation constants: a fixed,
// platform-independent stream so signatures are stable across runs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// permConsts returns the 2k multiply/add constants of k min-hash
// permutations h_i(x) = a_i*x + b_i (odd multipliers so the maps are
// bijective on 64-bit words), derived deterministically from a fixed seed.
func permConsts(k int) []uint64 {
	out := make([]uint64, 2*k)
	seed := uint64(0xc3a5c85c97cb3127) // fixed: signatures must be reproducible
	for i := range out {
		seed = splitmix64(seed)
		out[i] = seed
		if i%2 == 0 {
			out[i] |= 1 // multiplier: force odd
		}
	}
	return out
}

// minhasher holds the precomputed permutation constants of one MinHash
// pass. It is immutable after construction and therefore shared by every
// key function of the pass; the mutable state (signature buffer, band
// cache) lives in each key function.
type minhasher struct {
	p MinHashParams
	// mul[i] and add[i] are permutation i's constants a_i and b_i.
	mul, add []uint64
}

func newMinhasher(p MinHashParams) *minhasher {
	p = p.withDefaults()
	h := &minhasher{p: p, mul: make([]uint64, p.Hashes), add: make([]uint64, p.Hashes)}
	for i, c := range permConsts(p.Hashes) {
		if i%2 == 0 {
			h.mul[i/2] = c
		} else {
			h.add[i/2] = c
		}
	}
	return h
}

// signature fills sig (length p.Hashes) with the MinHash signature of the
// padded q-gram set of the already-normalized value and reports whether the
// value produced any grams. Gram hashing is byte-oriented over the UTF-8
// encoding — after strsim.Normalize folds diacritics the hot path is pure
// ASCII, and any remaining multi-byte runes hash consistently on both sides
// of a pair.
func (h *minhasher) signature(norm string, sig []uint64) bool {
	if norm == "" {
		return false
	}
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	q := h.p.Q
	// Pad with q-1 sentinel bytes on both ends, mirroring strsim.qgrams, so
	// prefix and suffix grams carry extra weight.
	pad := q - 1
	n := len(norm) + 2*pad
	if n < q {
		return false
	}
	for start := 0; start+q <= n; start++ {
		// FNV-1a over the gram bytes, computed inline so no gram buffer is
		// materialized (out-of-range positions are the 0x00 pad sentinel).
		g := uint64(offset64)
		for j := 0; j < q; j++ {
			pos := start + j - pad
			var c byte
			if pos >= 0 && pos < len(norm) {
				c = norm[pos]
			}
			g ^= uint64(c)
			g *= prime64
		}
		mul, add := h.mul[:len(sig)], h.add[:len(sig)]
		for i, m := range sig {
			sig[i] = min(m, mul[i]*g+add[i])
		}
	}
	return true
}

// appendBands appends one accumulator per band of the signature: the
// band's rows mixed into one 64-bit value.
func (h *minhasher) appendBands(sig []uint64, accs []uint64) []uint64 {
	rows := h.p.Hashes / h.p.Bands
	for b := 0; b < h.p.Bands; b++ {
		acc := uint64(b) + 0x9e3779b97f4a7c15
		for r := 0; r < rows; r++ {
			acc = splitmix64(acc ^ sig[b*rows+r])
		}
		accs = append(accs, acc)
	}
	return accs
}

// bandCache memoizes band accumulators for one key function, so a pass
// computes each distinct normalized name's signature once however many
// records carry it, and normalizes each distinct raw value once. It
// belongs to one key function and so to one goroutine.
type bandCache[V comparable] struct {
	h *minhasher
	// raw and norm map a raw value and a normalized one to the offset of
	// its accumulators in accs, or to -1 when it has no q-grams.
	raw  map[V]int32
	norm map[string]int32
	accs []uint64
	sig  []uint64
}

func newBandCache[V comparable](h *minhasher) *bandCache[V] {
	return &bandCache[V]{h: h, raw: make(map[V]int32), norm: make(map[string]int32), sig: make([]uint64, h.p.Hashes)}
}

// bands returns the band accumulators of raw value v, whose normalized
// form is normalize(v), or nil when it has no q-grams. The slice must not
// be modified.
func (c *bandCache[V]) bands(v V, normalize func(V) string) []uint64 {
	at, ok := c.raw[v]
	if !ok {
		n := normalize(v)
		if at, ok = c.norm[n]; !ok {
			at = -1
			if c.h.signature(n, c.sig) {
				at = int32(len(c.accs))
				c.accs = c.h.appendBands(c.sig, c.accs)
			}
			c.norm[n] = at
		}
		c.raw[v] = at
	}
	if at < 0 {
		return nil
	}
	return c.accs[at : int(at)+c.h.p.Bands]
}

// lshPass returns the key-function factory of a MinHash pass over the
// value val(r), hashed in its normalized form norm(val(r)). Band b emits
// Key{Tag: b<<8 | sex, Lo: acc}, where acc is the band's accumulator and
// sex is the record's sex byte if withSex is set and 0 otherwise. With a
// birth-year width > 0 the pass is guarded: records without an age emit
// nothing, and each band emits one key per birth-year band from by-spread
// to by+spread, held in Hi, where by is the record's own birth-year band.
// The index keys of a guarded pass use spread 0 and its probe keys
// birthSpread. Each part has bits of its own, so a probe key meets an
// index key exactly when the two records agree on the band index, its
// accumulator, the sex byte and (guarded) their birth-year bands differ by
// at most birthSpread; they meet once per such band.
func lshPass[V comparable](h *minhasher, val func(*census.Record) V, norm func(V) string,
	withSex bool, width, spread int) func() KeyFunc {
	return func() KeyFunc {
		c := newBandCache[V](h)
		return func(r *census.Record, year int, dst []Key) []Key {
			by := 0
			if width > 0 {
				var ok bool
				if by, ok = birthBand(r, year, width); !ok {
					return dst
				}
			}
			var sex uint64
			if withSex {
				sex = sexByte(r.Sex)
			}
			for b, acc := range c.bands(val(r), norm) {
				k := Key{Tag: uint64(b)<<8 | sex, Lo: acc}
				for d := -spread; d <= spread; d++ {
					k.Hi = uint64(by + d)
					dst = append(dst, k)
				}
			}
			return dst
		}
	}
}

func surname(r *census.Record) string   { return r.Surname }
func firstName(r *census.Record) string { return r.FirstName }
func fullName(r *census.Record) [2]string {
	return [2]string{r.FirstName, r.Surname}
}

// normFullName joins the normalized first name and surname with a
// separator so grams never span the boundary; a record with neither
// hashes to nothing.
func normFullName(v [2]string) string {
	fn, sn := strsim.Normalize(v[0]), strsim.Normalize(v[1])
	if fn == "" && sn == "" {
		return ""
	}
	return fn + "|" + sn
}

// SurnameMinHash blocks on banded MinHash signatures of the surname's
// q-grams: the LSH counterpart of SurnameSoundex.
func SurnameMinHash(p MinHashParams) Strategy {
	h := newMinhasher(p)
	return Strategy{
		Name: "surname-minhash(" + h.p.String() + ")",
		Keys: lshPass(h, surname, strsim.Normalize, false, 0, 0),
	}
}

// FirstNameMinHashSex blocks on banded MinHash signatures of the first
// name's q-grams combined with sex: the LSH counterpart of
// FirstNameSoundexSex, recovering records whose surname changed between
// censuses.
func FirstNameMinHashSex(p MinHashParams) Strategy {
	h := newMinhasher(p)
	return Strategy{
		Name: "firstname-minhash-sex(" + h.p.String() + ")",
		Keys: lshPass(h, firstName, strsim.Normalize, true, 0, 0),
	}
}

// FullNameMinHash blocks on banded MinHash signatures of the q-grams of the
// whole name (first name and surname, separator-joined so grams never span
// the boundary). It is the safety net of the LSH scheme: records the
// birth-year-guarded passes exclude (missing age, larger age-recording
// errors) still pair with their close full-name variants.
func FullNameMinHash(p MinHashParams) Strategy {
	h := newMinhasher(p)
	return Strategy{
		Name: "fullname-minhash(" + h.p.String() + ")",
		Keys: lshPass(h, fullName, normFullName, false, 0, 0),
	}
}

// LSHConfig parameterizes the full MinHash/LSH blocking scheme.
//
// Measurement on the synthetic evaluation pair shows why the scheme has
// three passes rather than mirroring the two phonetic passes directly: over
// 90% of the default scheme's candidate pairs come from records with
// *identical* surnames or identical first names (the census name pool is
// small), and no similarity threshold separates identical values. The
// per-field passes therefore compose their LSH bands with a narrow
// birth-year band (±width years of slack), which subdivides the big
// same-name buckets by a nearly-stable second attribute; the full-name pass
// then recovers the records those passes exclude (missing age, age errors
// beyond the band) whenever the whole name stays recognizably similar.
type LSHConfig struct {
	// Name parameterizes the surname and first-name passes (zero value:
	// q=2, h=16, b=8 — a loose ≈0.35 Jaccard knee, fine because the
	// birth-year guard does the heavy pruning).
	Name MinHashParams
	// FullName parameterizes the full-name recovery pass (zero value:
	// q=2, h=24, b=4 — a tight ≈0.79 knee, since this pass runs without a
	// birth-year guard).
	FullName MinHashParams
	// BirthYearWidth is the band width of the name passes' birth-year
	// guard. A record is indexed under its own band and probes the bands
	// within two of it, so records collide when their birth-year bands
	// differ by at most two, as they always do when their estimated birth
	// years differ by at most 2·width (zero value: 1).
	BirthYearWidth int
}

// DefaultLSHConfig is the measured trade-off point: ≥ 5x fewer candidate
// pairs than DefaultStrategies at ≥ 0.98 of their true-match coverage on
// the synthetic evaluation pair (see the experiments harness
// BlockingComparison and the prematch_lsh_* bench-trajectory rows).
func DefaultLSHConfig() LSHConfig {
	return LSHConfig{
		Name:           MinHashParams{Q: 2, Hashes: 16, Bands: 8},
		FullName:       MinHashParams{Q: 2, Hashes: 24, Bands: 4},
		BirthYearWidth: 1,
	}
}

// withDefaults fills zero fields with the default scheme parameterization.
func (c LSHConfig) withDefaults() LSHConfig {
	def := DefaultLSHConfig()
	if c.FullName == (MinHashParams{}) {
		c.FullName = def.FullName
	}
	if c.BirthYearWidth < 1 {
		c.BirthYearWidth = def.BirthYearWidth
	}
	c.Name = c.Name.withDefaults()
	c.FullName = c.FullName.withDefaults()
	return c
}

// LSHStrategies is the MinHash/LSH multi-pass blocking configuration: the
// birth-year-guarded surname and first-name+sex LSH passes plus the
// full-name recovery pass (see LSHConfig for why). A guarded pass indexes
// each record under its own birth-year band and probes the bands within
// two of the queried record's, so it pairs two records when they agree on
// a name band and their birth-year bands differ by at most two.
func LSHStrategies(c LSHConfig) []Strategy {
	c = c.withDefaults()
	h, w := newMinhasher(c.Name), c.BirthYearWidth
	guard := "+by" + itoa(w)
	return []Strategy{
		{
			Name:  SurnameMinHash(c.Name).Name + guard,
			Keys:  lshPass(h, surname, strsim.Normalize, false, w, 0),
			Probe: lshPass(h, surname, strsim.Normalize, false, w, birthSpread),
		},
		{
			Name:  FirstNameMinHashSex(c.Name).Name + guard,
			Keys:  lshPass(h, firstName, strsim.Normalize, true, w, 0),
			Probe: lshPass(h, firstName, strsim.Normalize, true, w, birthSpread),
		},
		FullNameMinHash(c.FullName),
	}
}
