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
// Because the scheme emits plain string keys through the same Strategy
// interface as the exact passes, it composes with everything downstream:
// multi-pass union, the prebuilt Index and per-δ filtering.

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
// pass. It is immutable after construction and therefore safe to share
// across concurrent index queries (the Index contract: Keys functions run
// inside CandidateIndices from many workers at once), so per-call state
// lives on the caller's stack or in a per-call signature slice.
type minhasher struct {
	p      MinHashParams
	consts []uint64
}

func newMinhasher(p MinHashParams) *minhasher {
	p = p.withDefaults()
	return &minhasher{p: p, consts: permConsts(p.Hashes)}
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
		for i := 0; i < h.p.Hashes; i++ {
			v := h.consts[2*i]*g + h.consts[2*i+1]
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return true
}

// bandKeys appends one key per band of the signature, prefixed so keys of
// different passes (and different band indices) never collide.
func (h *minhasher) bandKeys(sig []uint64, prefix string, suffix string, keys []string) []string {
	rows := h.p.Hashes / h.p.Bands
	var buf [16]byte
	for b := 0; b < h.p.Bands; b++ {
		// Mix the band's rows into one 64-bit key value.
		acc := uint64(b) + 0x9e3779b97f4a7c15
		for r := 0; r < rows; r++ {
			acc = splitmix64(acc ^ sig[b*rows+r])
		}
		for i := 0; i < 16; i++ {
			buf[i] = "0123456789abcdef"[acc>>(60-4*i)&0xf]
		}
		keys = append(keys, prefix+string(rune('a'+b))+":"+string(buf[:])+suffix)
	}
	return keys
}

// SurnameMinHash blocks on banded MinHash signatures of the surname's
// q-grams: the LSH counterpart of SurnameSoundex.
func SurnameMinHash(p MinHashParams) Strategy {
	h := newMinhasher(p)
	return Strategy{
		Name: "surname-minhash(" + h.p.String() + ")",
		Keys: func(r *census.Record, _ int) []string {
			sig := make([]uint64, h.p.Hashes)
			if !h.signature(strsim.Normalize(r.Surname), sig) {
				return nil
			}
			return h.bandKeys(sig, "Ls", "", make([]string, 0, h.p.Bands))
		},
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
		Keys: func(r *census.Record, _ int) []string {
			sig := make([]uint64, h.p.Hashes)
			if !h.signature(strsim.Normalize(r.FirstName), sig) {
				return nil
			}
			return h.bandKeys(sig, "Lf", ":"+r.Sex.String(), make([]string, 0, h.p.Bands))
		},
	}
}

// FullNameMinHash blocks on banded MinHash signatures of the q-grams of the
// whole name (first name and surname, separator-joined so grams never span
// the boundary). It is the safety net of the LSH scheme: records the
// birth-year-composed passes exclude (missing age, larger age-recording
// errors) still pair with their close full-name variants.
func FullNameMinHash(p MinHashParams) Strategy {
	h := newMinhasher(p)
	return Strategy{
		Name: "fullname-minhash(" + h.p.String() + ")",
		Keys: func(r *census.Record, _ int) []string {
			fn, sn := strsim.Normalize(r.FirstName), strsim.Normalize(r.Surname)
			if fn == "" && sn == "" {
				return nil
			}
			sig := make([]uint64, h.p.Hashes)
			if !h.signature(fn+"|"+sn, sig) {
				return nil
			}
			return h.bandKeys(sig, "Ln", "", make([]string, 0, h.p.Bands))
		},
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
	// birth-year composition does the heavy pruning).
	Name MinHashParams
	// FullName parameterizes the full-name recovery pass (zero value:
	// q=2, h=24, b=4 — a tight ≈0.79 knee, since this pass runs without a
	// birth-year guard).
	FullName MinHashParams
	// BirthYearWidth is the band width composed with the name passes; bands
	// are emitted with their two neighbours, so records collide when their
	// estimated birth years differ by at most 2·width (zero value: 1).
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
// full-name recovery pass (see LSHConfig for why). Every pass emits plain
// string keys, so the scheme shares the exact-key index machinery.
func LSHStrategies(c LSHConfig) []Strategy {
	c = c.withDefaults()
	sur := SurnameMinHash(c.Name)
	fn := FirstNameMinHashSex(c.Name)
	by := func() Strategy { return BirthYearBand(c.BirthYearWidth) }
	return []Strategy{
		Composite(sur.Name+"+by"+itoa(c.BirthYearWidth), sur, by()),
		Composite(fn.Name+"+by"+itoa(c.BirthYearWidth), fn, by()),
		FullNameMinHash(c.FullName),
	}
}
