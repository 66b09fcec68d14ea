package linkage

// The string-key blocking index the integer keys of package block replace,
// kept as the oracle of the key differential: every strategy renders its
// key as a string ("sn:A263", "by:368", "|Lsa:<hex>|by:368", ...), both
// sides emit the same keys (a birth-year part emits its band and both
// neighbours on either side), one map[string][]int32 per strategy indexes
// the new records, and a query counts one raw hit per block a pair shares:
// per key, or per name band where a birth-year part spreads one block over
// three keys. TestCandidateTableMatchesStringKeys and FuzzBlockingKeys
// check that the integer index and probe keys block exactly as these do.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/strsim"
	"censuslink/internal/synth"
)

// stringStrategy is a blocking pass keyed by strings. A pass with
// byBand set ends every key with a birth-year part: the whole key for the
// birth-year pass, the part after the last "|" for a composite.
type stringStrategy struct {
	name   string
	keys   func(r *census.Record, year int) []string
	byBand bool
}

// block returns the block key k stands for: k itself, or k without its
// birth-year part, which spreads one block over neighbouring bands.
func (s stringStrategy) block(k string) string {
	if !s.byBand {
		return k
	}
	i := strings.LastIndex(k, "|")
	if i < 0 {
		return ""
	}
	return k[:i]
}

// blockHits counts the distinct blocks in which keys a and b of the
// strategy meet: the raw hits the record with keys a scores against the
// record with keys b.
func (s stringStrategy) blockHits(a, b []string) int {
	blocks := map[string]bool{}
	for _, x := range a {
		if slices.Contains(b, x) {
			blocks[s.block(x)] = true
		}
	}
	return len(blocks)
}

func strSurnameSoundex() stringStrategy {
	return stringStrategy{"surname-soundex", func(r *census.Record, _ int) []string {
		code := strsim.Soundex(r.Surname)
		if code == "" {
			return nil
		}
		return []string{"sn:" + code}
	}, false}
}

func strFirstNameSoundexSex() stringStrategy {
	return stringStrategy{"firstname-soundex-sex", func(r *census.Record, _ int) []string {
		code := strsim.Soundex(r.FirstName)
		if code == "" {
			return nil
		}
		return []string{"fn:" + code + ":" + r.Sex.String()}
	}, false}
}

func strBirthYearBand(width int) stringStrategy {
	return stringStrategy{"birthyear-band", func(r *census.Record, year int) []string {
		if r.Age == census.AgeMissing {
			return nil
		}
		band := (year - r.Age) / width
		return []string{"by:" + fmt.Sprint(band-1), "by:" + fmt.Sprint(band), "by:" + fmt.Sprint(band+1)}
	}, true}
}

// strComposite keys a record by one key of every part, concatenated; a
// part with no keys excludes the record. It spreads a block over the
// birth-year bands when its last part does.
func strComposite(name string, parts ...stringStrategy) stringStrategy {
	return stringStrategy{name, func(r *census.Record, year int) []string {
		combined := []string{""}
		for _, p := range parts {
			keys := p.keys(r, year)
			if len(keys) == 0 {
				return nil
			}
			var next []string
			for _, c := range combined {
				for _, k := range keys {
					next = append(next, c+"|"+k)
				}
			}
			combined = next
		}
		return combined
	}, parts[len(parts)-1].byBand}
}

// strMinhasher is the MinHash signature and banding with hex-string band
// keys.
type strMinhasher struct {
	q, hashes, bands int
	consts           []uint64
}

func strSplitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newStrMinhasher(q, hashes, bands int) *strMinhasher {
	consts := make([]uint64, 2*hashes)
	seed := uint64(0xc3a5c85c97cb3127)
	for i := range consts {
		seed = strSplitmix64(seed)
		consts[i] = seed
		if i%2 == 0 {
			consts[i] |= 1
		}
	}
	return &strMinhasher{q: q, hashes: hashes, bands: bands, consts: consts}
}

// keys returns one key per band of norm's signature, each prefix + band
// letter + ":" + 16 hex digits + suffix, or nil when norm has no grams.
func (h *strMinhasher) keys(norm, prefix, suffix string) []string {
	if norm == "" {
		return nil
	}
	sig := make([]uint64, h.hashes)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	pad := h.q - 1
	n := len(norm) + 2*pad
	if n < h.q {
		return nil
	}
	for start := 0; start+h.q <= n; start++ {
		g := uint64(14695981039346656037)
		for j := 0; j < h.q; j++ {
			var c byte
			if pos := start + j - pad; pos >= 0 && pos < len(norm) {
				c = norm[pos]
			}
			g ^= uint64(c)
			g *= 1099511628211
		}
		for i := range sig {
			if v := h.consts[2*i]*g + h.consts[2*i+1]; v < sig[i] {
				sig[i] = v
			}
		}
	}
	rows := h.hashes / h.bands
	var keys []string
	for b := 0; b < h.bands; b++ {
		acc := uint64(b) + 0x9e3779b97f4a7c15
		for r := 0; r < rows; r++ {
			acc = strSplitmix64(acc ^ sig[b*rows+r])
		}
		keys = append(keys, fmt.Sprintf("%s%c:%016x%s", prefix, rune('a'+b), acc, suffix))
	}
	return keys
}

func strSurnameMinHash(h *strMinhasher) stringStrategy {
	return stringStrategy{"surname-minhash", func(r *census.Record, _ int) []string {
		return h.keys(strsim.Normalize(r.Surname), "Ls", "")
	}, false}
}

func strFirstNameMinHashSex(h *strMinhasher) stringStrategy {
	return stringStrategy{"firstname-minhash-sex", func(r *census.Record, _ int) []string {
		return h.keys(strsim.Normalize(r.FirstName), "Lf", ":"+r.Sex.String())
	}, false}
}

func strFullNameMinHash(h *strMinhasher) stringStrategy {
	return stringStrategy{"fullname-minhash", func(r *census.Record, _ int) []string {
		fn, sn := strsim.Normalize(r.FirstName), strsim.Normalize(r.Surname)
		if fn == "" && sn == "" {
			return nil
		}
		return h.keys(fn+"|"+sn, "Ln", "")
	}, false}
}

// strLSHStrategies is the default LSH scheme: birth-year-composed surname
// and first-name+sex passes (q=2, h=16, b=8, width 1) and the full-name
// pass (q=2, h=24, b=4).
func strLSHStrategies() []stringStrategy {
	name := newStrMinhasher(2, 16, 8)
	return []stringStrategy{
		strComposite("surname", strSurnameMinHash(name), strBirthYearBand(1)),
		strComposite("firstname", strFirstNameMinHashSex(name), strBirthYearBand(1)),
		strFullNameMinHash(newStrMinhasher(2, 24, 4)),
	}
}

// strSchemes mirrors the blocking registry with string-key strategies.
var strSchemes = map[string]func() []stringStrategy{
	"default": func() []stringStrategy {
		return []stringStrategy{strSurnameSoundex(), strFirstNameSoundexSex()}
	},
	"lsh": strLSHStrategies,
}

// stringIndex is the string-key blocking index over the new records.
type stringIndex struct {
	strategies []stringStrategy
	byKey      []map[string][]int32
	generated  int
}

func newStringIndex(recs []*census.Record, year int, strategies []stringStrategy) *stringIndex {
	ix := &stringIndex{strategies: strategies, byKey: make([]map[string][]int32, len(strategies))}
	for si, s := range strategies {
		m := map[string][]int32{}
		for i, r := range recs {
			for _, k := range s.keys(r, year) {
				m[k] = append(m[k], int32(i))
			}
		}
		ix.byKey[si] = m
	}
	return ix
}

// query returns the distinct positions sharing a key with o, ascending,
// and the raw hit count: one per (strategy, position, block) it meets.
func (ix *stringIndex) query(o *census.Record, oldYear int) ([]int32, int) {
	seen := map[int32]bool{}
	type hit struct {
		si    int
		n     int32
		block string
	}
	hits := map[hit]bool{}
	var out []int32
	for si, s := range ix.strategies {
		for _, k := range s.keys(o, oldYear) {
			for _, n := range ix.byKey[si][k] {
				hits[hit{si, n, s.block(k)}] = true
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	raw := len(hits)
	ix.generated += raw
	slices.Sort(out)
	return out, raw
}

// TestCandidateTableMatchesStringKeys: for every registered blocking
// scheme on synthetic pairs of two scales and three seeds, the candidate
// table the compile stage builds on an uneven chunk pool holds exactly the
// string-key index's rows, in order, with its raw hit counts; and a serial
// integer-key index queried per old record reports the same Generated.
func TestCandidateTableMatchesStringKeys(t *testing.T) {
	for _, scale := range []float64{0.04, 0.1} {
		for _, seed := range []int64{1871000, 1881000, 1891000} {
			old, new, err := synth.GeneratePair(synth.TestConfig(scale, seed), 1871, 1881)
			if err != nil {
				t.Fatal(err)
			}
			oldRecs, newRecs := old.Records(), new.Records()
			for _, scheme := range BlockingNames() {
				t.Run(fmt.Sprintf("%s/%g/%d", scheme, scale, seed), func(t *testing.T) {
					strategies, err := ParseBlocking(scheme)
					if err != nil {
						t.Fatal(err)
					}
					tab, err := compileTable(context.Background(), oldRecs, old.Year, newRecs, new.Year,
						strategies, 3, PanicFailFast, nil)
					if err != nil {
						t.Fatal(err)
					}
					oracle := newStringIndex(newRecs, new.Year, strSchemes[scheme]())
					serial := block.NewIndex(newRecs, new.Year, strategies)
					if tab.Rows() != len(oldRecs) {
						t.Fatalf("table has %d rows, want %d", tab.Rows(), len(oldRecs))
					}
					var sc block.Scratch
					for i, o := range oldRecs {
						want, raw := oracle.query(o, old.Year)
						if got := tab.Row(i); !slices.Equal(got, want) {
							t.Fatalf("row %d (%s): %v, string keys %v", i, o.ID, got, want)
						}
						if tab.Raw(i) != raw {
							t.Fatalf("row %d (%s): raw %d, string keys %d", i, o.ID, tab.Raw(i), raw)
						}
						serial.CandidateIndices(o, old.Year, &sc)
					}
					if serial.Generated() != int64(oracle.generated) {
						t.Errorf("Generated %d, string keys %d", serial.Generated(), oracle.generated)
					}
					if oracle.generated == 0 {
						t.Error("no raw hits; the check would be vacuous")
					}
				})
			}
		}
	}
}

// symmetric returns strategies keyed as they were before probe keys: both
// sides emit every block under the record's own birth-year band and both
// its neighbours, and a query looks up the same keys it was indexed under.
// The guarded LSH passes hold the band in Key.Hi, the birth-year pass in
// Key.Lo.
func symmetric(strategies []block.Strategy) []block.Strategy {
	out := make([]block.Strategy, len(strategies))
	for si, s := range strategies {
		out[si] = block.Strategy{Name: s.Name, Keys: s.Keys}
		if s.Probe == nil {
			continue
		}
		band := func(k *block.Key) *uint64 { return &k.Hi }
		if strings.HasPrefix(s.Name, "birthyear-band") {
			band = func(k *block.Key) *uint64 { return &k.Lo }
		}
		out[si].Keys = func() block.KeyFunc {
			own := s.Keys()
			var buf []block.Key
			return func(r *census.Record, year int, dst []block.Key) []block.Key {
				buf = own(r, year, buf[:0])
				for _, k := range buf {
					by := *band(&k)
					for _, d := range []uint64{by - 1, by, by + 1} {
						*band(&k) = d
						dst = append(dst, k)
					}
				}
				return dst
			}
		}
	}
	return out
}

// TestCandidateTableMatchesSymmetricKeys: for every registered blocking
// scheme on synthetic pairs of two scales and three seeds, the candidate
// table built from index and probe keys holds exactly the rows of a table
// built from the symmetric emission the probes replace, in order. Only
// the raw hit counts may differ, and only downwards: a guarded pass now
// counts a pair once per LSH band, where the symmetric keys met up to
// three times.
func TestCandidateTableMatchesSymmetricKeys(t *testing.T) {
	for _, scale := range []float64{0.04, 0.1} {
		for _, seed := range []int64{1871000, 1881000, 1891000} {
			old, new, err := synth.GeneratePair(synth.TestConfig(scale, seed), 1871, 1881)
			if err != nil {
				t.Fatal(err)
			}
			oldRecs, newRecs := old.Records(), new.Records()
			for _, scheme := range BlockingNames() {
				t.Run(fmt.Sprintf("%s/%g/%d", scheme, scale, seed), func(t *testing.T) {
					strategies, err := ParseBlocking(scheme)
					if err != nil {
						t.Fatal(err)
					}
					tab, err := compileTable(context.Background(), oldRecs, old.Year, newRecs, new.Year,
						strategies, 3, PanicFailFast, nil)
					if err != nil {
						t.Fatal(err)
					}
					sym := block.NewIndex(newRecs, new.Year, symmetric(strategies))
					var want block.CandidateTable
					var sc block.Scratch
					raw, symRaw := 0, 0
					for i, o := range oldRecs {
						sym.AppendRow(&want, o, old.Year, &sc)
						if !slices.Equal(tab.Row(i), want.Row(i)) {
							t.Fatalf("row %d (%s): %v, symmetric keys %v", i, o.ID, tab.Row(i), want.Row(i))
						}
						if tab.Raw(i) > want.Raw(i) {
							t.Fatalf("row %d (%s): raw %d, symmetric keys %d", i, o.ID, tab.Raw(i), want.Raw(i))
						}
						raw += tab.Raw(i)
						symRaw += want.Raw(i)
					}
					guarded := strings.HasPrefix(scheme, "lsh")
					if tab.Pairs() == 0 || guarded != (raw < symRaw) {
						t.Errorf("%d pairs, raw %d, symmetric raw %d", tab.Pairs(), raw, symRaw)
					}
				})
			}
		}
	}
}

// fuzzStrategies pairs every built-in strategy with its string-key form.
func fuzzStrategies() ([]block.Strategy, []stringStrategy) {
	lsh := block.LSHStrategies(block.DefaultLSHConfig())
	name := newStrMinhasher(2, 16, 8)
	strLSH := strLSHStrategies()
	return []block.Strategy{
			block.SurnameSoundex(), block.FirstNameSoundexSex(), block.BirthYearBand(5),
			block.CrossProduct(),
			block.SurnameMinHash(block.MinHashParams{}), block.FirstNameMinHashSex(block.MinHashParams{}),
			lsh[0], lsh[1], lsh[2],
		}, []stringStrategy{
			strSurnameSoundex(), strFirstNameSoundexSex(), strBirthYearBand(5),
			{"cross-product", func(*census.Record, int) []string { return []string{"all"} }, false},
			strSurnameMinHash(name), strFirstNameMinHashSex(name),
			strLSH[0], strLSH[1], strLSH[2],
		}
}

// collisions counts the pairs of equal keys across a and b: the raw hits
// one record scores against the other.
func collisions[K comparable](a, b []K) int {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				n++
			}
		}
	}
	return n
}

// FuzzBlockingKeys: for any two records, under every built-in strategy,
// a record's index keys are as many as the blocks of its string keys and
// its probe keys are distinct, and a probe key of either record meets an
// index key of the other exactly as often as the symmetric string keys
// meet in distinct blocks; so the two records are a candidate pair exactly
// when they share a string key, with the raw hit count of the string
// oracle. Ages cover the ends of int, where birth-year bands wrap. The key
// functions are reused across inputs, so their caches are exercised too.
func FuzzBlockingKeys(f *testing.F) {
	f.Add("John", "Smith", byte('m'), 30, "Jon", "Smyth", byte('m'), 41, 10)
	f.Add("Mary", "Ashworth", byte('f'), -1, "mary", "ASHWORTH ", byte('f'), 25, 10)
	f.Add("Jóhann", "Jóhannsson", byte(0), 12, "johann", "johannsson", byte('x'), 22, 10)
	f.Add("", "", byte('m'), 40, " ", "\t", byte('m'), 40, 0)
	f.Add("ß", "Øre", byte('f'), math.MaxInt, "ss", "ore", byte('f'), math.MinInt, -3)
	f.Add("ann", "banana", byte('f'), 0, "anne", "bananas", byte('f'), 2, 1)
	// Birth years math.MinInt and math.MaxInt: the bands are one apart
	// modulo 2^64 (the by-1 of the first wraps to the second).
	f.Add("ann", "ashworth", byte('f'), math.MinInt+1871, "ann", "ashworth", byte('f'), 1871-math.MaxInt, 0)
	f.Add("ann", "ashworth", byte('f'), math.MaxInt, "ann", "ashworth", byte('f'), math.MaxInt, 0)
	f.Add("ann", "ashworth", byte('f'), math.MinInt, "ann", "ashworth", byte('f'), math.MinInt, 2)
	f.Add("ann", "ashworth", byte('f'), 30, "ann", "ashworth", byte('f'), 43, 10) // bands three apart
	strategies, oracles := fuzzStrategies()
	keys := make([]block.KeyFunc, len(strategies))
	probes := make([]block.KeyFunc, len(strategies))
	for si, s := range strategies {
		keys[si] = s.Keys()
		probes[si] = s.Keys()
		if s.Probe != nil {
			probes[si] = s.Probe()
		}
	}
	f.Fuzz(func(t *testing.T, fn1, sn1 string, sex1 byte, age1 int, fn2, sn2 string, sex2 byte, age2, gap int) {
		a := &census.Record{ID: "a", FirstName: fn1, Surname: sn1, Sex: census.Sex(sex1), Age: age1}
		b := &census.Record{ID: "b", FirstName: fn2, Surname: sn2, Sex: census.Sex(sex2), Age: age2}
		for si, s := range strategies {
			o := oracles[si]
			ka, kb := keys[si](a, 1871, nil), keys[si](b, 1871+gap, nil)
			pa, pb := probes[si](a, 1871, nil), probes[si](b, 1871+gap, nil)
			sa, sb := o.keys(a, 1871), o.keys(b, 1871+gap)
			if len(ka) != o.blockHits(sa, sa) || len(kb) != o.blockHits(sb, sb) {
				t.Fatalf("%s: %d and %d index keys, %d and %d string blocks (%q, %q)",
					s.Name, len(ka), len(kb), o.blockHits(sa, sa), o.blockHits(sb, sb), sa, sb)
			}
			if collisions(pa, pa) != len(pa) || collisions(pb, pb) != len(pb) {
				t.Fatalf("%s: repeated probe keys %v, %v", s.Name, pa, pb)
			}
			if got, want := collisions(pa, kb), o.blockHits(sa, sb); got != want {
				t.Fatalf("%s: a's probe keys meet b's index keys %d times, string blocks %d (%q vs %q)", s.Name, got, want, sa, sb)
			}
			if got, want := collisions(pb, ka), o.blockHits(sb, sa); got != want {
				t.Fatalf("%s: b's probe keys meet a's index keys %d times, string blocks %d (%q vs %q)", s.Name, got, want, sb, sa)
			}
		}
	})
}
