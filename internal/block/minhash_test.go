package block

import (
	"fmt"
	"sync"
	"testing"

	"censuslink/internal/census"
)

func mhRecord(first, sur, sex string) *census.Record {
	return &census.Record{
		ID:        "x",
		FirstName: first,
		Surname:   sur,
		Sex:       census.ParseSex(sex),
	}
}

// keysOf returns the keys a fresh key function of s gives record r.
func keysOf(s Strategy, r *census.Record, year int) []Key {
	return s.Keys()(r, year, nil)
}

func TestMinHashParamsDefaults(t *testing.T) {
	p := MinHashParams{}.withDefaults()
	if p.Q != 2 || p.Hashes != 16 || p.Bands != 8 {
		t.Fatalf("defaults = %+v, want q=2 h=16 b=8", p)
	}
	// Signature length rounds up to a whole number of bands.
	p = MinHashParams{Q: 2, Hashes: 10, Bands: 4}.withDefaults()
	if p.Hashes%p.Bands != 0 {
		t.Fatalf("hashes %d not a multiple of bands %d", p.Hashes, p.Bands)
	}
	if (MinHashParams{Q: 3, Hashes: 12, Bands: 6}).String() != "q=3,h=12,b=6" {
		t.Fatal("String() does not render params")
	}
}

func TestMinHashKeysDeterministic(t *testing.T) {
	s := SurnameMinHash(MinHashParams{})
	r := mhRecord("ann", "ashworth", "f")
	first := keysOf(s, r, 1871)
	if len(first) != 8 {
		t.Fatalf("got %d band keys, want 8", len(first))
	}
	for i := 0; i < 5; i++ {
		again := keysOf(SurnameMinHash(MinHashParams{}), r, 1881)
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("keys not deterministic across instances/years: %v vs %v", first, again)
			}
		}
	}
}

// TestMinHashIdenticalValuesCollide: equal (post-normalization) values must
// share every band key — exact duplicates always survive LSH blocking.
func TestMinHashIdenticalValuesCollide(t *testing.T) {
	s := SurnameMinHash(MinHashParams{})
	a := keysOf(s, mhRecord("x", "Jóhannsson", "m"), 1871)
	b := keysOf(s, mhRecord("y", "johannsson", "f"), 1881)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("key counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("band %d differs for identical normalized surnames: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestMinHashSimilarNamesCollide: close typo variants should share at least
// one band (that is the entire point of banding), while unrelated names
// should share none.
func TestMinHashSimilarNamesCollide(t *testing.T) {
	s := SurnameMinHash(MinHashParams{})
	shared := func(x, y string) int {
		a := keysOf(s, mhRecord("", x, "m"), 1871)
		b := keysOf(s, mhRecord("", y, "m"), 1881)
		bs := map[Key]bool{}
		for _, k := range b {
			bs[k] = true
		}
		n := 0
		for _, k := range a {
			if bs[k] {
				n++
			}
		}
		return n
	}
	for _, pair := range [][2]string{
		{"ashworth", "ashwirth"},
		{"johansson", "johanson"},
		{"thompson", "thomson"},
	} {
		if shared(pair[0], pair[1]) == 0 {
			t.Errorf("typo variants %q/%q share no band", pair[0], pair[1])
		}
	}
	if n := shared("ashworth", "zimmermann"); n != 0 {
		t.Errorf("unrelated surnames share %d bands, want 0", n)
	}
}

func TestMinHashKeyShape(t *testing.T) {
	sur := SurnameMinHash(MinHashParams{})
	for i, k := range keysOf(sur, mhRecord("", "smith", "m"), 1871) {
		if k.Tag != uint64(i)<<8 || k.Hi != 0 {
			t.Errorf("surname band %d key %+v does not hold its band index alone", i, k)
		}
	}
	fn := FirstNameMinHashSex(MinHashParams{})
	keys := keysOf(fn, mhRecord("mary", "", "f"), 1871)
	for i, k := range keys {
		if k.Tag != uint64(i)<<8|'f' {
			t.Errorf("firstname band %d key %+v does not hold its band index and sex", i, k)
		}
	}
	// Different sex must never collide on the firstname pass, and the
	// unknown sex is a value of its own.
	for _, sex := range []string{"m", ""} {
		other := keysOf(fn, mhRecord("mary", "", sex), 1871)
		for i := range keys {
			if keys[i] == other[i] {
				t.Errorf("band %d collides across sex %q: %+v", i, sex, keys[i])
			}
		}
	}
	// Empty values exclude the record from the pass.
	if got := keysOf(sur, mhRecord("x", "", "m"), 1871); got != nil {
		t.Errorf("empty surname produced keys %v", got)
	}
	if got := keysOf(sur, mhRecord("x", "   ", "m"), 1871); got != nil {
		t.Errorf("blank surname produced keys %v", got)
	}
	// Every built-in key leaves the top 16 bits of Tag to scoping wrappers.
	for _, s := range append(LSHStrategies(LSHConfig{}), DefaultStrategies()...) {
		r := mhRecord("mary", "smith", "f")
		r.Age = 30
		for _, k := range keysOf(s, r, 1871) {
			if k.Tag>>48 != 0 {
				t.Errorf("%s key %+v uses the scope bits", s.Name, k)
			}
		}
	}
}

// TestMinHashNamesEncodeParams: Config.Fingerprint hashes strategies by name
// only, so distinct parameterizations must have distinct names.
func TestMinHashNamesEncodeParams(t *testing.T) {
	a := SurnameMinHash(MinHashParams{Hashes: 16, Bands: 8})
	b := SurnameMinHash(MinHashParams{Hashes: 32, Bands: 16})
	if a.Name == b.Name {
		t.Fatalf("parameterizations share the name %q", a.Name)
	}
	names := map[string]bool{}
	for _, s := range LSHStrategies(LSHConfig{}) {
		if names[s.Name] {
			t.Fatalf("duplicate strategy name %q in LSH bundle", s.Name)
		}
		names[s.Name] = true
	}
	// The zero config resolves to the documented default scheme, and its
	// composite names bake every parameter in.
	def := LSHStrategies(DefaultLSHConfig())
	zero := LSHStrategies(LSHConfig{})
	if len(def) != 3 || len(zero) != 3 {
		t.Fatalf("LSH bundle has %d/%d passes, want 3", len(def), len(zero))
	}
	for i := range def {
		if def[i].Name != zero[i].Name {
			t.Errorf("pass %d: zero config %q != default config %q", i, zero[i].Name, def[i].Name)
		}
	}
	tighter := LSHStrategies(LSHConfig{BirthYearWidth: 3})
	if tighter[0].Name == def[0].Name {
		t.Errorf("birth-year width not baked into pass name %q", tighter[0].Name)
	}
}

// TestMinHashConcurrentQueries: workers query one index at once, each
// through its own Scratch whose key functions cache band accumulators
// across queries; every cached answer must equal an uncached query (run
// with -race).
func TestMinHashConcurrentQueries(t *testing.T) {
	rows := [][4]string{
		{"ann", "ashworth", "f", "30"}, {"bob", "ashwirth", "m", "31"},
		{"cat", "johansson", "f", "32"}, {"dan", "johanson", "m", "33"},
		{"ann", "ashworth", "f", ""}, {"", "", "m", "34"},
	}
	old := makeDataset(t, 1871, rows)
	new := makeDataset(t, 1881, rows)
	ix := NewIndex(new.Records(), 1881, LSHStrategies(LSHConfig{}))
	want := make([]string, len(old.Records()))
	for i, o := range old.Records() {
		want[i] = fmt.Sprint(ix.CandidateIndices(o, 1871, nil))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for i := 0; i < 50; i++ {
				for j, o := range old.Records() {
					if got := fmt.Sprint(ix.CandidateIndices(o, 1871, &sc)); got != want[j] {
						t.Errorf("record %d: cached query %s, uncached %s", j, got, want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMinHashUnionWithIndex: through the full multi-pass index, identical
// records pair via LSH blocking just as with the exact passes.
func TestMinHashUnionWithIndex(t *testing.T) {
	rows := [][4]string{
		{"ann", "ashworth", "f", "30"},
		{"mary", "zimmer", "f", "25"},
	}
	old := makeDataset(t, 1871, rows)
	new := makeDataset(t, 1881, [][4]string{
		{"ann", "ashwirth", "f", "40"}, // surname typo
		{"mary", "taylor", "f", "35"},  // surname change: firstname pass must catch it
	})
	got := map[string]bool{}
	candidates(old.Records(), 1871, new.Records(), 1881, LSHStrategies(LSHConfig{}),
		func(o, n *census.Record) { got[o.ID+"|"+n.ID] = true })
	if !got["1871_0|1881_0"] {
		t.Error("surname typo pair missed by LSH blocking")
	}
	if !got["1871_1|1881_1"] {
		t.Error("surname-change pair missed by the firstname LSH pass")
	}
}

// TestMinHashMissingAgeRecovered: records without an age fall out of the
// birth-year-guarded passes; the full-name pass must still pair them. An
// identical full name collides in every band (Jaccard 1), so this is
// deterministic; typo variants collide probabilistically per the S-curve
// and are covered in aggregate by the experiments coverage gate.
func TestMinHashMissingAgeRecovered(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{{"ann", "ashworth", "f", ""}})
	new := makeDataset(t, 1881, [][4]string{{"ann", "ashworth", "f", "40"}})
	got := 0
	candidates(old.Records(), 1871, new.Records(), 1881, LSHStrategies(LSHConfig{}),
		func(o, n *census.Record) { got++ })
	if got != 1 {
		t.Errorf("missing-age pair candidates = %d, want 1", got)
	}
	// With ages present but far apart, only the full-name pass can pair the
	// records — the birth-year guard excludes the per-field passes.
	old = makeDataset(t, 1871, [][4]string{{"ann", "ashworth", "f", "20"}})
	new = makeDataset(t, 1881, [][4]string{{"ann", "ashworth", "f", "50"}})
	got = 0
	candidates(old.Records(), 1871, new.Records(), 1881, LSHStrategies(LSHConfig{}),
		func(o, n *census.Record) { got++ })
	if got != 1 {
		t.Errorf("age-divergent pair candidates = %d, want 1 (full-name pass)", got)
	}
}

// lshNamePasses returns the birth-year-guarded surname and
// first-name+sex LSH passes with 5-year bands.
func lshNamePasses() (sur, fn []Strategy) {
	passes := LSHStrategies(LSHConfig{BirthYearWidth: 5})
	return passes[:1], passes[1:2]
}

// TestComposite: the guarded LSH name passes compose the name bands with
// sex (first-name pass only) and a birth-year band; a record missing a
// part (no age) emits no guarded keys.
func TestComposite(t *testing.T) {
	sur, fn := lshNamePasses()
	old := makeDataset(t, 1871, [][4]string{
		{"ann", "ashworth", "f", "30"},
		{"bob", "ashworth", "m", ""}, // missing age: excluded
	})
	new := makeDataset(t, 1881, [][4]string{
		{"ann", "ashworth", "f", "40"},
		{"ann", "ashworth", "m", "40"}, // other sex
		{"bob", "ashworth", "m", "40"},
	})
	pairs := collectPairs(old, new, sur)
	if !pairs["1871_0|1881_0"] {
		t.Error("same surname and birth-year band should block on the surname pass")
	}
	if !pairs["1871_0|1881_1"] {
		t.Error("the surname pass should ignore sex")
	}
	for k := range pairs {
		if k[:6] == "1871_1" {
			t.Error("record with missing age should emit no guarded keys")
		}
	}
	pairs = collectPairs(old, new, fn)
	if !pairs["1871_0|1881_0"] || pairs["1871_0|1881_1"] {
		t.Errorf("first-name pass should block same sex only: %v", pairs)
	}
	for k := range pairs {
		if k[:6] == "1871_1" {
			t.Error("record with missing age should emit no guarded keys")
		}
	}
}

// TestCompositeMultiKeyParts: the birth-year part emits three keys per
// name band (its band and both neighbours), so the guarded passes pair
// records whose birth-year bands are within two and no further.
func TestCompositeMultiKeyParts(t *testing.T) {
	sur, fn := lshNamePasses()
	old := makeDataset(t, 1871, [][4]string{
		{"ann", "ashworth", "f", "30"}, // born 1841, band 368
	})
	new := makeDataset(t, 1881, [][4]string{
		{"ann", "ashworth", "f", "41"}, // born 1840, band 368
		{"ann", "ashworth", "f", "50"}, // born 1831, band 366: two bands off
		{"ann", "ashworth", "f", "60"}, // born 1821, band 364: too far
	})
	for name, pass := range map[string][]Strategy{"surname": sur, "first-name": fn} {
		pairs := collectPairs(old, new, pass)
		if !pairs["1871_0|1881_0"] {
			t.Errorf("%s pass: same birth-year band should block", name)
		}
		if !pairs["1871_0|1881_1"] {
			t.Errorf("%s pass: birth-year bands two apart should block", name)
		}
		if pairs["1871_0|1881_2"] {
			t.Errorf("%s pass: birth-year bands four apart should not block", name)
		}
	}
}
