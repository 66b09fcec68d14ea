package block

import (
	"testing"

	"censuslink/internal/census"
)

func TestSurnameQGramsCatchesAnyTypo(t *testing.T) {
	// A middle-of-word substitution breaks Soundex ("ashworth" vs
	// "ashwgrth": A263 vs A262) but q-gram blocking still collides.
	old := makeDataset(t, 1871, [][4]string{{"a", "ashworth", "m", "30"}})
	new := makeDataset(t, 1881, [][4]string{{"a", "ashwgrth", "m", "40"}})
	qg := collectPairs(old, new, []Strategy{SurnameQGrams(3, 4)})
	if !qg["1871_0|1881_0"] {
		t.Error("q-gram blocking should survive a mid-word substitution")
	}
}

func TestSurnameQGramsMinLen(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{{"a", "kay", "m", "30"}})
	new := makeDataset(t, 1881, [][4]string{{"a", "kay", "m", "40"}})
	if got := collectPairs(old, new, []Strategy{SurnameQGrams(3, 4)}); len(got) != 0 {
		t.Errorf("surname below min length should emit no keys: %v", got)
	}
}

func TestSurnameQGramsNoDuplicateVisits(t *testing.T) {
	// Shared q-grams appear in several positions; the pair must still be
	// visited once.
	old := makeDataset(t, 1871, [][4]string{{"a", "banana", "m", "30"}})
	new := makeDataset(t, 1881, [][4]string{{"a", "banana", "m", "40"}})
	count := 0
	candidates(old.Records(), old.Year, new.Records(), new.Year,
		[]Strategy{SurnameQGrams(3, 4)}, func(_, _ *census.Record) { count++ })
	if count != 1 {
		t.Errorf("visited %d times, want 1", count)
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

func TestHighRecallStrategiesSuperset(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{
		{"john", "ashworth", "m", "30"},
		{"mary", "pickup", "f", "28"},
	})
	new := makeDataset(t, 1881, [][4]string{
		{"john", "ashworth", "m", "40"},
		{"mary", "pickup", "f", "38"},
		{"jane", "walker", "f", "20"},
	})
	base := collectPairs(old, new, DefaultStrategies())
	high := collectPairs(old, new, HighRecallStrategies())
	for p := range base {
		if !high[p] {
			t.Errorf("high-recall strategies lost pair %s", p)
		}
	}
}
