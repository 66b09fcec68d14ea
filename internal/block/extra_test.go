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
	Candidates(old.Records(), old.Year, new.Records(), new.Year,
		[]Strategy{SurnameQGrams(3, 4)}, func(_, _ *census.Record) { count++ })
	if count != 1 {
		t.Errorf("visited %d times, want 1", count)
	}
}

// sexKey is a Composite part keyed on the record's sex; records with
// unknown sex emit no key and so drop out of the pass.
func sexKey() Strategy {
	return Strategy{
		Name: "sex",
		Keys: func(r *census.Record, _ int) []string {
			if r.Sex == census.SexUnknown {
				return nil
			}
			return []string{"sex:" + r.Sex.String()}
		},
	}
}

func TestComposite(t *testing.T) {
	comp := Composite("surname+sex", SurnameSoundex(), sexKey())
	old := makeDataset(t, 1871, [][4]string{
		{"a", "smith", "m", "30"},
		{"b", "smith", "", "30"}, // unknown sex: excluded
	})
	new := makeDataset(t, 1881, [][4]string{
		{"c", "smith", "m", "40"},
		{"d", "smith", "f", "40"},
	})
	pairs := collectPairs(old, new, []Strategy{comp})
	if !pairs["1871_0|1881_0"] {
		t.Error("same surname and sex should block")
	}
	if pairs["1871_0|1881_1"] {
		t.Error("sex mismatch should not block")
	}
	for k := range pairs {
		if k[:6] == "1871_1" {
			t.Error("record with unknown sex should emit no composite keys")
		}
	}
}

func TestCompositeMultiKeyParts(t *testing.T) {
	// BirthYearBand emits three keys; composite with sex must multiply out
	// and still match neighbouring bands.
	comp := Composite("birthyear+sex", BirthYearBand(5), sexKey())
	old := makeDataset(t, 1871, [][4]string{{"a", "x", "m", "30"}})
	new := makeDataset(t, 1881, [][4]string{{"b", "y", "m", "41"}})
	pairs := collectPairs(old, new, []Strategy{comp})
	if !pairs["1871_0|1881_0"] {
		t.Error("adjacent birth-year bands with matching sex should block")
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
