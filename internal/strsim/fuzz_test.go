package strsim

import "testing"

// FuzzEncoders: phonetic encoders and similarity functions must never panic
// and must respect their output contracts for arbitrary input.
func FuzzEncoders(f *testing.F) {
	f.Add("smith", "smyth")
	f.Add("", "x")
	f.Add("日本語", "nihongo")
	f.Add("a b c", "   ")
	f.Add("MacDonald", "McDonald")
	f.Fuzz(func(t *testing.T, a, b string) {
		if code := Soundex(a); code != "" && len(code) != 4 {
			t.Fatalf("Soundex(%q) = %q", a, code)
		}
		for _, fn := range []Func{Bigram, QGram(3), Jaro, JaroWinkler, EditSim, DamerauSim, TokenDice} {
			s := fn(a, b)
			if s < 0 || s > 1 {
				t.Fatalf("similarity out of range for (%q, %q): %v", a, b, s)
			}
		}
		if d := Levenshtein(a, b); d < 0 {
			t.Fatalf("negative distance for (%q, %q)", a, b)
		}
		// The bit-parallel core must agree with the DP oracle everywhere.
		if got, want := levenshteinRunes([]rune(a), []rune(b)), levenshteinRunesDP([]rune(a), []rune(b)); got != want {
			t.Fatalf("myers distance %d != dp %d for (%q, %q)", got, want, a, b)
		}
		if d := DamerauLevenshtein(a, b); d < 0 {
			t.Fatalf("negative damerau distance for (%q, %q)", a, b)
		}
		// Precompiled profiles must reproduce the string path bit-for-bit:
		// the compiled engine relies on this for differential identity.
		for _, eq := range profiledEquivalents() {
			pa := eq.p.Build(a)
			pb := eq.p.Build(b)
			if got, want := eq.p.Compare(&pa, &pb), eq.f(a, b); got != want {
				t.Fatalf("%s(%q, %q): profiled=%v string=%v", eq.name, a, b, got, want)
			}
		}
	})
}
