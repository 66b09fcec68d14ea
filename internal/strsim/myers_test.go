package strsim

import (
	"math/rand"
	"strings"
	"testing"
)

// TestMyersKnownDistances pins the bit-parallel kernels to hand-checked
// distances, including the block-boundary lengths 63..66 and a >64 pattern
// with unicode runes.
func TestMyersKnownDistances(t *testing.T) {
	long64 := strings.Repeat("a", 64)
	long65 := strings.Repeat("a", 65)
	long130 := strings.Repeat("ab", 65)
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"smith", "smyth", 1},
		{"thordur", "thordur", 0},
		{long64, long64, 0},
		{long64, long64 + "b", 1},
		{long65, long65, 0},
		{long65, strings.Repeat("a", 64) + "b", 1},
		{long130, long130, 0},
		{long130, strings.Repeat("ba", 65), 2},
		{long130 + "ж", long130, 1},
		{strings.Repeat("ж", 70), strings.Repeat("ж", 69) + "x", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got, want := Levenshtein(c.a, c.b), Levenshtein(c.b, c.a); got != want {
			t.Errorf("Levenshtein not symmetric for (%q, %q): %d vs %d", c.a, c.b, got, want)
		}
	}
}

// TestMyersDifferentialRandom cross-checks the Myers kernels against the DP
// oracle over random inputs spanning both kernels (single-word and blocked),
// mixed ASCII/unicode alphabets and skewed length pairs.
func TestMyersDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabets := [][]rune{
		[]rune("ab"),
		[]rune("abcdefgh"),
		[]rune("aáàâbßcðđeéfþжю語"),
	}
	randRunes := func(n int, alpha []rune) []rune {
		out := make([]rune, n)
		for i := range out {
			out[i] = alpha[rng.Intn(len(alpha))]
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		alpha := alphabets[rng.Intn(len(alphabets))]
		la := rng.Intn(150)
		lb := rng.Intn(150)
		ra := randRunes(la, alpha)
		rb := randRunes(lb, alpha)
		want := levenshteinRunesDP(ra, rb)
		got := levenshteinRunes(ra, rb)
		if got != want {
			t.Fatalf("trial %d: myers=%d dp=%d for %q vs %q", trial, got, want, string(ra), string(rb))
		}
	}
}

// FuzzMyersDifferential asserts the bit-parallel distance is bit-for-bit
// identical to the DP oracle for arbitrary unicode inputs — the property the
// compiled engine's bit-identity with the string path depends on. The seed corpus crosses the
// 64-rune block boundary in both operands.
func FuzzMyersDifferential(f *testing.F) {
	f.Add("smith", "smyth")
	f.Add("", "x")
	f.Add("Þórður", "Thordur")
	f.Add(strings.Repeat("a", 64), strings.Repeat("a", 63)+"b")
	f.Add(strings.Repeat("ab", 40), strings.Repeat("ba", 40))
	f.Add(strings.Repeat("ж", 70), strings.Repeat("ж", 69)+"x")
	f.Add(strings.Repeat("xyz", 50), strings.Repeat("zyx", 44))
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, rb := []rune(a), []rune(b)
		want := levenshteinRunesDP(ra, rb)
		got := levenshteinRunes(ra, rb)
		if got != want {
			t.Fatalf("myers=%d dp=%d for (%q, %q)", got, want, a, b)
		}
	})
}

// BenchmarkLevenshteinCore contrasts the bit-parallel path with the DP
// oracle on name-length strings.
func BenchmarkLevenshteinCore(b *testing.B) {
	ra, rb := []rune("margaret"), []rune("margret")
	b.Run("myers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			levenshteinRunes(ra, rb)
		}
	})
	b.Run("dp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			levenshteinRunesDP(ra, rb)
		}
	})
}
