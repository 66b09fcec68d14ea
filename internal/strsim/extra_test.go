package strsim

import (
	"testing"
	"testing/quick"
)

func TestDamerauLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "abc", 3},
		{"abc", "acb", 1}, // adjacent transposition: 1 (Levenshtein: 2)
		{"ca", "abc", 3},  // restricted variant
		{"smith", "smiht", 1},
		{"kitten", "sitting", 3},
		{"jonh", "john", 1},
	}
	for _, c := range cases {
		if got := DamerauLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("DamerauLevenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauNeverExceedsLevenshtein(t *testing.T) {
	prop := func(a, b string) bool {
		return DamerauLevenshtein(a, b) <= Levenshtein(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDamerauSim(t *testing.T) {
	// "jonh" vs "john": one transposition over 4 chars -> 0.75.
	if got := DamerauSim("jonh", "john"); got != 0.75 {
		t.Errorf("DamerauSim = %v, want 0.75", got)
	}
	if DamerauSim("", "x") != 0 {
		t.Error("empty input should be 0")
	}
	if DamerauSim("Ann", "ann") != 1 {
		t.Error("case-insensitive identity failed")
	}
}

func TestTokenDice(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"3 mill lane", "mill lane", 4.0 / 5.0},
		{"mill lane", "mill lane", 1},
		{"cotton weaver", "weaver", 2.0 / 3.0},
		{"", "x", 0},
		{"a b", "c d", 0},
		{"a a", "a", 2.0 / 3.0}, // multiset semantics
	}
	for _, c := range cases {
		if got := TokenDice(c.a, c.b); !almostEqual(got, c.want) {
			t.Errorf("TokenDice(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMongeElkan(t *testing.T) {
	me := MongeElkan(Exact)
	// Each token of "john smith" matched exactly: ("john smith", "smith john") -> 1.
	if got := me("john smith", "smith john"); got != 1 {
		t.Errorf("MongeElkan word order = %v, want 1", got)
	}
	// One of two tokens matches -> 0.5.
	if got := me("john smith", "john taylor"); got != 0.5 {
		t.Errorf("MongeElkan half match = %v, want 0.5", got)
	}
	// Asymmetry: every token of the shorter string may match well while the
	// longer string has unmatched tokens.
	long, short := "john william smith", "john smith"
	if me(short, long) <= me(long, short)-1e-9 {
		t.Errorf("expected me(short,long) >= me(long,short): %v vs %v",
			me(short, long), me(long, short))
	}
	if me("", "x") != 0 || me("x", "") != 0 {
		t.Error("empty input should be 0")
	}
	// nil inner defaults to Jaro-Winkler.
	if MongeElkan(nil)("smith", "smith") != 1 {
		t.Error("default inner function broken")
	}
}

func TestSymmetricMongeElkan(t *testing.T) {
	sym := SymmetricMongeElkan(Exact)
	prop := func(a, b string) bool {
		return almostEqual(sym(a, b), sym(b, a))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDamerauLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DamerauLevenshtein("elizabeth", "elisabeht")
	}
}

func TestLCSSim(t *testing.T) {
	sim := LCSSim(2)
	if got := sim("john peter", "peter john"); got < 0.85 {
		t.Errorf("token swap should score high: %v", got)
	}
	if sim("smith", "smith") != 1 {
		t.Error("identity should be 1")
	}
	if sim("", "abc") != 0 {
		t.Error("empty input should be 0")
	}
	if got := sim("abc", "xyz"); got != 0 {
		t.Errorf("disjoint strings = %v", got)
	}
	// "gail west" vs "vest abigail": common substrings "gail"(4), "est"(3)
	// of mean length 10 -> 0.7.
	if got := sim("gail west", "vest abigail"); got < 0.5 || got > 0.8 {
		t.Errorf("partial overlap = %v", got)
	}
}

func TestLCSSimProperties(t *testing.T) {
	sim := LCSSim(2)
	prop := func(a, b string) bool {
		s1, s2 := sim(a, b), sim(b, a)
		return s1 >= 0 && s1 <= 1 && almostEqual(s1, s2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLongestCommonSubstring(t *testing.T) {
	length, ai, bi := longestCommonSubstring([]rune("xashworthy"), []rune("ashworth"))
	if length != 8 || ai != 1 || bi != 0 {
		t.Errorf("lcs = %d at %d/%d", length, ai, bi)
	}
	if l, _, _ := longestCommonSubstring(nil, []rune("a")); l != 0 {
		t.Error("empty input lcs should be 0")
	}
}
