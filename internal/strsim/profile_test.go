package strsim

import "testing"

// profilePairs is a corpus of census-like value pairs covering empties,
// whitespace, case folding, unicode, short strings and typo variants.
var profilePairs = [][2]string{
	{"", ""},
	{"", "smith"},
	{"smith", ""},
	{"smith", "smith"},
	{"Smith", " smith "},
	{"smith", "smyth"},
	{"smith", "smithson"},
	{"johnson", "jonson"},
	{"a", "a"},
	{"a", "b"},
	{"ab", "ba"},
	{"martha", "marhta"},
	{"dwayne", "duane"},
	{"dixon", "dicksonx"},
	{"o'brien", "obrien"},
	{"müller", "mueller"},
	{"Ætheling", "atheling"},
	{"12 high st", "12 high street"},
	{"m", "f"},
	{"weaver", "weaver "},
	{"\x00odd", "odd"},
	{"ab", "abc"},
	{"x", "xyzzy"},
	{"𝔖mith", "smith"},
	{"𝔖mith", "𝔖myth"},
	{"\U0010FFFF", "\U0010FFFFa"},
	{"a\U0010FFFF", "\U0010FFFF"},
	{"\xff\xfe", "\ufffd\ufffd"},
	{"\xffab", "ab"},
	// An inner NUL is the pad rune: the packed and the string path must
	// agree that it collides with the padding.
	{"a\x00b", "ab"},
	{"a\x00", "a"},
}

// profiledEquivalents maps each Profiled comparator to the string Func it
// must reproduce bit-for-bit.
func profiledEquivalents() []struct {
	name string
	p    *Profiled
	f    Func
} {
	return []struct {
		name string
		p    *Profiled
		f    Func
	}{
		{"bigram", BigramProfiled, Bigram},
		{"qgram3", QGramProfiled(3), QGram(3)},
		{"qgram1", QGramProfiled(1), QGram(1)},
		{"qgram4", QGramProfiled(4), QGram(4)},
		{"exact", ExactProfiled, Exact},
		{"jaro", JaroProfiled, Jaro},
		{"jarowinkler", JaroWinklerProfiled, JaroWinkler},
		{"editsim", EditSimProfiled, EditSim},
	}
}

func TestProfiledMatchesStringFuncs(t *testing.T) {
	for _, eq := range profiledEquivalents() {
		for _, pair := range profilePairs {
			a, b := pair[0], pair[1]
			pa := eq.p.Build(a)
			pb := eq.p.Build(b)
			got := eq.p.Compare(&pa, &pb)
			want := eq.f(a, b)
			if got != want {
				t.Errorf("%s(%q, %q): profiled=%v string=%v", eq.name, a, b, got, want)
			}
			// Profiles are reusable: a second compare must be identical.
			if again := eq.p.Compare(&pa, &pb); again != got {
				t.Errorf("%s(%q, %q): compare not deterministic: %v then %v", eq.name, a, b, got, again)
			}
		}
	}
}

func TestProfiledSymmetricRange(t *testing.T) {
	for _, eq := range profiledEquivalents() {
		for _, pair := range profilePairs {
			pa := eq.p.Build(pair[0])
			pb := eq.p.Build(pair[1])
			ab := eq.p.Compare(&pa, &pb)
			if ab < 0 || ab > 1 {
				t.Errorf("%s(%q, %q) = %v out of [0,1]", eq.name, pair[0], pair[1], ab)
			}
		}
	}
}

func TestFuncProfiled(t *testing.T) {
	m := FuncProfiled("damerau", DamerauSim)
	for _, pair := range profilePairs {
		pa := m.Build(pair[0])
		pb := m.Build(pair[1])
		if got, want := m.Compare(&pa, &pb), DamerauSim(pair[0], pair[1]); got != want {
			t.Errorf("func-profiled damerau(%q, %q): %v != %v", pair[0], pair[1], got, want)
		}
	}
}

func TestSortedCommonMatchesCountMap(t *testing.T) {
	ab, bc, aa, bb, cc, dd := packGram([]rune("ab")), packGram([]rune("bc")),
		packGram([]rune("aa")), packGram([]rune("bb")), packGram([]rune("cc")), packGram([]rune("dd"))
	cases := []struct {
		a, b []uint64
		want int
	}{
		{nil, nil, 0},
		{[]uint64{ab}, nil, 0},
		{[]uint64{ab, ab, bc}, []uint64{ab, bc, bc}, 2},
		{[]uint64{aa, aa, aa}, []uint64{aa, aa}, 2},
		{[]uint64{aa, bb}, []uint64{cc, dd}, 0},
	}
	for _, c := range cases {
		if got := sortedCommon(c.a, c.b); got != c.want {
			t.Errorf("sortedCommon(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestPackGramInjective: every gram of up to maxPackedQ runes drawn from
// the extremes of the rune range (the pad rune 0, the replacement
// character U+FFFD that invalid bytes decode to, and U+10FFFF) gets its
// own key.
func TestPackGramInjective(t *testing.T) {
	extremes := []rune{0, 1, 'a', 0xFFFD, 0x10FFFE, 0x10FFFF}
	for q := 1; q <= maxPackedQ; q++ {
		grams := 1
		for range q {
			grams *= len(extremes)
		}
		seen := make(map[uint64][]rune, grams)
		for c := 0; c < grams; c++ {
			g := make([]rune, q)
			for i, d := 0, c; i < q; i, d = i+1, d/len(extremes) {
				g[i] = extremes[d%len(extremes)]
			}
			k := packGram(g)
			if prev, dup := seen[k]; dup {
				t.Fatalf("q=%d: grams %U and %U share key %#x", q, prev, g, k)
			}
			seen[k] = g
		}
	}
}
