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
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"ab"}, nil, 0},
		{[]string{"ab", "ab", "bc"}, []string{"ab", "bc", "bc"}, 2},
		{[]string{"aa", "aa", "aa"}, []string{"aa", "aa"}, 2},
		{[]string{"aa", "bb"}, []string{"cc", "dd"}, 0},
	}
	for _, c := range cases {
		if got := sortedCommon(c.a, c.b); got != c.want {
			t.Errorf("sortedCommon(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
