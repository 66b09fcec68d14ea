package strsim

import "slices"

// Profile is a precompiled comparison form of one string value: the
// normalised text, its rune expansion, and (for q-gram comparators) the
// sorted padded q-gram multiset as packed integer keys. Building a Profile
// once per distinct dictionary value lets the iterative linkage loop
// compare value IDs without re-normalising or re-tokenising strings on
// every candidate pair.
type Profile struct {
	// Norm is the normalised (lower-cased, trimmed) value.
	Norm string
	// Runes is Norm expanded to runes, shared by the edit-distance and
	// Jaro comparators.
	Runes []rune
	// Grams is the sorted padded q-gram multiset of Norm, each gram packed
	// into one key (packGram); empty for comparators that do not use
	// q-grams.
	Grams []uint64
}

// Profiled pairs a profile builder with a profile-vs-profile comparator.
// Compare(Build(a), Build(b)) is bit-for-bit identical to the corresponding
// string Func(a, b): both paths share the same rune-level cores
// (levenshteinRunes, jaroRunes, winklerBoost) and the q-gram Dice count is
// computed by a sorted-merge that is provably equal to the count-map
// intersection used by QGram.
type Profiled struct {
	// Name identifies the comparator (for diagnostics and spec round-trips).
	Name string
	// Build compiles one string into its comparison profile.
	Build func(s string) Profile
	// Compare scores two profiles; result is in [0, 1].
	Compare func(a, b *Profile) float64
}

// buildBase compiles the normalisation-and-runes part shared by all
// profile builders.
func buildBase(s string) Profile {
	n := normalize(s)
	return Profile{Norm: n, Runes: []rune(n)}
}

// A packed q-gram key holds runeBits bits per rune: a rune of a decoded Go
// string is at most U+10FFFF, which fits in 21 bits, so a uint64 holds the
// runes of a gram of up to maxPackedQ = 3 of them.
const (
	runeBits   = 21
	maxPackedQ = 64 / runeBits
)

// packGram packs the runes of one q-gram into an integer key. Every rune
// []rune yields from a string is in [0, U+10FFFF] (invalid bytes decode to
// U+FFFD), so for len(g) <= maxPackedQ two grams of equal length get equal
// keys exactly when they are equal as strings.
func packGram(g []rune) uint64 {
	var k uint64
	for _, r := range g {
		k = k<<runeBits | uint64(r)
	}
	return k
}

// packedQGrams returns the sorted packed keys of the padded q-grams of
// runes: the keys of exactly the grams qgrams(string(runes), q) returns,
// with q-1 pad runes 0 on each side where qgrams pads with "\x00".
func packedQGrams(runes []rune, q int) []uint64 {
	padded := make([]rune, len(runes)+2*(q-1))
	copy(padded[q-1:], runes)
	out := make([]uint64, len(padded)-q+1)
	for i := range out {
		out[i] = packGram(padded[i : i+q])
	}
	slices.Sort(out)
	return out
}

// QGramProfiled returns the profile form of QGram(q): Build packs the
// padded q-gram multiset into sorted integer keys once, Compare counts the
// Dice overlap by an integer merge. For q > maxPackedQ, where a key could
// not hold a whole gram, it scores through the string path instead
// (FuncProfiled).
func QGramProfiled(q int) *Profiled {
	if q < 1 {
		q = 2
	}
	if q > maxPackedQ {
		return FuncProfiled("qgram", QGram(q))
	}
	return &Profiled{
		Name: "qgram",
		Build: func(s string) Profile {
			p := buildBase(s)
			p.Grams = packedQGrams(p.Runes, q)
			return p
		},
		Compare: func(a, b *Profile) float64 {
			if a.Norm == "" || b.Norm == "" {
				return 0
			}
			if a.Norm == b.Norm {
				return 1
			}
			if len(a.Grams) == 0 || len(b.Grams) == 0 {
				return 0
			}
			common := sortedCommon(a.Grams, b.Grams)
			return 2 * float64(common) / float64(len(a.Grams)+len(b.Grams))
		},
	}
}

// BigramProfiled is the profile form of Bigram (QGram(2)).
var BigramProfiled = QGramProfiled(2)

// sortedCommon counts the multiset intersection of two sorted key slices.
// Keys are equal exactly when their grams are, so for sorted inputs this
// equals the count-map intersection computed by QGram and the Dice
// numerators of the two paths are identical.
func sortedCommon(a, b []uint64) int {
	common := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			common++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return common
}

// ExactProfiled is the profile form of Exact.
var ExactProfiled = &Profiled{
	Name:  "exact",
	Build: buildBase,
	Compare: func(a, b *Profile) float64 {
		if a.Norm == "" || b.Norm == "" {
			return 0
		}
		if a.Norm == b.Norm {
			return 1
		}
		return 0
	},
}

// JaroProfiled is the profile form of Jaro, reusing each value's cached
// rune expansion.
var JaroProfiled = &Profiled{
	Name:  "jaro",
	Build: buildBase,
	Compare: func(a, b *Profile) float64 {
		if a.Norm == "" || b.Norm == "" {
			return 0
		}
		if a.Norm == b.Norm {
			return 1
		}
		return jaroRunes(a.Runes, b.Runes)
	},
}

// JaroWinklerProfiled is the profile form of JaroWinkler.
var JaroWinklerProfiled = &Profiled{
	Name:  "jarowinkler",
	Build: buildBase,
	Compare: func(a, b *Profile) float64 {
		j := JaroProfiled.Compare(a, b)
		if j == 0 {
			return 0
		}
		return winklerBoost(j, a.Runes, b.Runes)
	},
}

// EditSimProfiled is the profile form of EditSim.
var EditSimProfiled = &Profiled{
	Name:  "editsim",
	Build: buildBase,
	Compare: func(a, b *Profile) float64 {
		if a.Norm == "" || b.Norm == "" {
			return 0
		}
		return editSimRunes(a.Runes, b.Runes)
	},
}

// FuncProfiled wraps an arbitrary string Func as a Profiled whose profile
// is just the original string: comparators without a native profile form
// (Damerau, Monge-Elkan, token Dice) run in the compiled engine by scoring
// through the string path.
func FuncProfiled(name string, f Func) *Profiled {
	return &Profiled{
		Name:  name,
		Build: func(s string) Profile { return Profile{Norm: s} },
		Compare: func(a, b *Profile) float64 {
			return f(a.Norm, b.Norm)
		},
	}
}
