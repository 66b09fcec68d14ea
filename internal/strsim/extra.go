package strsim

import "strings"

// DamerauLevenshtein returns the edit distance counting transpositions of
// adjacent characters as a single operation (restricted Damerau variant),
// the standard model for typing errors in name data.
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Three rolling rows: i-2, i-1, i.
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < m {
					m = t
				}
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// DamerauSim is the normalised Damerau-Levenshtein similarity.
func DamerauSim(a, b string) float64 {
	na, nb := normalize(a), normalize(b)
	if na == "" || nb == "" {
		return 0
	}
	la, lb := len([]rune(na)), len([]rune(nb))
	m := max2(la, lb)
	if m == 0 {
		return 0
	}
	return 1 - float64(DamerauLevenshtein(na, nb))/float64(m)
}

// TokenDice splits both strings into whitespace tokens and returns the Dice
// coefficient over the token multisets. Useful for multi-word values such
// as addresses ("3 mill lane" vs "mill lane") and occupations.
func TokenDice(a, b string) float64 {
	ta := strings.Fields(normalize(a))
	tb := strings.Fields(normalize(b))
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	counts := make(map[string]int, len(ta))
	for _, t := range ta {
		counts[t]++
	}
	common := 0
	for _, t := range tb {
		if counts[t] > 0 {
			counts[t]--
			common++
		}
	}
	return 2 * float64(common) / float64(len(ta)+len(tb))
}

// MongeElkan returns the Monge-Elkan similarity: every token of a is
// matched to its most similar token of b under the inner function, and the
// maxima are averaged. The result is asymmetric; SymmetricMongeElkan
// averages both directions.
func MongeElkan(inner Func) Func {
	if inner == nil {
		inner = JaroWinkler
	}
	return func(a, b string) float64 {
		ta := strings.Fields(normalize(a))
		tb := strings.Fields(normalize(b))
		if len(ta) == 0 || len(tb) == 0 {
			return 0
		}
		sum := 0.0
		for _, x := range ta {
			best := 0.0
			for _, y := range tb {
				if s := inner(x, y); s > best {
					best = s
				}
			}
			sum += best
		}
		return sum / float64(len(ta))
	}
}

// SymmetricMongeElkan averages MongeElkan in both directions so the result
// is a symmetric similarity.
func SymmetricMongeElkan(inner Func) Func {
	me := MongeElkan(inner)
	return func(a, b string) float64 {
		return (me(a, b) + me(b, a)) / 2
	}
}

// LCSSim is the repeated longest-common-substring similarity used in record
// linkage toolkits (Christen 2012): common substrings of at least minLen
// characters are repeatedly removed from both strings and their total
// length is related to the mean string length. Robust to token swaps
// ("john peter" vs "peter john").
func LCSSim(minLen int) Func {
	if minLen < 2 {
		minLen = 2
	}
	return func(a, b string) float64 {
		na, nb := normalize(a), normalize(b)
		if na == "" || nb == "" {
			return 0
		}
		origLen := float64(len([]rune(na))+len([]rune(nb))) / 2
		ra, rb := []rune(na), []rune(nb)
		total := 0
		for {
			s, ai, bi := longestCommonSubstring(ra, rb)
			if s < minLen {
				break
			}
			total += s
			ra = append(append([]rune{}, ra[:ai]...), ra[ai+s:]...)
			rb = append(append([]rune{}, rb[:bi]...), rb[bi+s:]...)
		}
		if origLen == 0 {
			return 0
		}
		sim := float64(total) / origLen
		if sim > 1 {
			sim = 1
		}
		return sim
	}
}

// longestCommonSubstring returns the length and start offsets of the
// longest common substring of a and b.
func longestCommonSubstring(a, b []rune) (length, ai, bi int) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > length {
					length = cur[j]
					ai = i - length
					bi = j - length
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return length, ai, bi
}
