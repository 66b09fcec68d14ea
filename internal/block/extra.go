package block

import (
	"strings"

	"censuslink/internal/census"
)

// SurnameQGrams blocks on the padded q-grams of the surname: two records
// become candidates if they share any q-gram. This is robust to arbitrary
// single typos (any one edit preserves most q-grams) at the cost of larger
// candidate sets; minLen skips very short surnames that would generate
// overly common keys.
func SurnameQGrams(q, minLen int) Strategy {
	if q < 2 {
		q = 3
	}
	if minLen < q {
		minLen = q
	}
	return Strategy{
		Name: "surname-qgrams",
		Keys: func(r *census.Record, _ int) []string {
			s := strings.ToLower(strings.TrimSpace(r.Surname))
			if len(s) < minLen {
				return nil
			}
			keys := make([]string, 0, len(s)-q+1)
			seen := make(map[string]bool, len(s))
			for i := 0; i+q <= len(s); i++ {
				g := s[i : i+q]
				if !seen[g] {
					seen[g] = true
					keys = append(keys, "sq:"+g)
				}
			}
			return keys
		},
	}
}

// Composite combines several strategies into one pass whose key is the
// concatenation of one key from each part (records match only if every part
// agrees). Parts that emit several keys multiply out; parts that emit none
// exclude the record.
func Composite(name string, parts ...Strategy) Strategy {
	return Strategy{
		Name: name,
		Keys: func(r *census.Record, year int) []string {
			combined := []string{""}
			for _, p := range parts {
				keys := p.Keys(r, year)
				if len(keys) == 0 {
					return nil
				}
				next := make([]string, 0, len(combined)*len(keys))
				for _, c := range combined {
					for _, k := range keys {
						next = append(next, c+"|"+k)
					}
				}
				combined = next
			}
			return combined
		},
	}
}

// HighRecallStrategies augments the default passes with a q-gram surname
// pass, for workloads with heavy name corruption.
func HighRecallStrategies() []Strategy {
	return append(DefaultStrategies(), SurnameQGrams(3, 4))
}
