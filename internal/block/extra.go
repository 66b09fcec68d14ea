package block

import (
	"slices"
	"strings"

	"censuslink/internal/census"
)

// SurnameQGrams blocks on the padded q-grams of the surname: two records
// become candidates if they share any q-gram. This is robust to arbitrary
// single typos (any one edit preserves most q-grams) at the cost of larger
// candidate sets; minLen skips very short surnames that would generate
// overly common keys. Key: the gram's q bytes in Hi/Lo, so q is at most 16
// (larger values are lowered to 16).
func SurnameQGrams(q, minLen int) Strategy {
	if q < 2 {
		q = 3
	}
	q = min(q, 16)
	if minLen < q {
		minLen = q
	}
	return Strategy{
		Name: "surname-qgrams",
		Keys: stateless(func(r *census.Record, _ int, dst []Key) []Key {
			s := strings.ToLower(strings.TrimSpace(r.Surname))
			if len(s) < minLen {
				return dst
			}
			first := len(dst)
			for i := 0; i+q <= len(s); i++ {
				var k Key
				for j := 0; j < q; j++ {
					if j < 8 {
						k.Hi = k.Hi<<8 | uint64(s[i+j])
					} else {
						k.Lo = k.Lo<<8 | uint64(s[i+j])
					}
				}
				if !slices.Contains(dst[first:], k) {
					dst = append(dst, k)
				}
			}
			return dst
		}),
	}
}

// HighRecallStrategies augments the default passes with a q-gram surname
// pass, for workloads with heavy name corruption.
func HighRecallStrategies() []Strategy {
	return append(DefaultStrategies(), SurnameQGrams(3, 4))
}
