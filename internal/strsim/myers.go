package strsim

// Bit-parallel edit distance (Myers 1999, in Hyyrö's formulation): the
// dynamic-programming matrix is encoded as vertical delta bit-vectors and
// one text character advances a whole 64-row column block in a handful of
// word operations. For the short name strings of census data the entire
// pattern fits in one word and the distance costs O(|text|) word ops with
// zero heap allocation; longer inputs fall back to the multi-block variant.
//
// Both paths compute the exact unit-cost Levenshtein distance, so
// levenshteinRunes can dispatch here while staying bit-for-bit identical to
// the classic two-row DP (kept below as levenshteinRunesDP, the differential
// oracle for the fuzz tests). The compiled engine's bit-identity with the
// string path depends on that identity.

// myersRunes returns the Levenshtein distance between two rune slices using
// the bit-parallel recurrence. The shorter slice becomes the pattern so the
// block count is minimal. Both inputs must be non-empty (callers dispatch
// the empty cases directly).
func myersRunes(ra, rb []rune) int {
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(ra) <= 64 {
		return myersSmall(ra, rb)
	}
	return myersBlocked(ra, rb)
}

// myersSmall is the single-word kernel for patterns of at most 64 runes.
// The pattern's character-position bitmasks live in a stack array for ASCII
// runes (the common case after normalization folds diacritics) with a map
// spilled only when the pattern actually contains non-ASCII runes.
func myersSmall(pattern, text []rune) int {
	m := len(pattern)
	var peq [128]uint64
	var peqOther map[rune]uint64
	for i, r := range pattern {
		if r < 128 {
			peq[r] |= 1 << uint(i)
		} else {
			if peqOther == nil {
				peqOther = make(map[rune]uint64, 4)
			}
			peqOther[r] |= 1 << uint(i)
		}
	}
	pv := ^uint64(0)
	mv := uint64(0)
	score := m
	last := uint64(1) << uint(m-1)
	for _, c := range text {
		var eq uint64
		if c < 128 {
			eq = peq[c]
		} else if peqOther != nil {
			eq = peqOther[c]
		}
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		}
		if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// myersBlocked is the multi-word kernel for patterns longer than 64 runes:
// the pattern rows are split into ceil(m/64) vertical blocks and the
// horizontal delta at each block boundary is carried into the next block
// (Hyyrö's blocked algorithm). The score is tracked at the pattern's true
// last row — bit (m-1) mod 64 of the top block; the garbage bits above it
// never feed back into lower rows because information only moves upward
// through shifts and addition carries.
func myersBlocked(pattern, text []rune) int {
	m := len(pattern)
	blocks := (m + 63) / 64
	peq := make(map[rune][]uint64, len(pattern))
	for i, r := range pattern {
		row, ok := peq[r]
		if !ok {
			row = make([]uint64, blocks)
			peq[r] = row
		}
		row[i/64] |= 1 << uint(i%64)
	}
	pv := make([]uint64, blocks)
	mv := make([]uint64, blocks)
	for b := range pv {
		pv[b] = ^uint64(0)
	}
	score := m
	lastMask := uint64(1) << uint((m-1)%64)
	zero := make([]uint64, blocks) // shared Eq row for text runes absent from the pattern
	for _, c := range text {
		eqRow := peq[c]
		if eqRow == nil {
			eqRow = zero
		}
		hin := 1 // D[0][j] - D[0][j-1] = +1 along the top boundary
		for b := 0; b < blocks; b++ {
			eq := eqRow[b]
			if hin < 0 {
				eq |= 1
			}
			xv := eq | mv[b]
			xh := (((eq & pv[b]) + pv[b]) ^ pv[b]) | eq
			ph := mv[b] | ^(xh | pv[b])
			mh := pv[b] & xh
			mask := uint64(1) << 63
			if b == blocks-1 {
				mask = lastMask
			}
			hout := 0
			if ph&mask != 0 {
				hout = 1
			} else if mh&mask != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			switch {
			case hin < 0:
				mh |= 1
			case hin > 0:
				ph |= 1
			}
			pv[b] = mh | ^(xv | ph)
			mv[b] = ph & xv
			hin = hout
		}
		score += hin
	}
	return score
}

// levenshteinRunesDP is the classic two-row dynamic-programming edit
// distance, kept as the differential oracle the Myers kernels are fuzz-
// tested against (see FuzzMyersDifferential).
func levenshteinRunesDP(ra, rb []rune) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}
