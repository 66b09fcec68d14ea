// Package collective implements the collective record linkage baseline (CL)
// that the paper compares against in Table 6: a SiGMa-style greedy matcher
// (Lacoste-Julien et al., KDD 2013, specialising Bhattacharya & Getoor's
// collective entity resolution).
//
// The algorithm seeds the matching with record pairs of very high attribute
// similarity, then repeatedly pops the highest-scoring candidate pair from a
// priority queue, where a pair's score combines attribute similarity with a
// relational similarity over the already-matched household neighbours. Each
// accepted match raises the relational score of its neighbour pairs, which
// are (re-)pushed into the queue. Following the paper's setup, candidate
// pairs whose normalised age difference exceeds three years are filtered
// out, and the seed threshold is 0.9.
package collective

import (
	"container/heap"
	"context"
	"sort"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/linkage"
)

// Config parameterises the CL baseline.
type Config struct {
	// Sim is the attribute similarity function (the paper uses the same
	// configuration as for the main approach, Table 2).
	Sim linkage.SimFunc
	// SeedThreshold is the minimum attribute similarity for seed links
	// (0.9 in the paper).
	SeedThreshold float64
	// AcceptThreshold is the minimum combined score for accepting a
	// non-seed pair.
	AcceptThreshold float64
	// RelWeight weights the relational score against the attribute
	// similarity: score = (1-RelWeight)*attr + RelWeight*rel.
	RelWeight float64
	// AgeTolerance filters pairs whose normalised age difference (the age
	// gap minus the census interval) exceeds this many years.
	AgeTolerance int
	// Strategies is the blocking configuration.
	Strategies []block.Strategy
}

// DefaultConfig mirrors the paper's CL setup.
func DefaultConfig() Config {
	return Config{
		Sim:             linkage.OmegaTwo(0),
		SeedThreshold:   0.9,
		AcceptThreshold: 0.5,
		RelWeight:       0.4,
		AgeTolerance:    3,
		Strategies:      block.DefaultStrategies(),
	}
}

// candidate is one record pair with its static attribute similarity.
type candidate struct {
	oldIdx, newIdx int
	attrSim        float64
}

// entry is a heap element; score is the combined score at push time (lazy
// deletion: stale entries are skipped when popped).
type entry struct {
	cand  int // index into candidates
	score float64
}

type entryHeap struct {
	items []entry
	cands []candidate
	oldID []string
	newID []string
}

func (h *entryHeap) Len() int { return len(h.items) }
func (h *entryHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.score != b.score {
		return a.score > b.score
	}
	ca, cb := h.cands[a.cand], h.cands[b.cand]
	if h.oldID[ca.oldIdx] != h.oldID[cb.oldIdx] {
		return h.oldID[ca.oldIdx] < h.oldID[cb.oldIdx]
	}
	return h.newID[ca.newIdx] < h.newID[cb.newIdx]
}
func (h *entryHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *entryHeap) Push(x any)    { h.items = append(h.items, x.(entry)) }
func (h *entryHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// Link runs the collective baseline and returns the 1:1 record mapping.
// Candidate generation observes ctx (see linkage.Candidates).
func Link(ctx context.Context, oldDS, newDS *census.Dataset, cfg Config) ([]linkage.RecordLink, error) {
	oldRecs := oldDS.Records()
	newRecs := newDS.Records()
	oldIdx := make(map[string]int, len(oldRecs))
	newIdx := make(map[string]int, len(newRecs))
	oldIDs := make([]string, len(oldRecs))
	newIDs := make([]string, len(newRecs))
	for i, r := range oldRecs {
		oldIdx[r.ID] = i
		oldIDs[i] = r.ID
	}
	for i, r := range newRecs {
		newIdx[r.ID] = i
		newIDs[i] = r.ID
	}
	age := linkage.MatchConfig{AgeTolerance: cfg.AgeTolerance, YearGap: newDS.Year - oldDS.Year}

	// Candidate generation via blocking, with the age filter. The scan
	// scores through interned value pairs with an early exit at the floor
	// threshold; accepted candidates carry the exact similarity.
	eng := cfg.Sim.Compile(oldRecs, newRecs)
	var cands []candidate
	candIdx := make(map[[2]int]int) // (oldIdx, newIdx) -> candidate index
	byOld := make([][]int, len(oldRecs))
	byNew := make([][]int, len(newRecs))
	_, err := linkage.Candidates(ctx, oldRecs, oldDS.Year, newRecs, newDS.Year, cfg.Strategies,
		func(o, n *census.Record) {
			if !age.AgeConsistent(o, n) {
				return
			}
			oi, ni := oldIdx[o.ID], newIdx[n.ID]
			// Hopeless pairs never become competitive.
			sim, v := eng.AggSimAtLeast(oi, ni, cfg.AcceptThreshold/2)
			if v != compare.Accepted {
				return
			}
			ci := len(cands)
			cands = append(cands, candidate{oldIdx: oi, newIdx: ni, attrSim: sim})
			candIdx[[2]int{oi, ni}] = ci
			byOld[oi] = append(byOld[oi], ci)
			byNew[ni] = append(byNew[ni], ci)
		})
	if err != nil {
		return nil, err
	}

	// Household neighbour lists (indices into the record slices).
	oldNbrs := neighbours(oldDS, oldIdx)
	newNbrs := neighbours(newDS, newIdx)

	matchedOld := make([]int, len(oldRecs)) // newIdx+1, 0 = unmatched
	matchedNew := make([]int, len(newRecs))

	// relScore: fraction of neighbour pairs already matched to each other
	// (Dice over the two neighbourhoods).
	relScore := func(c candidate) float64 {
		on := oldNbrs[c.oldIdx]
		nn := newNbrs[c.newIdx]
		if len(on)+len(nn) == 0 {
			return 0
		}
		matched := 0
		for _, o := range on {
			if m := matchedOld[o]; m != 0 {
				// Is the matched partner a neighbour of the new record?
				for _, n := range nn {
					if n == m-1 {
						matched++
						break
					}
				}
			}
		}
		return 2 * float64(matched) / float64(len(on)+len(nn))
	}
	score := func(c candidate) float64 {
		return (1-cfg.RelWeight)*c.attrSim + cfg.RelWeight*relScore(c)
	}

	h := &entryHeap{cands: cands, oldID: oldIDs, newID: newIDs}
	// Seeds enter the queue with their attribute similarity; all other
	// candidates start at their initial combined score.
	for ci, c := range cands {
		if c.attrSim >= cfg.SeedThreshold {
			h.items = append(h.items, entry{cand: ci, score: score(c)})
		}
	}
	heap.Init(h)

	var links []linkage.RecordLink
	accept := func(ci int) {
		c := cands[ci]
		matchedOld[c.oldIdx] = c.newIdx + 1
		matchedNew[c.newIdx] = c.oldIdx + 1
		links = append(links, linkage.RecordLink{
			Old: oldIDs[c.oldIdx], New: newIDs[c.newIdx], Sim: c.attrSim,
		})
		// Matching this pair can raise the relational score of candidate
		// pairs between the two neighbourhoods: (re-)push them.
		for _, on := range oldNbrs[c.oldIdx] {
			if matchedOld[on] != 0 {
				continue
			}
			for _, nn := range newNbrs[c.newIdx] {
				if matchedNew[nn] != 0 {
					continue
				}
				if nci, ok := candIdx[[2]int{on, nn}]; ok {
					heap.Push(h, entry{cand: nci, score: score(cands[nci])})
				}
			}
		}
	}

	for h.Len() > 0 {
		e := heap.Pop(h).(entry)
		c := cands[e.cand]
		if matchedOld[c.oldIdx] != 0 || matchedNew[c.newIdx] != 0 {
			continue // stale
		}
		// Lazy re-evaluation: the true current score may differ from the
		// pushed one; accept only if it still clears the threshold.
		cur := score(c)
		if cur < cfg.AcceptThreshold && c.attrSim < cfg.SeedThreshold {
			continue
		}
		accept(e.cand)
	}

	sort.Slice(links, func(i, j int) bool {
		if links[i].Old != links[j].Old {
			return links[i].Old < links[j].Old
		}
		return links[i].New < links[j].New
	})
	return links, nil
}

// neighbours returns, per record index, the indices of the other members of
// its household.
func neighbours(d *census.Dataset, idx map[string]int) [][]int {
	out := make([][]int, d.NumRecords())
	for _, h := range d.Households() {
		members := h.MemberIDs
		for _, a := range members {
			ai, ok := idx[a]
			if !ok {
				continue
			}
			for _, b := range members {
				if a == b {
					continue
				}
				if bi, ok := idx[b]; ok {
					out[ai] = append(out[ai], bi)
				}
			}
		}
	}
	return out
}
