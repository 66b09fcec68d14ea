// Package graphsim implements the household linkage baseline of Fu,
// Christen and Zhou (PAKDD 2014) that the paper compares against in
// Table 7 (called GraphSim there).
//
// The method first builds a highly selective one-shot 1:1 record mapping
// from attribute similarities alone. On top of that fixed mapping it scores
// each household pair connected by at least one record link with a
// combination of average record similarity and edge (structure) similarity,
// and greedily selects the best household links with a 1:1 constraint on
// households. Because record pairs filtered out by the strict initial 1:1
// mapping can never contribute, the method misses group links when the
// pre-computed record mapping is wrong or incomplete — the recall
// limitation discussed in Section 5.3 of the paper.
package graphsim

import (
	"context"
	"sort"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/hgraph"
	"censuslink/internal/linkage"
)

// Config parameterises the GraphSim baseline.
type Config struct {
	// Sim is the attribute similarity function for the initial record
	// mapping.
	Sim linkage.SimFunc
	// RecordThreshold is the minimum similarity of the initial 1:1 record
	// links (highly selective in the original method).
	RecordThreshold float64
	// GroupThreshold is the minimum combined household similarity.
	GroupThreshold float64
	// RecordWeight weights average record similarity against edge
	// similarity in the household score.
	RecordWeight float64
	// AgeTolerance bounds the edge age-difference deviation.
	AgeTolerance int
	// Strategies is the blocking configuration.
	Strategies []block.Strategy
}

// DefaultConfig mirrors the setup of the original method.
func DefaultConfig() Config {
	return Config{
		Sim:             linkage.OmegaTwo(0),
		RecordThreshold: 0.8,
		GroupThreshold:  0.3,
		RecordWeight:    0.5,
		AgeTolerance:    3,
		Strategies:      block.DefaultStrategies(),
	}
}

// Result holds the baseline's mappings.
type Result struct {
	RecordLinks []linkage.RecordLink
	GroupLinks  []linkage.GroupLink
}

// Link runs the GraphSim baseline. Its record-mapping pass observes ctx
// (see linkage.MatchRemaining).
func Link(ctx context.Context, oldDS, newDS *census.Dataset, cfg Config) (*Result, error) {
	gap := newDS.Year - oldDS.Year
	matchCfg := linkage.MatchConfig{AgeTolerance: cfg.AgeTolerance, YearGap: gap}

	// Step 1: one-shot, highly selective 1:1 record mapping.
	records, err := linkage.MatchRemaining(ctx,
		oldDS.Records(), newDS.Records(), linkage.RemainderOptions{
			Sim:        cfg.Sim.WithDelta(cfg.RecordThreshold),
			OldYear:    oldDS.Year,
			NewYear:    newDS.Year,
			Match:      matchCfg,
			Strategies: cfg.Strategies,
		})
	if err != nil {
		return nil, err
	}

	// Step 2: household similarities over the fixed record mapping.
	oldGraphs := hgraph.BuildAll(oldDS)
	newGraphs := hgraph.BuildAll(newDS)

	type groupCand struct {
		pair  linkage.GroupPair
		links []linkage.RecordLink
		score float64
	}
	byPair := make(map[linkage.GroupPair]*groupCand)
	var order []linkage.GroupPair
	for _, l := range records {
		o, n := oldDS.Record(l.Old), newDS.Record(l.New)
		if o == nil || n == nil {
			continue
		}
		gp := linkage.GroupPair{Old: o.HouseholdID, New: n.HouseholdID}
		gc, ok := byPair[gp]
		if !ok {
			gc = &groupCand{pair: gp}
			byPair[gp] = gc
			order = append(order, gp)
		}
		gc.links = append(gc.links, l)
	}

	for _, gp := range order {
		gc := byPair[gp]
		gOld, gNew := oldGraphs[gp.Old], newGraphs[gp.New]
		// Average record similarity over the shared links.
		simSum := 0.0
		for _, l := range gc.links {
			simSum += l.Sim
		}
		avg := simSum / float64(len(gc.links))
		// Edge similarity: Dice over compatible edges between linked pairs.
		rpSum := 0.0
		for i := 0; i < len(gc.links); i++ {
			for j := i + 1; j < len(gc.links); j++ {
				tOld, dOld, okOld := gOld.EdgeBetween(gc.links[i].Old, gc.links[j].Old)
				tNew, dNew, okNew := gNew.EdgeBetween(gc.links[i].New, gc.links[j].New)
				if !okOld || !okNew || tOld != tNew {
					continue
				}
				if rp, ok := matchCfg.RpSim(dOld, dNew); ok {
					rpSum += rp
				}
			}
		}
		eSim := 0.0
		if total := gOld.NumEdges() + gNew.NumEdges(); total > 0 {
			eSim = 2 * rpSum / float64(total)
		}
		gc.score = cfg.RecordWeight*avg + (1-cfg.RecordWeight)*eSim
	}

	// Greedy 1:1 selection over households by score.
	sort.Slice(order, func(i, j int) bool {
		a, b := byPair[order[i]], byPair[order[j]]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.pair.Old != b.pair.Old {
			return a.pair.Old < b.pair.Old
		}
		return a.pair.New < b.pair.New
	})
	usedOld := make(map[string]bool)
	usedNew := make(map[string]bool)
	res := &Result{RecordLinks: records}
	for _, gp := range order {
		gc := byPair[gp]
		if gc.score < cfg.GroupThreshold || usedOld[gp.Old] || usedNew[gp.New] {
			continue
		}
		usedOld[gp.Old] = true
		usedNew[gp.New] = true
		res.GroupLinks = append(res.GroupLinks, linkage.GroupLink(gp))
	}
	sort.Slice(res.GroupLinks, func(i, j int) bool {
		if res.GroupLinks[i].Old != res.GroupLinks[j].Old {
			return res.GroupLinks[i].Old < res.GroupLinks[j].Old
		}
		return res.GroupLinks[i].New < res.GroupLinks[j].New
	})
	return res, nil
}
