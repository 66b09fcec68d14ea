package linkage

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"censuslink/internal/census"
	"censuslink/internal/compare"
	"censuslink/internal/hgraph"
	"censuslink/internal/obs"
)

// VertexPair is one vertex of a matched subgraph: a pair of equally
// labelled (similar) records from the old and new group.
type VertexPair struct {
	Old, New *census.Record
	// Sim is agg_sim of the record pair (from pre-matching, or recomputed
	// for pairs linked only transitively).
	Sim float64
}

// SubEdge connects two vertex pairs of a subgraph whose underlying records
// are related by the same unified relationship type with similar age
// differences in both groups. I and J index Subgraph.Vertices.
type SubEdge struct {
	I, J  int
	RpSim float64 // relationship-property similarity in [0,1]
}

// Subgraph is the common subgraph of one candidate group pair together with
// its selection scores (Section 3.4).
type Subgraph struct {
	OldGroup, NewGroup string
	Vertices           []VertexPair
	Edges              []SubEdge

	AvgSim float64 // average record similarity (Eq. 5)
	ESim   float64 // Dice-style edge similarity (Eq. 6)
	Unique float64 // uniqueness of the involved cluster labels (Eq. 7)
	GSim   float64 // aggregated similarity (Eq. 4)
}

// MatchConfig bundles the parameters of subgraph matching and group scoring.
type MatchConfig struct {
	// AgeTolerance τ is the maximum acceptable deviation, in years, both
	// between the age differences of corresponding edges and between a
	// record pair's age gap and the census interval (paper footnote 2).
	AgeTolerance int
	// YearGap is the interval between the two censuses (newYear - oldYear).
	YearGap int
	// Alpha and Beta weight avg_sim and e_sim in g_sim (Eq. 4); the
	// uniqueness weight is 1 - Alpha - Beta.
	Alpha, Beta float64
	// DirectVerticesOnly restricts subgraph vertices to directly compared
	// record pairs above δ. The paper's definition admits every equally
	// labelled pair (the transitive closure of the match relation), which
	// is the default; the restriction is a stricter ablation variant.
	DirectVerticesOnly bool
}

// RpSim converts the deviation between two corresponding edges' age
// differences into the relationship-property similarity: 1 for exact
// agreement, decaying linearly; ok is false beyond tolerance.
func (c MatchConfig) RpSim(dOld, dNew int) (sim float64, ok bool) {
	dev := dOld - dNew
	if dev < 0 {
		dev = -dev
	}
	if dev > c.AgeTolerance {
		return 0, false
	}
	return 1 - float64(dev)/float64(c.AgeTolerance+1), true
}

// AgeConsistent reports whether a record pair's ages are consistent with the
// census interval (paper footnote 2): the person must have aged by YearGap
// ± AgeTolerance years. Missing ages pass (no evidence against the pair).
func (c MatchConfig) AgeConsistent(o, n *census.Record) bool {
	return c.agesFit(o.Age, n.Age)
}

// agesFit is AgeConsistent on the two records' ages.
func (c MatchConfig) agesFit(oldAge, newAge int) bool {
	if oldAge == census.AgeMissing || newAge == census.AgeMissing {
		return true
	}
	dev := (newAge - oldAge) - c.YearGap
	if dev < 0 {
		dev = -dev
	}
	return dev <= c.AgeTolerance
}

// GroupMatcher is the subgraph stage's view of one pre-matching pass
// (Section 3.3), keyed by dataset position: the cluster label of every
// record and the label sizes of the uniqueness score, read directly from
// the position-keyed PreMatchResult, whose sorted links give the directly
// compared pairs with their similarities, plus the compiled engine that
// scores pairs linked only transitively. It is built once per δ-iteration
// in O(1), allocates nothing, and is read-only afterwards, so the stage's
// workers share it.
type GroupMatcher struct {
	eng *compare.Engine
	cfg MatchConfig
	// oldLabel[i] and newLabel[j] are the cluster labels of old record i and
	// new record j, or -1 for a record outside the pre-matching input.
	oldLabel, newLabel []int32
	// labelSize[l] is |label l| (Eq. 7).
	labelSize []int32
	// links are the pass's directly compared pairs above δ, sorted by old
	// and then new position (PreMatchResult.Links).
	links []CandidateLink
}

// NewGroupMatcher builds the position view of a pre-matching pass. The
// engine must be compiled over the full record lists of the two datasets
// the household graphs were built from, so that its positions are the
// graphs' member positions (hgraph.Graph.Positions), and pre must have been
// computed over the same lists. Pairs linked only transitively are scored
// through it, bit-for-bit equal to SimFunc.AggSim.
func NewGroupMatcher(pre *PreMatchResult, eng *compare.Engine, cfg MatchConfig) *GroupMatcher {
	if len(pre.OldLabels) != len(eng.Old.Recs) || len(pre.NewLabels) != len(eng.New.Recs) {
		panic(fmt.Sprintf("linkage: pre-matching over %d+%d records, engine over %d+%d",
			len(pre.OldLabels), len(pre.NewLabels), len(eng.Old.Recs), len(eng.New.Recs)))
	}
	return &GroupMatcher{
		eng:       eng,
		cfg:       cfg,
		oldLabel:  pre.OldLabels,
		newLabel:  pre.NewLabels,
		labelSize: pre.LabelSize,
		links:     pre.Links,
	}
}

// directSim returns the pre-matching similarity of the pair at old
// position oi and new position ni, and whether the pass linked it
// directly, by binary search over the sorted links.
func (m *GroupMatcher) directSim(oi, ni int32) (float64, bool) {
	k, found := slices.BinarySearchFunc(m.links, CandidateLink{Old: oi, New: ni}, func(a, b CandidateLink) int {
		if c := cmp.Compare(a.Old, b.Old); c != 0 {
			return c
		}
		return cmp.Compare(a.New, b.New)
	})
	if !found {
		return 0, false
	}
	return m.links[k].Sim, true
}

// vertexCand is a candidate vertex: member positions i in the old graph and
// j in the new graph, its edge support (the number of other candidates it
// shares a compatible edge with) and the record pair's similarity.
type vertexCand struct {
	i, j    int
	support int
	sim     float64
}

// MatchGroups computes the common subgraph of one group pair (Section 3.3)
// and its selection scores. It returns nil when the groups share no
// structurally supported subgraph (fewer than two label-sharing,
// age-consistent member pairs, or no compatible edge).
//
// Vertex candidates are the record pairs with equal cluster labels that are
// age-consistent with the census interval. Because one label can admit
// conflicting pairs (duplicate names inside a household), a 1:1 assignment
// is chosen greedily by (edge support, record similarity). Vertices left
// without any compatible edge are dropped, following the reduction shown in
// Fig. 4 of the paper. Edge support is counted before any similarity is
// looked up or scored, and only candidates with support are scored.
func (m *GroupMatcher) MatchGroups(gOld, gNew *hgraph.Graph) *Subgraph {
	sub, _ := m.match(gOld, m.labelled(gOld, nil), gNew, &matchScratch{})
	return sub
}

// labelledOld is a member of an old group that carries a cluster label in
// the pass: its member index, label and age.
type labelledOld struct {
	i, label int32
	age      int
}

// labelled appends to dst the members of gOld that carry a label in the
// pass.
func (m *GroupMatcher) labelled(gOld *hgraph.Graph, dst []labelledOld) []labelledOld {
	members := gOld.Members()
	for i, p := range gOld.Positions() {
		if l := m.oldLabel[p]; l >= 0 {
			dst = append(dst, labelledOld{i: int32(i), label: l, age: members[i].Age})
		}
	}
	return dst
}

// matchScratch holds the per-pair buffers of the matcher, which one chunk
// of the subgraph stage reuses for all its group pairs.
type matchScratch struct {
	cands, chosen []vertexCand
	degree        []int
	edges         []SubEdge
}

// match is MatchGroups through the buffers of s, given olds, the
// labelled members of gOld (labelled), which the pairs of one old group
// share. candidate reports whether the group pair passed the first test,
// at least two label-sharing, age-consistent member pairs
// (obs.SubgraphCandidates); a pair that fails it allocates nothing once s
// has grown.
func (m *GroupMatcher) match(gOld *hgraph.Graph, olds []labelledOld, gNew *hgraph.Graph, s *matchScratch) (sub *Subgraph, candidate bool) {
	oldMembers, newMembers := gOld.Members(), gNew.Members()
	oldPos, newPos := gOld.Positions(), gNew.Positions()

	// Member pairs that share a cluster label and fit the age window. A
	// directly compared pair always shares a label, because pre-matching
	// clusters the transitive closure of its links, so every vertex
	// candidate is among these. With fewer than two the group pair has no
	// subgraph, and nothing is scored.
	cands := s.cands[:0]
	for j, p := range newPos {
		ln := m.newLabel[p]
		if ln < 0 {
			continue
		}
		for _, o := range olds {
			if o.label == ln && m.cfg.agesFit(o.age, newMembers[j].Age) {
				cands = append(cands, vertexCand{i: int(o.i), j: j})
			}
		}
	}
	s.cands = cands
	if len(cands) < 2 {
		return nil, false
	}
	// Under DirectVerticesOnly only directly compared pairs are candidates,
	// so their pre-matching similarities are looked up before edge support.
	if m.cfg.DirectVerticesOnly {
		kept := cands[:0]
		for _, c := range cands {
			if sim, direct := m.directSim(oldPos[c.i], newPos[c.j]); direct {
				c.sim = sim
				kept = append(kept, c)
			}
		}
		cands = kept
		if len(cands) < 2 {
			return nil, true
		}
	}

	// Edge compatibility between candidate vertex pairs.
	compatible := func(a, b vertexCand) (float64, bool) {
		if oldPos[a.i] == oldPos[b.i] || newPos[a.j] == newPos[b.j] {
			return 0, false
		}
		tOld, dOld, okOld := gOld.EdgeAt(a.i, b.i)
		tNew, dNew, okNew := gNew.EdgeAt(a.j, b.j)
		if !okOld || !okNew || tOld != tNew {
			return 0, false
		}
		return m.cfg.RpSim(dOld, dNew)
	}
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if _, ok := compatible(cands[i], cands[j]); ok {
				cands[i].support++
				cands[j].support++
			}
		}
	}

	// A candidate without edge support would sort after every supported
	// one below, and the Fig. 4 reduction drops it whether it is chosen or
	// not, so it is dropped before scoring. Support is symmetric, so either
	// no candidate or at least two remain. Directly compared pairs carry
	// their pre-matching similarity; pairs linked only transitively are
	// scored through the engine.
	kept := cands[:0]
	for _, c := range cands {
		if c.support == 0 {
			continue
		}
		if !m.cfg.DirectVerticesOnly {
			sim, direct := m.directSim(oldPos[c.i], newPos[c.j])
			if !direct {
				sim = m.eng.AggSim(int(oldPos[c.i]), int(newPos[c.j]))
			}
			c.sim = sim
		}
		kept = append(kept, c)
	}
	cands = kept
	if len(cands) == 0 {
		return nil, true
	}

	// Greedy 1:1 assignment: highest edge support first, then similarity,
	// then IDs for determinism.
	slices.SortFunc(cands, func(a, b vertexCand) int {
		if a.support != b.support {
			return b.support - a.support
		}
		if a.sim != b.sim {
			if a.sim > b.sim {
				return -1
			}
			return 1
		}
		if c := strings.Compare(oldMembers[a.i].ID, oldMembers[b.i].ID); c != 0 {
			return c
		}
		return strings.Compare(newMembers[a.j].ID, newMembers[b.j].ID)
	})
	chosen := s.chosen[:0]
	for _, c := range cands {
		if !slices.ContainsFunc(chosen, func(d vertexCand) bool { return d.i == c.i || d.j == c.j }) {
			chosen = append(chosen, c)
		}
	}
	s.chosen = chosen
	// Restore member order for deterministic output.
	slices.SortFunc(chosen, func(a, b vertexCand) int {
		return strings.Compare(oldMembers[a.i].ID, oldMembers[b.i].ID)
	})

	// Final edges among the chosen vertices.
	edges := s.edges[:0]
	degree := append(s.degree[:0], make([]int, len(chosen))...)
	s.degree = degree
	for i := 0; i < len(chosen); i++ {
		for j := i + 1; j < len(chosen); j++ {
			if rp, ok := compatible(chosen[i], chosen[j]); ok {
				edges = append(edges, SubEdge{I: i, J: j, RpSim: rp})
				degree[i]++
				degree[j]++
			}
		}
	}
	s.edges = edges
	if len(edges) == 0 {
		return nil, true
	}

	// Drop vertices without edge support (Fig. 4 reduction) and remap
	// edges; degree[i] becomes chosen vertex i's index among the vertices.
	var vertices []VertexPair
	labelSum := 0
	for i, c := range chosen {
		if degree[i] == 0 {
			continue
		}
		degree[i] = len(vertices)
		vertices = append(vertices, VertexPair{Old: oldMembers[c.i], New: newMembers[c.j], Sim: c.sim})
		labelSum += int(m.labelSize[m.oldLabel[oldPos[c.i]]])
	}
	edges = slices.Clone(edges)
	for i := range edges {
		edges[i].I = degree[edges[i].I]
		edges[i].J = degree[edges[i].J]
	}

	sub = &Subgraph{
		OldGroup: gOld.HouseholdID,
		NewGroup: gNew.HouseholdID,
		Vertices: vertices,
		Edges:    edges,
	}
	sub.score(gOld, gNew, labelSum, m.cfg)
	return sub, true
}

// score fills in avg_sim (Eq. 5), e_sim (Eq. 6), unique (Eq. 7) and the
// aggregated g_sim (Eq. 4). labelSum is Σ|label(v)| over the vertices'
// old-side records.
func (s *Subgraph) score(gOld, gNew *hgraph.Graph, labelSum int, cfg MatchConfig) {
	simSum := 0.0
	for _, v := range s.Vertices {
		simSum += v.Sim
	}
	s.AvgSim = simSum / float64(len(s.Vertices))

	rpSum := 0.0
	for _, e := range s.Edges {
		rpSum += e.RpSim
	}
	if total := gOld.NumEdges() + gNew.NumEdges(); total > 0 {
		s.ESim = 2 * rpSum / float64(total)
	}

	if labelSum > 0 {
		s.Unique = 2 * float64(len(s.Vertices)) / float64(labelSum)
	}
	s.GSim = cfg.Alpha*s.AvgSim + cfg.Beta*s.ESim + (1-cfg.Alpha-cfg.Beta)*s.Unique
}

// GroupPair identifies a candidate household pair by household IDs.
type GroupPair struct {
	Old, New string
}

// groupStage is the subgraph_match stage's state, reused across δ.
type groupStage struct {
	// linkStart[p]:linkStart[p+1] index the pass's links of old position p
	// in GroupMatcher.links, which are sorted by old position.
	linkStart []int32
	// chunks[ci] is chunk ci's output and scratch.
	chunks []groupChunk
}

// groupChunk is one chunk of old households' share of the stage: its
// subgraphs and pair counts, the group pair it is matching (hn < 0
// between pairs), the new-household list of one old household and the
// matcher's buffers.
type groupChunk struct {
	subs               []*Subgraph
	linked, candidates int
	ho, hn             int32
	hns                []int32
	olds               []labelledOld
	scratch            matchScratch
}

// run matches the group pairs of one pre-matching pass (Section 3.3) on
// the chunk pool, in chunks of old households: for each old household it
// collects the new households its records are directly linked to and
// matches each pair with gm. The subgraphs come out in ascending (old,
// new) household-number order. linked counts the distinct group pairs the
// pass's links connect, and candidates those that passed the matcher's
// first test. gm's pass must have been computed over the full record
// lists indexed by oldHH and newHH. Each chunk observes ctx every
// cancelCheckEvery households. A failure inside a pair's match names the
// pair in PipelineError.Group; under PanicSkip a failed chunk's group
// pairs contribute no subgraph and no count.
func (gs *groupStage) run(ctx context.Context, delta float64, gm *GroupMatcher, oldHH, newHH *householdIndex,
	workers int, policy PanicPolicy, st *obs.Stats) (subs []*Subgraph, linked, candidates int, err error) {
	links := gm.links
	gs.linkStart = slices.Grow(gs.linkStart[:0], len(gm.oldLabel)+1)
	k := 0
	for p := range len(gm.oldLabel) + 1 {
		for k < len(links) && int(links[k].Old) < p {
			k++
		}
		gs.linkStart = append(gs.linkStart, int32(k))
	}

	// Four chunks per worker even out the households' uneven link counts.
	n := len(oldHH.ids)
	size := perWorker(n, 4*poolSize(workers))
	chunks := chunkCount(n, size)
	for len(gs.chunks) < chunks {
		gs.chunks = append(gs.chunks, groupChunk{})
	}
	for ci := range gs.chunks[:chunks] {
		gs.chunks[ci].hn = -1
	}
	skipped, err := runChunks(ctx, "subgraph_match", delta, n, size, workers, policy, st,
		func(ci, lo, hi int) error {
			c := &gs.chunks[ci]
			c.subs, c.linked, c.candidates = c.subs[:0], 0, 0
			for ho := int32(lo); ho < int32(hi); ho++ {
				if (int(ho)-lo)%cancelCheckEvery == 0 {
					if err := ctx.Err(); err != nil {
						return cancelErr("subgraph_match", delta, err)
					}
				}
				gOld := oldHH.graphs[ho]
				hns := c.hns[:0]
				for _, p := range gOld.Positions() {
					for _, l := range links[gs.linkStart[p]:gs.linkStart[p+1]] {
						// A record's links ascend by new position, so its
						// links into one household are mostly adjacent.
						if hn := newHH.of[l.New]; len(hns) == 0 || hns[len(hns)-1] != hn {
							hns = append(hns, hn)
						}
					}
				}
				slices.Sort(hns)
				hns = slices.Compact(hns)
				c.hns = hns
				c.linked += len(hns)
				c.olds = gm.labelled(gOld, c.olds[:0])
				for _, hn := range hns {
					c.ho, c.hn = ho, hn
					sub, candidate := gm.match(gOld, c.olds, newHH.graphs[hn], &c.scratch)
					if candidate {
						c.candidates++
					}
					if sub != nil {
						c.subs = append(c.subs, sub)
					}
				}
				c.hn = -1
			}
			return nil
		})
	if err != nil {
		if pe, ok := err.(*PipelineError); ok && pe.Chunk >= 0 {
			if c := &gs.chunks[pe.Chunk]; c.hn >= 0 {
				pe.Group, pe.Chunk = GroupPair{Old: oldHH.ids[c.ho], New: newHH.ids[c.hn]}, -1
			}
		}
		return nil, 0, 0, err
	}
	for ci := range gs.chunks[:chunks] {
		if !skipped[ci] {
			c := &gs.chunks[ci]
			subs = append(subs, c.subs...)
			linked += c.linked
			candidates += c.candidates
		}
	}
	return subs, linked, candidates, nil
}

// householdIndex numbers the households of one dataset in order of first
// appearance and maps every record position to its household's number.
type householdIndex struct {
	of     []int32         // of[i] is the household number of record i
	ids    []string        // ids[h] is household h's ID
	graphs []*hgraph.Graph // graphs[h] is household h's graph
}

// newHouseholdIndex indexes the households of ds by record position, with
// their graphs from graphs (keyed by household ID).
func newHouseholdIndex(ds *census.Dataset, graphs map[string]*hgraph.Graph) householdIndex {
	recs := ds.Records()
	hx := householdIndex{of: make([]int32, len(recs))}
	num := make(map[string]int32, ds.NumHouseholds())
	for i, r := range recs {
		h, ok := num[r.HouseholdID]
		if !ok {
			h = int32(len(hx.ids))
			num[r.HouseholdID] = h
			hx.ids = append(hx.ids, r.HouseholdID)
			hx.graphs = append(hx.graphs, graphs[r.HouseholdID])
		}
		hx.of[i] = h
	}
	return hx
}
