package evolution

import (
	"context"
	"fmt"
	"sort"

	"censuslink/internal/census"
	"censuslink/internal/cluster"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
)

// GroupVertex identifies a household at one census year.
type GroupVertex struct {
	Year      int
	Household string
}

// GroupEdge is a typed group-evolution edge between two successive censuses.
type GroupEdge struct {
	From, To GroupVertex
	Pattern  GroupPattern // PatternPreserve, PatternMove, PatternSplit or PatternMerge
}

// Graph is the evolution graph of Section 4.2: households (and records) of
// every census are vertices, connected across successive censuses by typed
// evolution-pattern edges.
type Graph struct {
	Years []int
	// Analyses holds the per-pair pattern analysis, in year order.
	Analyses []*PairAnalysis
	// GroupEdges holds the typed household edges of all pairs.
	GroupEdges []GroupEdge
	// RecordEdges holds the record links of all pairs (gray dotted lines in
	// Fig. 5), keyed by the index of the census pair.
	RecordEdges [][]linkage.Pair

	// preserveNext maps a household vertex to its preserve_G successor
	// (unique because preserve_G links are 1:1).
	preserveNext map[GroupVertex]GroupVertex
	// households per year, for chain queries.
	households map[int][]string
}

// BuildGraph assembles the evolution graph for a series of censuses from
// the per-pair linkage results (results[i] links Datasets[i] to
// Datasets[i+1]).
func BuildGraph(series *census.Series, results []*linkage.Result) (*Graph, error) {
	return BuildGraphContext(context.Background(), series, results, nil)
}

// BuildGraphContext is BuildGraph with observability and cooperative
// cancellation. The assembly is timed as the "evolution_build" stage and the
// graph size lands on the collector's run totals (a nil collector reports
// nothing). The context is observed between census pairs, so a deadline or
// SIGINT aborts the assembly of a long series promptly with an error
// wrapping ctx.Err().
func BuildGraphContext(ctx context.Context, series *census.Series, results []*linkage.Result, st *obs.Stats) (*Graph, error) {
	defer st.Stage("evolution_build")()
	g, err := buildGraph(ctx, series, results)
	if err == nil {
		vertices := 0
		for _, ids := range g.households {
			vertices += len(ids)
		}
		st.Add(obs.EvolutionVertices, vertices)
		st.Add(obs.EvolutionEdges, len(g.GroupEdges))
	}
	return g, err
}

func buildGraph(ctx context.Context, series *census.Series, results []*linkage.Result) (*Graph, error) {
	if len(results) != len(series.Datasets)-1 {
		return nil, fmt.Errorf("evolution: %d results for %d datasets", len(results), len(series.Datasets))
	}
	g := &Graph{
		Years:        series.Years(),
		preserveNext: make(map[GroupVertex]GroupVertex),
		households:   make(map[int][]string),
	}
	for _, d := range series.Datasets {
		ids := make([]string, 0, d.NumHouseholds())
		for _, h := range d.Households() {
			ids = append(ids, h.ID)
		}
		g.households[d.Year] = ids
	}
	for i, res := range results {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("evolution: pair %d-%d: %w",
				series.Datasets[i].Year, series.Datasets[i+1].Year, err)
		}
		g.appendPair(series.Datasets[i], series.Datasets[i+1], res)
	}
	return g, nil
}

// appendPair analyzes one census pair and appends its analysis, record edges
// and typed group edges to the graph. It is shared by the from-scratch build
// and AppendYear, so the incremental path is equal to a rebuild by
// construction.
func (g *Graph) appendPair(old, new *census.Dataset, res *linkage.Result) {
	a := Analyze(old, new, res)
	g.Analyses = append(g.Analyses, a)
	g.RecordEdges = append(g.RecordEdges, a.PreservedRecords)

	addEdge := func(oldID, newID string, p GroupPattern) {
		g.GroupEdges = append(g.GroupEdges, GroupEdge{
			From:    GroupVertex{Year: old.Year, Household: oldID},
			To:      GroupVertex{Year: new.Year, Household: newID},
			Pattern: p,
		})
	}
	for _, pr := range a.PreservedGroups {
		addEdge(pr[0], pr[1], PatternPreserve)
		g.preserveNext[GroupVertex{Year: old.Year, Household: pr[0]}] =
			GroupVertex{Year: new.Year, Household: pr[1]}
	}
	for _, mv := range a.Moves {
		addEdge(mv[0], mv[1], PatternMove)
	}
	for _, sp := range a.Splits {
		for _, part := range sp.News {
			addEdge(sp.Old, part, PatternSplit)
		}
	}
	for _, mg := range a.Merges {
		for _, part := range mg.Olds {
			addEdge(part, mg.New, PatternMerge)
		}
	}
}

// AppendYear extends the graph in place with one newly arrived census:
// last must be the dataset of the graph's current final year, next the new
// dataset, and res their pair linkage (for example from linkage.LinkAppend).
// Only the new pair is analyzed — the work is O(new pair), independent of
// how many decades the graph already covers — and the resulting graph is
// deep-equal to a from-scratch BuildGraph over the extended series (the
// differential test in incremental_test.go holds this equality across
// multiple appended years).
//
// AppendYear mutates g; callers serving concurrent readers should extend a
// Clone and swap it in.
func (g *Graph) AppendYear(last, next *census.Dataset, res *linkage.Result) error {
	if len(g.Years) == 0 {
		return fmt.Errorf("evolution: append to empty graph")
	}
	if lastYear := g.Years[len(g.Years)-1]; last.Year != lastYear {
		return fmt.Errorf("evolution: append pair starts at %d, graph ends at %d", last.Year, lastYear)
	}
	if next.Year <= last.Year {
		return fmt.Errorf("evolution: appended year %d not after %d", next.Year, last.Year)
	}
	ids := make([]string, 0, next.NumHouseholds())
	for _, h := range next.Households() {
		ids = append(ids, h.ID)
	}
	g.Years = append(g.Years, next.Year)
	g.households[next.Year] = ids
	g.appendPair(last, next, res)
	return nil
}

// Clone returns a copy of the graph that can be extended with AppendYear
// without mutating g: the slices and maps AppendYear grows are copied, while
// the immutable leaves (per-pair analyses, record-link slices, household ID
// lists) are shared. Readers of g are unaffected by any operation on the
// clone, so a server can keep serving one graph while building its
// successor.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Years:        append([]int(nil), g.Years...),
		Analyses:     append([]*PairAnalysis(nil), g.Analyses...),
		GroupEdges:   append([]GroupEdge(nil), g.GroupEdges...),
		RecordEdges:  append([][]linkage.Pair(nil), g.RecordEdges...),
		preserveNext: make(map[GroupVertex]GroupVertex, len(g.preserveNext)),
		households:   make(map[int][]string, len(g.households)),
	}
	for k, v := range g.preserveNext {
		c.preserveNext[k] = v
	}
	for k, v := range g.households {
		c.households[k] = v
	}
	return c
}

// key renders a group vertex as a string for the union-find structure.
func (v GroupVertex) key() string { return fmt.Sprintf("%d|%s", v.Year, v.Household) }

// ConnectedComponents returns the sizes of the connected components over
// all household vertices (connected by any group-pattern edge), sorted
// descending. Isolated households count as components of size 1.
func (g *Graph) ConnectedComponents() []int {
	uf := cluster.NewUnionFind()
	for year, ids := range g.households {
		for _, id := range ids {
			uf.Add(GroupVertex{Year: year, Household: id}.key())
		}
	}
	for _, e := range g.GroupEdges {
		uf.Union(e.From.key(), e.To.key())
	}
	comps := uf.Components()
	sizes := make([]int, len(comps))
	for i, c := range comps {
		sizes[i] = len(c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// LargestComponentShare returns the size of the largest connected component
// and its share of all household vertices (the paper reports 17,150
// households, about 52%, for 1851-1901).
func (g *Graph) LargestComponentShare() (size int, share float64) {
	sizes := g.ConnectedComponents()
	if len(sizes) == 0 {
		return 0, 0
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	return sizes[0], float64(sizes[0]) / float64(total)
}

// PreserveChains counts households preserved over the given number of
// consecutive census intervals: the Table 8 query. intervals=1 counts all
// preserve_G patterns; intervals=5 counts households preserved from the
// first to the last census.
func (g *Graph) PreserveChains(intervals int) int {
	if intervals < 1 {
		return 0
	}
	count := 0
	for yi := 0; yi+intervals < len(g.Years); yi++ {
		year := g.Years[yi]
		for _, id := range g.households[year] {
			v := GroupVertex{Year: year, Household: id}
			ok := true
			for step := 0; step < intervals; step++ {
				next, exists := g.preserveNext[v]
				if !exists {
					ok = false
					break
				}
				v = next
			}
			if ok {
				count++
			}
		}
	}
	return count
}

// PatternCounts returns, for each census pair, the count of every group
// pattern (the data behind Fig. 6 of the paper).
func (g *Graph) PatternCounts() []map[GroupPattern]int {
	out := make([]map[GroupPattern]int, len(g.Analyses))
	for i, a := range g.Analyses {
		out[i] = map[GroupPattern]int{
			PatternPreserve: a.Count(PatternPreserve),
			PatternAdd:      a.Count(PatternAdd),
			PatternRemove:   a.Count(PatternRemove),
			PatternMove:     a.Count(PatternMove),
			PatternSplit:    a.Count(PatternSplit),
			PatternMerge:    a.Count(PatternMerge),
		}
	}
	return out
}
