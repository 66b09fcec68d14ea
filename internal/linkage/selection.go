package linkage

import (
	"container/heap"
)

// GroupLink is one correspondence in the group mapping M_G (household IDs).
type GroupLink struct {
	Old, New string
}

// RecordLink is one correspondence in the record mapping M_R, with the
// aggregated attribute similarity of the pair.
type RecordLink struct {
	Old, New string
	Sim      float64
}

// subgraphHeap orders subgraphs by descending g_sim; ties break on the
// household IDs so selection is deterministic.
type subgraphHeap []*Subgraph

func (h subgraphHeap) Len() int { return len(h) }
func (h subgraphHeap) Less(i, j int) bool {
	if h[i].GSim != h[j].GSim {
		return h[i].GSim > h[j].GSim
	}
	if h[i].OldGroup != h[j].OldGroup {
		return h[i].OldGroup < h[j].OldGroup
	}
	return h[i].NewGroup < h[j].NewGroup
}
func (h subgraphHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *subgraphHeap) Push(x any)   { *h = append(*h, x.(*Subgraph)) }
func (h *subgraphHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Accepted is one group link chosen by Algorithm 2 together with the
// record links extracted from its subgraph and the subgraph's scores.
type Accepted struct {
	Group   GroupLink
	Records []RecordLink
	GSim    float64
}

// SelectGroupLinks implements Algorithm 2: subgraphs are consumed
// in order of their aggregated similarity; a group pair is accepted only if
// none of its subgraph's records were already linked through another pair
// involving the same household, which both keeps the derived record mapping
// 1:1 and still permits N:M group mappings over disjoint subgroups.
func SelectGroupLinks(subs []*Subgraph) []Accepted {
	pq := make(subgraphHeap, 0, len(subs))
	for _, s := range subs {
		if s != nil && len(s.Vertices) > 0 {
			pq = append(pq, s)
		}
	}
	heap.Init(&pq)

	linkedOld := make(map[string]map[string]bool) // old household -> linked record IDs
	linkedNew := make(map[string]map[string]bool) // new household -> linked record IDs
	var out []Accepted
	for pq.Len() > 0 {
		s := heap.Pop(&pq).(*Subgraph)
		lo := linkedOld[s.OldGroup]
		ln := linkedNew[s.NewGroup]
		conflict := false
		for _, v := range s.Vertices {
			if lo[v.Old.ID] || ln[v.New.ID] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		acc := Accepted{
			Group: GroupLink{Old: s.OldGroup, New: s.NewGroup},
			GSim:  s.GSim,
		}
		if lo == nil {
			lo = make(map[string]bool)
			linkedOld[s.OldGroup] = lo
		}
		if ln == nil {
			ln = make(map[string]bool)
			linkedNew[s.NewGroup] = ln
		}
		for _, v := range s.Vertices {
			lo[v.Old.ID] = true
			ln[v.New.ID] = true
			acc.Records = append(acc.Records, RecordLink{Old: v.Old.ID, New: v.New.ID, Sim: v.Sim})
		}
		out = append(out, acc)
	}
	return out
}
