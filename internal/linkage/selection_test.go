package linkage

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"censuslink/internal/census"
)

// mkSub builds a synthetic subgraph for selection tests.
func mkSub(oldHH, newHH string, gsim float64, pairs ...[2]string) *Subgraph {
	s := &Subgraph{OldGroup: oldHH, NewGroup: newHH, GSim: gsim}
	for _, p := range pairs {
		s.Vertices = append(s.Vertices, VertexPair{
			Old: &census.Record{ID: p[0], HouseholdID: oldHH},
			New: &census.Record{ID: p[1], HouseholdID: newHH},
			Sim: 1,
		})
	}
	return s
}

// selectPairs runs Algorithm 2 and flattens the accepted subgraphs into the
// group links and the record links extracted from them.
func selectPairs(subs []*Subgraph) ([]GroupLink, []RecordLink) {
	var groups []GroupLink
	var records []RecordLink
	for _, acc := range SelectGroupLinks(subs) {
		groups = append(groups, acc.Group)
		records = append(records, acc.Records...)
	}
	return groups, records
}

// TestSelectionPrefersHigherGSim: with two candidates for the same records,
// only the higher-scoring group pair survives (the paper's a vs. d case).
func TestSelectionPrefersHigherGSim(t *testing.T) {
	subA := mkSub("ga", "na", 0.59, [2]string{"o1", "n1"}, [2]string{"o2", "n2"})
	subD := mkSub("ga", "nd", 0.37, [2]string{"o1", "m1"}, [2]string{"o2", "m2"})
	groups, records := selectPairs([]*Subgraph{subD, subA})
	if len(groups) != 1 || groups[0] != (GroupLink{Old: "ga", New: "na"}) {
		t.Fatalf("groups = %v", groups)
	}
	if len(records) != 2 {
		t.Fatalf("records = %v", records)
	}
}

// TestSelectionAllowsDisjointNToM: one household splitting into two disjoint
// subgroups yields two group links (N:M mapping).
func TestSelectionAllowsDisjointNToM(t *testing.T) {
	s1 := mkSub("ga", "n1", 0.8, [2]string{"o1", "a1"}, [2]string{"o2", "a2"})
	s2 := mkSub("ga", "n2", 0.6, [2]string{"o3", "b1"}, [2]string{"o4", "b2"})
	groups, records := selectPairs([]*Subgraph{s1, s2})
	if len(groups) != 2 {
		t.Fatalf("disjoint split should produce 2 group links, got %v", groups)
	}
	if len(records) != 4 {
		t.Fatalf("records = %d, want 4", len(records))
	}
}

// TestSelectionRejectsOverlapOnNewSide: two old households cannot claim the
// same new records.
func TestSelectionRejectsOverlapOnNewSide(t *testing.T) {
	s1 := mkSub("g1", "nh", 0.9, [2]string{"o1", "n1"}, [2]string{"o2", "n2"})
	s2 := mkSub("g2", "nh", 0.7, [2]string{"p1", "n1"}) // n1 already taken
	groups, _ := selectPairs([]*Subgraph{s1, s2})
	if len(groups) != 1 || groups[0].Old != "g1" {
		t.Fatalf("groups = %v", groups)
	}
}

// TestSelectionPartialOverlapMerge: a merge (two old households into one new
// household) is accepted when the subgroups are disjoint.
func TestSelectionPartialOverlapMerge(t *testing.T) {
	s1 := mkSub("g1", "nh", 0.9, [2]string{"o1", "n1"}, [2]string{"o2", "n2"})
	s2 := mkSub("g2", "nh", 0.7, [2]string{"p1", "n3"}, [2]string{"p2", "n4"})
	groups, records := selectPairs([]*Subgraph{s1, s2})
	if len(groups) != 2 {
		t.Fatalf("merge should produce 2 group links, got %v", groups)
	}
	if len(records) != 4 {
		t.Fatalf("records = %d, want 4", len(records))
	}
}

// TestSelectionRecordMapping1To1: no record ID appears twice on either side
// of the extracted record links.
func TestSelectionRecordMapping1To1(t *testing.T) {
	subs := []*Subgraph{
		mkSub("g1", "n1", 0.9, [2]string{"o1", "a1"}, [2]string{"o2", "a2"}),
		mkSub("g1", "n2", 0.8, [2]string{"o1", "b1"}),                        // conflicts on o1
		mkSub("g1", "n3", 0.7, [2]string{"o3", "c1"}),                        // disjoint: fine
		mkSub("g2", "n1", 0.6, [2]string{"q1", "a1"}, [2]string{"q2", "a9"}), // conflicts on a1
	}
	groups, records := selectPairs(subs)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	seenOld, seenNew := map[string]bool{}, map[string]bool{}
	for _, r := range records {
		if seenOld[r.Old] || seenNew[r.New] {
			t.Fatalf("duplicate record in mapping: %v", r)
		}
		seenOld[r.Old] = true
		seenNew[r.New] = true
	}
}

// TestSelectionDeterministicTieBreak: equal scores resolve by household ID.
func TestSelectionDeterministicTieBreak(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		s1 := mkSub("g1", "nb", 0.5, [2]string{"o1", "n1"})
		s2 := mkSub("g1", "na", 0.5, [2]string{"o1", "n2"})
		groups, _ := selectPairs([]*Subgraph{s1, s2})
		if len(groups) != 1 || groups[0].New != "na" {
			t.Fatalf("tie break wrong: %v", groups)
		}
	}
}

func TestSelectionEmptyAndNil(t *testing.T) {
	groups, records := selectPairs(nil)
	if groups != nil || records != nil {
		t.Error("empty input should give empty output")
	}
	groups, records = selectPairs([]*Subgraph{nil, {OldGroup: "g", NewGroup: "n"}})
	if len(groups) != 0 || len(records) != 0 {
		t.Error("nil and vertex-less subgraphs should be skipped")
	}
}

// TestSelectionInvariantsProperty: under random subgraph inputs the
// selection must keep records 1:1 and never accept a conflicting subgraph.
func TestSelectionInvariantsProperty(t *testing.T) {
	prop := func(seed int64, nSubs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSubs%24) + 1
		subs := make([]*Subgraph, 0, n)
		for i := 0; i < n; i++ {
			oldHH := fmt.Sprintf("g%d", rng.Intn(6))
			newHH := fmt.Sprintf("n%d", rng.Intn(6))
			s := &Subgraph{OldGroup: oldHH, NewGroup: newHH, GSim: rng.Float64()}
			// Subgraphs are internally 1:1 (MatchGroups guarantees this),
			// so draw vertex pairs without replacement.
			usedOld := map[int]bool{}
			usedNew := map[int]bool{}
			for v := 0; v < 1+rng.Intn(4); v++ {
				oi, ni := rng.Intn(8), rng.Intn(8)
				if usedOld[oi] || usedNew[ni] {
					continue
				}
				usedOld[oi] = true
				usedNew[ni] = true
				s.Vertices = append(s.Vertices, VertexPair{
					Old: &census.Record{ID: fmt.Sprintf("%s_r%d", oldHH, oi), HouseholdID: oldHH},
					New: &census.Record{ID: fmt.Sprintf("%s_r%d", newHH, ni), HouseholdID: newHH},
					Sim: rng.Float64(),
				})
			}
			subs = append(subs, s)
		}
		groups, records := selectPairs(subs)
		seenOld := map[string]bool{}
		seenNew := map[string]bool{}
		for _, l := range records {
			if seenOld[l.Old] || seenNew[l.New] {
				return false
			}
			seenOld[l.Old] = true
			seenNew[l.New] = true
		}
		// Note: the same group pair may legitimately be accepted twice with
		// disjoint subgraphs (Link dedupes M_G); only record 1:1-ness and
		// the group/record consistency are invariants here.
		for _, g := range groups {
			if g.Old == "" || g.New == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
