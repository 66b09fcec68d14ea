package evolution

import (
	"context"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/paperexample"
)

// exampleResult packs the running example's true mappings into a linkage
// result (the paper's Section 2: seven record links, four group links).
func exampleResult() *linkage.Result {
	res := &linkage.Result{}
	for o, n := range paperexample.TrueRecordMapping() {
		res.RecordLinks = append(res.RecordLinks, linkage.RecordLink{Old: o, New: n, Sim: 1})
	}
	for _, g := range paperexample.TrueGroupMapping() {
		res.GroupLinks = append(res.GroupLinks, linkage.GroupLink{Old: g[0], New: g[1]})
	}
	return res
}

// TestAnalyzeRunningExample reproduces Fig. 5(a): 7 preserved records, 4
// additions, 1 removal; 2 preserved households, 2 moves. Following the
// formal definitions of Section 4.1 (rather than the figure's informal
// caption), household d is the only add_G: household c is linked by the two
// move links, so the group mapping contains links with it.
func TestAnalyzeRunningExample(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	a := Analyze(old, new, exampleResult())

	if len(a.PreservedRecords) != 7 {
		t.Errorf("preserve_R = %d, want 7", len(a.PreservedRecords))
	}
	if len(a.AddedRecords) != 4 {
		t.Errorf("add_R = %v, want 4 (Mary and household d)", a.AddedRecords)
	}
	if len(a.RemovedRecords) != 1 || a.RemovedRecords[0] != "1871_5" {
		t.Errorf("remove_R = %v, want [1871_5] (John Riley)", a.RemovedRecords)
	}

	if len(a.PreservedGroups) != 2 {
		t.Errorf("preserve_G = %v, want 2", a.PreservedGroups)
	}
	wantPreserve := map[[2]string]bool{
		{"1871_a", "1881_a"}: true,
		{"1871_b", "1881_b"}: true,
	}
	for _, p := range a.PreservedGroups {
		if !wantPreserve[p] {
			t.Errorf("unexpected preserve_G %v", p)
		}
	}
	if len(a.Moves) != 2 {
		t.Errorf("move = %v, want 2 (Alice and Steve into household c)", a.Moves)
	}
	if len(a.AddedGroups) != 1 || a.AddedGroups[0] != "1881_d" {
		t.Errorf("add_G = %v, want [1881_d]", a.AddedGroups)
	}
	if len(a.RemovedGroups) != 0 {
		t.Errorf("remove_G = %v, want none", a.RemovedGroups)
	}
	if len(a.Splits) != 0 || len(a.Merges) != 0 {
		t.Errorf("splits=%v merges=%v, want none", a.Splits, a.Merges)
	}
}

// TestAnalyzeUnclassifiedLinks: a group link whose households share no
// linked record members (possible for ground-truth mappings packed into a
// linkage.Result) fits no pattern definition; it must surface on
// UnclassifiedLinks rather than vanish from every class.
func TestAnalyzeUnclassifiedLinks(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	res := exampleResult()
	// A memberless claim: no record link connects household b to d.
	res.GroupLinks = append(res.GroupLinks, linkage.GroupLink{Old: "1871_b", New: "1881_d"})
	a := Analyze(old, new, res)

	if len(a.UnclassifiedLinks) != 1 || a.UnclassifiedLinks[0] != [2]string{"1871_b", "1881_d"} {
		t.Fatalf("unclassified = %v, want [[1871_b 1881_d]]", a.UnclassifiedLinks)
	}
	// The link must not leak into any other pattern class...
	for _, m := range a.Moves {
		if m == [2]string{"1871_b", "1881_d"} {
			t.Error("memberless link classified as move")
		}
	}
	// ...and the linked households must not count as added/removed.
	for _, id := range a.AddedGroups {
		if id == "1881_d" {
			t.Error("1881_d is linked, must not be add_G")
		}
	}
	// The running example's own patterns are unchanged.
	if len(a.PreservedGroups) != 2 || len(a.Moves) != 2 {
		t.Errorf("preserve_G=%v move=%v, want 2 and 2", a.PreservedGroups, a.Moves)
	}
	// The iterative pipeline itself never produces memberless links.
	realRes, err := linkage.LinkContext(context.Background(), old, new, linkage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := Analyze(old, new, realRes); len(got.UnclassifiedLinks) != 0 {
		t.Errorf("pipeline result has unclassified links: %v", got.UnclassifiedLinks)
	}
}

// TestAnalyzeSplit: one household splitting into two, each part keeping two
// or more members.
func TestAnalyzeSplit(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	res := &linkage.Result{
		RecordLinks: []linkage.RecordLink{
			// Household a of 1871 splits: parents into a, two children into c.
			{Old: "1871_1", New: "1881_1"},
			{Old: "1871_2", New: "1881_2"},
			{Old: "1871_3", New: "1881_7"},
			{Old: "1871_4", New: "1881_8"},
		},
		GroupLinks: []linkage.GroupLink{
			{Old: "1871_a", New: "1881_a"},
			{Old: "1871_a", New: "1881_c"},
		},
	}
	a := Analyze(old, new, res)
	if len(a.Splits) != 1 {
		t.Fatalf("splits = %v, want 1", a.Splits)
	}
	sp := a.Splits[0]
	if sp.Old != "1871_a" || len(sp.News) != 2 {
		t.Errorf("split = %+v", sp)
	}
	// Neither pair is preserve_G (the old group is linked twice) nor move
	// (both pairs share two members).
	if len(a.PreservedGroups) != 0 || len(a.Moves) != 0 {
		t.Errorf("preserve=%v moves=%v, want none", a.PreservedGroups, a.Moves)
	}
}

// TestAnalyzeMerge: two old households merging into one new household,
// each contributing at least two members.
func TestAnalyzeMerge(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	// Add a fourth member to household c so that both old households can
	// contribute two members each.
	if err := new.AddRecord(&census.Record{
		ID: "1881_12", HouseholdID: "1881_c", FirstName: "ann", Surname: "smith",
		Sex: census.SexFemale, Age: 3, Role: census.RoleDaughter,
	}); err != nil {
		t.Fatal(err)
	}

	// One member from household b only: no merge.
	res := &linkage.Result{
		RecordLinks: []linkage.RecordLink{
			{Old: "1871_1", New: "1881_6"}, // a -> c
			{Old: "1871_2", New: "1881_7"}, // a -> c
			{Old: "1871_6", New: "1881_8"}, // b -> c
		},
		GroupLinks: []linkage.GroupLink{
			{Old: "1871_a", New: "1881_c"},
			{Old: "1871_b", New: "1881_c"},
		},
	}
	a := Analyze(old, new, res)
	if len(a.Merges) != 0 {
		t.Fatalf("merge with single-member contribution accepted: %v", a.Merges)
	}

	// Two members from each: a merge.
	res.RecordLinks = append(res.RecordLinks,
		linkage.RecordLink{Old: "1871_7", New: "1881_12"}) // b -> c
	a = Analyze(old, new, res)
	if len(a.Merges) != 1 {
		t.Fatalf("merges = %v, want 1", a.Merges)
	}
	mg := a.Merges[0]
	if mg.New != "1881_c" || len(mg.Olds) != 2 {
		t.Errorf("merge = %+v", mg)
	}
	// The merge pairs are not preserve_G: household c is linked twice.
	if len(a.PreservedGroups) != 0 {
		t.Errorf("preserve_G = %v, want none", a.PreservedGroups)
	}
}

// TestAnalyzeEmptyMappings: with no links everything is added/removed.
func TestAnalyzeEmptyMappings(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	a := Analyze(old, new, &linkage.Result{})
	if len(a.RemovedRecords) != old.NumRecords() || len(a.AddedRecords) != new.NumRecords() {
		t.Errorf("record patterns wrong: %d removed, %d added", len(a.RemovedRecords), len(a.AddedRecords))
	}
	if len(a.RemovedGroups) != old.NumHouseholds() || len(a.AddedGroups) != new.NumHouseholds() {
		t.Errorf("group patterns wrong")
	}
}

func TestGroupPatternString(t *testing.T) {
	want := map[GroupPattern]string{
		PatternPreserve: "preserve_G", PatternAdd: "add_G", PatternRemove: "remove_G",
		PatternMove: "move", PatternSplit: "split", PatternMerge: "merge",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if GroupPattern(99).String() != "unknown" {
		t.Error("unknown pattern string")
	}
}
