package collective

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/paperexample"
)

// TestCLRunningExample: on the paper's running example CL finds the five
// stable in-place links but, unlike the subgraph approach, misses the two
// moved persons (Alice and Steve) whose attributes changed — the behaviour
// behind its lower recall in Table 6.
func TestCLRunningExample(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	links := mustLink(t, old, new, DefaultConfig())
	got := map[string]string{}
	for _, l := range links {
		got[l.Old] = l.New
	}
	want := map[string]string{
		"1871_1": "1881_1",
		"1871_2": "1881_2",
		"1871_4": "1881_3",
		"1871_6": "1881_4",
		"1871_7": "1881_5",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CL mapping:\n got %v\nwant %v", got, want)
	}
}

// TestCLExpandsFromSeeds: a household member below the seed threshold is
// still linked when their matched neighbours raise the relational score.
func TestCLExpandsFromSeeds(t *testing.T) {
	old := census.NewDataset(1871)
	new := census.NewDataset(1881)
	add := func(d *census.Dataset, id, hh, fn, sn, occ string, sex census.Sex, age int, role census.Role) {
		t.Helper()
		if err := d.AddRecord(&census.Record{ID: id, HouseholdID: hh, FirstName: fn,
			Surname: sn, Occupation: occ, Sex: sex, Age: age, Role: role, Address: "1 dale street"}); err != nil {
			t.Fatal(err)
		}
	}
	// Parents identical (seeds); child's name was recorded with a heavy
	// typo, below any seed threshold.
	add(old, "o1", "h", "john", "barnes", "weaver", census.SexMale, 40, census.RoleHead)
	add(old, "o2", "h", "mary", "barnes", "winder", census.SexFemale, 38, census.RoleWife)
	add(old, "o3", "h", "william", "barnes", "", census.SexMale, 9, census.RoleSon)
	add(new, "n1", "h", "john", "barnes", "weaver", census.SexMale, 50, census.RoleHead)
	add(new, "n2", "h", "mary", "barnes", "winder", census.SexFemale, 48, census.RoleWife)
	add(new, "n3", "h", "wilm", "barnes", "piecer", census.SexMale, 19, census.RoleSon)

	cfg := DefaultConfig()
	links := mustLink(t, old, new, cfg)
	got := map[string]string{}
	for _, l := range links {
		got[l.Old] = l.New
	}
	if got["o1"] != "n1" || got["o2"] != "n2" {
		t.Fatalf("seeds not linked: %v", got)
	}
	if got["o3"] != "n3" {
		t.Errorf("child with typo not linked via relational expansion: %v", got)
	}
}

// TestCLAgeFilter: a pair whose age did not advance by the census interval
// is rejected even with identical attributes (the paper's footnote 2 setup).
func TestCLAgeFilter(t *testing.T) {
	old := census.NewDataset(1871)
	new := census.NewDataset(1881)
	if err := old.AddRecord(&census.Record{ID: "o1", HouseholdID: "h", FirstName: "john",
		Surname: "pickup", Sex: census.SexMale, Age: 30, Role: census.RoleHead}); err != nil {
		t.Fatal(err)
	}
	if err := new.AddRecord(&census.Record{ID: "n1", HouseholdID: "h", FirstName: "john",
		Surname: "pickup", Sex: census.SexMale, Age: 30, Role: census.RoleHead}); err != nil {
		t.Fatal(err)
	}
	if links := mustLink(t, old, new, DefaultConfig()); len(links) != 0 {
		t.Errorf("age-inconsistent pair linked: %v", links)
	}
}

// TestCLOneToOne: the produced mapping must be 1:1.
func TestCLOneToOne(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	links := mustLink(t, old, new, DefaultConfig())
	seenOld, seenNew := map[string]bool{}, map[string]bool{}
	for _, l := range links {
		if seenOld[l.Old] || seenNew[l.New] {
			t.Fatalf("duplicate in mapping: %v", l)
		}
		seenOld[l.Old] = true
		seenNew[l.New] = true
	}
}

// TestCLDeterminism: repeated runs agree exactly.
func TestCLDeterminism(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	base := mustLink(t, old, new, DefaultConfig())
	for i := 0; i < 3; i++ {
		if got := mustLink(t, old, new, DefaultConfig()); !reflect.DeepEqual(got, base) {
			t.Fatal("CL output varies between runs")
		}
	}
}

// TestCLWorseThanIterative: the headline Table 6 comparison on the running
// example — CL links strictly fewer correct pairs.
func TestCLWorseThanIterative(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	cl := mustLink(t, old, new, DefaultConfig())
	truth := paperexample.TrueRecordMapping()
	clCorrect := 0
	for _, l := range cl {
		if truth[l.Old] == l.New {
			clCorrect++
		}
	}
	if clCorrect >= len(truth) {
		t.Errorf("CL found %d of %d true links; expected strictly fewer (moved persons)", clCorrect, len(truth))
	}
}

// mustLink runs the baseline under a background context.
func mustLink(t *testing.T, old, new *census.Dataset, cfg Config) []linkage.RecordLink {
	t.Helper()
	res, err := Link(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLinkCancelled: a cancelled context stops the baseline with the
// cancellation instead of a result.
func TestLinkCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Link(ctx, paperexample.Old(), paperexample.New(), DefaultConfig())
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Link on a cancelled context = %v, %v; want no result and context.Canceled", res, err)
	}
}
