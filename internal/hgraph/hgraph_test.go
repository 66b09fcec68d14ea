package hgraph

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"censuslink/internal/census"
)

// paperHousehold builds the running example's household g^b_1871:
// John Smith (head, 44), Elizabeth Smith (wife, 41), Steve Smith (son, 17).
func paperHousehold(t *testing.T) (*census.Dataset, *census.Household) {
	t.Helper()
	d := census.NewDataset(1871)
	recs := []*census.Record{
		{ID: "1871_6", HouseholdID: "b", FirstName: "john", Surname: "smith", Sex: census.SexMale, Age: 44, Role: census.RoleHead},
		{ID: "1871_7", HouseholdID: "b", FirstName: "elizabeth", Surname: "smith", Sex: census.SexFemale, Age: 41, Role: census.RoleWife},
		{ID: "1871_8", HouseholdID: "b", FirstName: "steve", Surname: "smith", Sex: census.SexMale, Age: 17, Role: census.RoleSon},
	}
	for _, r := range recs {
		if err := d.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return d, d.Household("b")
}

// TestEnrichmentPaperExample reproduces Fig. 2: enrichment of g^b_1871 adds
// the implicit wife-son edge and annotates all edges with age differences.
func TestEnrichmentPaperExample(t *testing.T) {
	d, h := paperHousehold(t)
	g := Build(d, h)
	if len(g.Members()) != 3 {
		t.Fatalf("vertices = %d", len(g.Members()))
	}
	// Complete graph over 3 members.
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	// head-wife: spouse, age diff 3.
	typ, diff, ok := g.EdgeBetween("1871_6", "1871_7")
	if !ok || typ != RelSpouse || diff != 3 {
		t.Errorf("head-wife edge = %v/%d/%v", typ, diff, ok)
	}
	// head-son: parent-child, age diff 27.
	typ, diff, ok = g.EdgeBetween("1871_6", "1871_8")
	if !ok || typ != RelParentChild || diff != 27 {
		t.Errorf("head-son edge = %v/%d/%v", typ, diff, ok)
	}
	// Implicit wife-son edge (added by enrichment): parent-child, diff 24.
	typ, diff, ok = g.EdgeBetween("1871_7", "1871_8")
	if !ok || typ != RelParentChild || diff != 24 {
		t.Errorf("wife-son edge = %v/%d/%v", typ, diff, ok)
	}
}

// household builds a one-household dataset whose members r0, r1, ... have
// the given roles and ages.
func household(t testing.TB, roles []census.Role, ages []int) (*census.Dataset, *census.Household) {
	t.Helper()
	d := census.NewDataset(1871)
	for i, role := range roles {
		if err := d.AddRecord(&census.Record{
			ID: fmt.Sprintf("r%d", i), HouseholdID: "h", FirstName: "f", Surname: "s",
			Age: ages[i], Role: role,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return d, d.Household("h")
}

// TestEdgeBetweenOrientation: the age difference is antisymmetric in the
// member order, including a difference of ±1000 years.
func TestEdgeBetweenOrientation(t *testing.T) {
	for _, ages := range [][]int{{44, 17}, {40, 1040}, {1040, 40}} {
		g := Build(household(t, []census.Role{census.RoleHead, census.RoleSon}, ages))
		_, fwd, okFwd := g.EdgeBetween("r0", "r1")
		_, rev, okRev := g.EdgeBetween("r1", "r0")
		if !okFwd || !okRev || fwd != ages[0]-ages[1] || rev != ages[1]-ages[0] {
			t.Errorf("ages %v: age diffs %d/%v and %d/%v", ages, fwd, okFwd, rev, okRev)
		}
		if _, _, ok := g.EdgeBetween("r0", "r0"); ok {
			t.Error("self edge should not exist")
		}
		if _, _, ok := g.EdgeBetween("r0", "ghost"); ok {
			t.Error("edge to non-member should not exist")
		}
	}
}

// TestMissingAgeYieldsMissingDiff: an edge one of whose ages is missing
// has no age difference, so it is no edge in either orientation.
func TestMissingAgeYieldsMissingDiff(t *testing.T) {
	for _, ages := range [][]int{{40, census.AgeMissing}, {census.AgeMissing, 40}, {census.AgeMissing, census.AgeMissing}} {
		g := Build(household(t, []census.Role{census.RoleHead, census.RoleWife}, ages))
		if _, diff, ok := g.EdgeBetween("r0", "r1"); ok {
			t.Errorf("ages %v: edge r0-r1 with age diff %d", ages, diff)
		}
		if _, diff, ok := g.EdgeAt(1, 0); ok {
			t.Errorf("ages %v: edge r1-r0 with age diff %d", ages, diff)
		}
	}
}

func TestUnifyRoles(t *testing.T) {
	cases := []struct {
		a, b census.Role
		want RelType
	}{
		{census.RoleHead, census.RoleWife, RelSpouse},
		{census.RoleWife, census.RoleHead, RelSpouse}, // symmetric
		{census.RoleHead, census.RoleHusband, RelSpouse},
		{census.RoleHead, census.RoleSon, RelParentChild},
		{census.RoleDaughter, census.RoleHead, RelParentChild},
		{census.RoleHead, census.RoleFather, RelParentChild},
		{census.RoleMother, census.RoleHead, RelParentChild},
		{census.RoleSon, census.RoleDaughter, RelSibling},
		{census.RoleSon, census.RoleSon, RelSibling},
		{census.RoleHead, census.RoleBrother, RelSibling},
		{census.RoleHead, census.RoleGrandson, RelGrand},
		{census.RoleWife, census.RoleSon, RelParentChild},
		{census.RoleWife, census.RoleGranddaughter, RelGrand},
		{census.RoleFather, census.RoleMother, RelSpouse},
		{census.RoleFather, census.RoleSon, RelGrand},
		{census.RoleGrandson, census.RoleGranddaughter, RelSibling},
		{census.RoleHead, census.RoleServant, RelOther},
		{census.RoleServant, census.RoleServant, RelOther},
		{census.RoleBoarder, census.RoleWife, RelOther},
		{census.RoleNephew, census.RoleNiece, RelOther},
		{census.RoleHead, census.RoleVisitor, RelOther},
	}
	for _, c := range cases {
		if got := UnifyRoles(c.a, c.b); got != c.want {
			t.Errorf("UnifyRoles(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestUnifyRolesSymmetric: the unified type must not depend on argument
// order for any role pair.
func TestUnifyRolesSymmetric(t *testing.T) {
	roles := []census.Role{
		census.RoleHead, census.RoleWife, census.RoleHusband, census.RoleSon,
		census.RoleDaughter, census.RoleFather, census.RoleMother,
		census.RoleBrother, census.RoleSister, census.RoleGrandson,
		census.RoleGranddaughter, census.RoleNephew, census.RoleNiece,
		census.RoleServant, census.RoleBoarder, census.RoleLodger,
		census.RoleVisitor, census.RoleOther,
	}
	for _, a := range roles {
		for _, b := range roles {
			if UnifyRoles(a, b) != UnifyRoles(b, a) {
				t.Errorf("UnifyRoles(%v,%v) not symmetric", a, b)
			}
		}
	}
}

func TestBuildAll(t *testing.T) {
	d, _ := paperHousehold(t)
	if err := d.AddRecord(&census.Record{ID: "x1", HouseholdID: "c", FirstName: "q", Surname: "z", Age: 20, Role: census.RoleHead}); err != nil {
		t.Fatal(err)
	}
	graphs := BuildAll(d)
	if len(graphs) != 2 {
		t.Fatalf("BuildAll = %d graphs", len(graphs))
	}
	if graphs["b"].NumEdges() != 3 || graphs["c"].NumEdges() != 0 {
		t.Errorf("edge counts: b=%d c=%d", graphs["b"].NumEdges(), graphs["c"].NumEdges())
	}
	if len(graphs["b"].Members()) != 3 || graphs["c"].Members()[0].ID != "x1" {
		t.Error("members wrong")
	}
}

// packAges packs ages as the 8-byte little-endian words FuzzGraphEdges
// reads.
func packAges(ages ...int) []byte {
	out := make([]byte, 0, 8*len(ages))
	for _, a := range ages {
		out = binary.LittleEndian.AppendUint64(out, uint64(a))
	}
	return out
}

// FuzzGraphEdges: for any household of up to 16 members (roles comma
// separated, ages packed as 8-byte words, a member past the packed ages
// without an age), enrichment yields n(n-1)/2 edges, and EdgeAt and
// EdgeBetween give every ordered pair of distinct members with both ages
// UnifyRoles of their roles and the direct age difference, and every
// other pair no edge. Ages cover the ends of int and differences of ±1000.
func FuzzGraphEdges(f *testing.F) {
	f.Add("head,wife,son", packAges(44, 41, 17))
	f.Add("head,son,daughter", packAges(40, 1040, census.AgeMissing))
	f.Add("head,wife,servant,boarder", packAges(math.MaxInt, math.MinInt, 0, -1000))
	f.Add("father,mother,brother,sister,grandson,granddaughter,husband,nephew,niece,visitor", packAges(70, 68, 30))
	f.Add("head", packAges(30))
	f.Add("", []byte(nil))
	f.Fuzz(func(t *testing.T, roleList string, packed []byte) {
		fields := strings.Split(roleList, ",")
		n := min(len(fields), 16)
		roles, ages := make([]census.Role, n), make([]int, n)
		for i := range roles {
			roles[i], ages[i] = census.Role(fields[i]), census.AgeMissing
			if len(packed) >= 8*(i+1) {
				ages[i] = int(binary.LittleEndian.Uint64(packed[8*i:]))
			}
		}
		g := Build(household(t, roles, ages))
		members := g.Members()
		if len(members) != n || g.NumEdges() != n*(n-1)/2 {
			t.Fatalf("%d members, %d edges; want %d, %d", len(members), g.NumEdges(), n, n*(n-1)/2)
		}
		for i, a := range members {
			for j, b := range members {
				want := i != j && a.Age != census.AgeMissing && b.Age != census.AgeMissing
				typ, diff, ok := g.EdgeAt(i, j)
				byID, diffByID, okByID := g.EdgeBetween(a.ID, b.ID)
				if typ != byID || diff != diffByID || ok != okByID {
					t.Fatalf("%d-%d: EdgeAt %v/%d/%v, EdgeBetween %v/%d/%v", i, j, typ, diff, ok, byID, diffByID, okByID)
				}
				if ok != want || ok && (typ != UnifyRoles(a.Role, b.Role) || diff != a.Age-b.Age) {
					t.Fatalf("%d-%d (%s %d, %s %d): edge %v/%d/%v", i, j, a.Role, a.Age, b.Role, b.Age, typ, diff, ok)
				}
			}
		}
	})
}

func TestRelTypeString(t *testing.T) {
	want := map[RelType]string{
		RelSpouse: "spouse", RelParentChild: "parent-child",
		RelSibling: "sibling", RelGrand: "grandparent-grandchild",
		RelOther: "other",
	}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), s)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	d := census.NewDataset(1871)
	for i := 0; i < 8; i++ {
		role := census.RoleSon
		if i == 0 {
			role = census.RoleHead
		} else if i == 1 {
			role = census.RoleWife
		}
		if err := d.AddRecord(&census.Record{
			ID: fmt.Sprintf("r%d", i), HouseholdID: "h",
			FirstName: "f", Surname: "s", Age: 40 - i*4, Role: role,
		}); err != nil {
			b.Fatal(err)
		}
	}
	h := d.Household("h")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(d, h)
	}
}
