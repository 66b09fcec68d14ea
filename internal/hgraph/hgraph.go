// Package hgraph represents households as graphs and implements the group
// enrichment step of Christen et al. (EDBT 2017), Section 3.1: the
// head-relative roles of the census schedule are unified into
// time-independent pairwise relationship types, an implicit edge is added
// for every pair of household members, and the (signed) age difference is
// attached to each edge as a stable relationship property.
package hgraph

import (
	"censuslink/internal/census"
)

// RelType is a unified, time-independent pairwise relationship type.
type RelType byte

// Unified relationship types derived from head-relative roles.
const (
	// RelOther is any pair for which no family relation can be derived
	// (including servants, boarders and visitors).
	RelOther RelType = iota
	// RelSpouse joins married partners.
	RelSpouse
	// RelParentChild joins a parent and their child.
	RelParentChild
	// RelSibling joins two siblings.
	RelSibling
	// RelGrand joins a grandparent and a grandchild.
	RelGrand
)

// String returns the type name.
func (t RelType) String() string {
	switch t {
	case RelSpouse:
		return "spouse"
	case RelParentChild:
		return "parent-child"
	case RelSibling:
		return "sibling"
	case RelGrand:
		return "grandparent-grandchild"
	default:
		return "other"
	}
}

// Graph is the enriched graph of one household: a complete graph over the
// members. The unified type of each edge is stored once per unordered
// member pair; its age difference is computed from the member records.
type Graph struct {
	HouseholdID string

	members []*census.Record
	pos     []int32 // member position -> position in the dataset's Records()
	// rel[j*(j-1)/2+i] is the unified type of the edge between members i<j.
	rel []RelType
}

// Build constructs the enriched graph for household h of dataset d
// (the completeGroups step for one group).
func Build(d *census.Dataset, h *census.Household) *Graph {
	members := make([]*census.Record, 0, len(h.MemberIDs))
	pos := make([]int32, 0, len(h.MemberIDs))
	for _, id := range h.MemberIDs {
		if i, ok := d.Pos(id); ok {
			members = append(members, d.Records()[i])
			pos = append(pos, int32(i))
		}
	}
	n := len(members)
	rel := make([]RelType, 0, n*(n-1)/2)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			rel = append(rel, UnifyRoles(members[i].Role, members[j].Role))
		}
	}
	return &Graph{HouseholdID: h.ID, members: members, pos: pos, rel: rel}
}

// BuildAll enriches every household of a dataset, keyed by household ID.
func BuildAll(d *census.Dataset) map[string]*Graph {
	out := make(map[string]*Graph, d.NumHouseholds())
	for _, h := range d.Households() {
		out[h.ID] = Build(d, h)
	}
	return out
}

// Members returns the member records in schedule order. The slice is shared.
func (g *Graph) Members() []*census.Record { return g.members }

// Positions returns the dataset positions (indices into Records()) of the
// members, parallel to Members(). The slice is shared.
func (g *Graph) Positions() []int32 { return g.pos }

// NumEdges returns the number of enriched edges, n(n-1)/2 for n members.
func (g *Graph) NumEdges() int { return len(g.rel) }

// EdgeBetween returns the unified relationship type and the signed age
// difference age(x) - age(y) for two member record IDs. ok is false when
// either ID is not a member, when x == y, or when either age is missing.
func (g *Graph) EdgeBetween(x, y string) (t RelType, ageDiff int, ok bool) {
	i, j := -1, -1
	for k, m := range g.members {
		if m.ID == x {
			i = k
		}
		if m.ID == y {
			j = k
		}
	}
	if i < 0 || j < 0 {
		return RelOther, 0, false
	}
	return g.EdgeAt(i, j)
}

// EdgeAt is EdgeBetween keyed by member positions (indices into Members()):
// the unified relationship type and the signed age difference
// age(member i) - age(member j). ok is false when i == j or when either
// age is missing.
func (g *Graph) EdgeAt(i, j int) (t RelType, ageDiff int, ok bool) {
	a, b := g.members[i].Age, g.members[j].Age
	if i == j || a == census.AgeMissing || b == census.AgeMissing {
		return RelOther, 0, false
	}
	if i > j {
		i, j = j, i
	}
	return g.rel[j*(j-1)/2+i], a - b, true
}

// UnifyRoles derives the time-independent pairwise relationship type for two
// household members from their head-relative roles. The mapping encodes the
// usual reading of 19th-century census schedules: children listed in a
// household are children of the head (and of the head's spouse), the head's
// parents are grandparents of the head's children, and so on. Pairs
// involving non-family roles, and pairs whose relation cannot be derived
// reliably, map to RelOther.
func UnifyRoles(a, b census.Role) RelType {
	// Non-family roles never yield a derivable family relation.
	if !a.IsFamily() || !b.IsFamily() {
		return RelOther
	}
	// Normalise so the lookup is symmetric.
	if roleOrder(a) > roleOrder(b) {
		a, b = b, a
	}
	type pair struct{ x, y census.Role }
	key := pair{a, b}
	switch key {
	// Relations involving the head.
	case pair{census.RoleHead, census.RoleWife}, pair{census.RoleHead, census.RoleHusband}:
		return RelSpouse
	case pair{census.RoleHead, census.RoleSon}, pair{census.RoleHead, census.RoleDaughter},
		pair{census.RoleHead, census.RoleFather}, pair{census.RoleHead, census.RoleMother}:
		return RelParentChild
	case pair{census.RoleHead, census.RoleBrother}, pair{census.RoleHead, census.RoleSister}:
		return RelSibling
	case pair{census.RoleHead, census.RoleGrandson}, pair{census.RoleHead, census.RoleGranddaughter}:
		return RelGrand

	// Relations involving the head's spouse.
	case pair{census.RoleWife, census.RoleSon}, pair{census.RoleWife, census.RoleDaughter},
		pair{census.RoleHusband, census.RoleSon}, pair{census.RoleHusband, census.RoleDaughter}:
		return RelParentChild
	case pair{census.RoleWife, census.RoleGrandson}, pair{census.RoleWife, census.RoleGranddaughter},
		pair{census.RoleHusband, census.RoleGrandson}, pair{census.RoleHusband, census.RoleGranddaughter}:
		return RelGrand

	// Relations among the head's children.
	case pair{census.RoleSon, census.RoleSon}, pair{census.RoleDaughter, census.RoleDaughter},
		pair{census.RoleSon, census.RoleDaughter}:
		return RelSibling

	// The head's parents vs. the head's children.
	case pair{census.RoleFather, census.RoleSon}, pair{census.RoleFather, census.RoleDaughter},
		pair{census.RoleMother, census.RoleSon}, pair{census.RoleMother, census.RoleDaughter}:
		return RelGrand
	case pair{census.RoleFather, census.RoleMother}:
		return RelSpouse

	// The head's siblings vs. the head's parents.
	case pair{census.RoleFather, census.RoleBrother}, pair{census.RoleFather, census.RoleSister},
		pair{census.RoleMother, census.RoleBrother}, pair{census.RoleMother, census.RoleSister}:
		return RelParentChild

	// The head's siblings among themselves.
	case pair{census.RoleBrother, census.RoleBrother}, pair{census.RoleSister, census.RoleSister},
		pair{census.RoleBrother, census.RoleSister}:
		return RelSibling

	// Grandchildren among themselves are siblings or cousins; treat the
	// common case (children of the same absent parent) as sibling.
	case pair{census.RoleGrandson, census.RoleGrandson},
		pair{census.RoleGranddaughter, census.RoleGranddaughter},
		pair{census.RoleGrandson, census.RoleGranddaughter}:
		return RelSibling

	default:
		return RelOther
	}
}

// roleOrder gives a total order over roles so UnifyRoles can canonicalise
// its argument pair.
func roleOrder(r census.Role) int {
	switch r {
	case census.RoleHead:
		return 0
	case census.RoleWife:
		return 1
	case census.RoleHusband:
		return 2
	case census.RoleFather:
		return 3
	case census.RoleMother:
		return 4
	case census.RoleBrother:
		return 5
	case census.RoleSister:
		return 6
	case census.RoleSon:
		return 7
	case census.RoleDaughter:
		return 8
	case census.RoleGrandson:
		return 9
	case census.RoleGranddaughter:
		return 10
	case census.RoleNephew:
		return 11
	case census.RoleNiece:
		return 12
	default:
		return 13
	}
}
