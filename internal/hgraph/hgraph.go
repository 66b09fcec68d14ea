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

// AgeDiffMissing is the sentinel for an edge whose age difference could not
// be computed because one of the ages is missing.
const AgeDiffMissing = -1000

// Edge is an enriched relationship between two household members. A and B
// are record IDs in member order; AgeDiff is age(A) - age(B) (signed), or
// AgeDiffMissing.
type Edge struct {
	A, B    string
	Type    RelType
	AgeDiff int
}

// Graph is the enriched graph of one household: a complete graph over the
// members with typed, age-difference annotated edges.
type Graph struct {
	HouseholdID string
	Year        int

	members []*census.Record
	pos     []int32        // member position -> position in the dataset's Records()
	index   map[string]int // record ID -> member position
	edges   []Edge
	// edgeAt[i*len(members)+j] for i<j indexes into edges; -1 otherwise.
	edgeAt []int
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
	g := &Graph{
		HouseholdID: h.ID,
		Year:        d.Year,
		members:     members,
		pos:         pos,
		index:       make(map[string]int, len(members)),
		edgeAt:      make([]int, len(members)*len(members)),
	}
	for i, m := range members {
		g.index[m.ID] = i
	}
	for i := range g.edgeAt {
		g.edgeAt[i] = -1
	}
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			a, b := members[i], members[j]
			e := Edge{
				A:       a.ID,
				B:       b.ID,
				Type:    UnifyRoles(a.Role, b.Role),
				AgeDiff: ageDiff(a, b),
			}
			g.edgeAt[i*len(members)+j] = len(g.edges)
			g.edges = append(g.edges, e)
		}
	}
	return g
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

// NumVertices returns the number of members.
func (g *Graph) NumVertices() int { return len(g.members) }

// NumEdges returns the number of enriched edges, n(n-1)/2 for n members.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns all enriched edges. The slice is shared.
func (g *Graph) Edges() []Edge { return g.edges }

// Contains reports whether the record ID is a member of the household.
func (g *Graph) Contains(id string) bool {
	_, ok := g.index[id]
	return ok
}

// EdgeBetween returns the unified relationship type and the signed age
// difference age(x) - age(y) for two member record IDs. ok is false when
// either ID is not a member (or x == y).
func (g *Graph) EdgeBetween(x, y string) (t RelType, ageDiff int, ok bool) {
	i, okX := g.index[x]
	j, okY := g.index[y]
	if !okX || !okY {
		return RelOther, AgeDiffMissing, false
	}
	return g.EdgeAt(i, j)
}

// EdgeAt is EdgeBetween keyed by member positions (indices into Members()):
// the unified relationship type and the signed age difference
// age(member i) - age(member j). ok is false when i == j.
func (g *Graph) EdgeAt(i, j int) (t RelType, ageDiff int, ok bool) {
	if i == j {
		return RelOther, AgeDiffMissing, false
	}
	flip := false
	if i > j {
		i, j = j, i
		flip = true
	}
	ei := g.edgeAt[i*len(g.members)+j]
	if ei < 0 {
		return RelOther, AgeDiffMissing, false
	}
	e := g.edges[ei]
	d := e.AgeDiff
	if flip && d != AgeDiffMissing {
		d = -d
	}
	return e.Type, d, true
}

// ageDiff returns age(a) - age(b), or AgeDiffMissing.
func ageDiff(a, b *census.Record) int {
	if a.Age == census.AgeMissing || b.Age == census.AgeMissing {
		return AgeDiffMissing
	}
	return a.Age - b.Age
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
