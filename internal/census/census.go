// Package census defines the data model for historical census datasets:
// person records, households (groups of records), datasets for a single
// census year, and series of successive datasets.
//
// The model follows the problem definition of Christen et al. (EDBT 2017):
// each dataset D_i consists of a record set R_i and a group set G_i where
// every record belongs to exactly one group (household) and carries a role
// relative to the head of its household.
package census

import (
	"fmt"
	"sort"
	"strings"
)

// Sex is the recorded sex of a person.
type Sex byte

// Recognised sex values. SexUnknown models a missing value.
const (
	SexUnknown Sex = 0
	SexMale    Sex = 'm'
	SexFemale  Sex = 'f'
)

// String returns "m", "f" or "" for unknown.
func (s Sex) String() string {
	switch s {
	case SexMale:
		return "m"
	case SexFemale:
		return "f"
	default:
		return ""
	}
}

// ParseSex converts a string into a Sex. Unrecognised input maps to
// SexUnknown; parsing is case-insensitive and accepts common long forms.
func ParseSex(s string) Sex {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "m", "male":
		return SexMale
	case "f", "female":
		return SexFemale
	default:
		return SexUnknown
	}
}

// Role is the household-specific relationship of a person to the head of
// their household, as recorded on the census form.
type Role string

// Head-relative roles found in 19th-century UK census schedules.
const (
	RoleHead          Role = "head"
	RoleWife          Role = "wife"
	RoleHusband       Role = "husband"
	RoleSon           Role = "son"
	RoleDaughter      Role = "daughter"
	RoleFather        Role = "father"
	RoleMother        Role = "mother"
	RoleBrother       Role = "brother"
	RoleSister        Role = "sister"
	RoleGrandson      Role = "grandson"
	RoleGranddaughter Role = "granddaughter"
	RoleNephew        Role = "nephew"
	RoleNiece         Role = "niece"
	RoleServant       Role = "servant"
	RoleBoarder       Role = "boarder"
	RoleLodger        Role = "lodger"
	RoleVisitor       Role = "visitor"
	RoleOther         Role = "other"
)

// ParseRole normalises a role string. Unknown strings map to RoleOther.
func ParseRole(s string) Role {
	switch Role(strings.ToLower(strings.TrimSpace(s))) {
	case RoleHead, RoleWife, RoleHusband, RoleSon, RoleDaughter, RoleFather,
		RoleMother, RoleBrother, RoleSister, RoleGrandson, RoleGranddaughter,
		RoleNephew, RoleNiece, RoleServant, RoleBoarder, RoleLodger, RoleVisitor:
		return Role(strings.ToLower(strings.TrimSpace(s)))
	default:
		return RoleOther
	}
}

// IsFamily reports whether the role denotes a family relation to the head
// (as opposed to servants, boarders, lodgers and visitors).
func (r Role) IsFamily() bool {
	switch r {
	case RoleServant, RoleBoarder, RoleLodger, RoleVisitor, RoleOther:
		return false
	default:
		return true
	}
}

// AgeMissing is the sentinel value of Record.Age for a missing age.
const AgeMissing = -1

// Record is a single person entry of one census dataset.
//
// TruthID is the persistent person identifier carried through a synthetic
// series; it is the ground truth used for evaluation and is empty on real
// data. Linkage code must never read it.
type Record struct {
	ID         string
	FirstName  string
	Surname    string
	Sex        Sex
	Age        int // AgeMissing if not recorded
	Address    string
	Occupation string
	// Birthplace is the recorded place of birth — a stable attribute that
	// UK censuses carried from 1851 onwards. The paper's Table 2 does not
	// use it; this implementation offers it as an extension (see
	// linkage.OmegaTwoBirthplace).
	Birthplace  string
	Role        Role
	HouseholdID string
	TruthID     string
}

// Attribute identifies one comparable record attribute.
type Attribute int

// Comparable attributes of a Record.
const (
	AttrFirstName Attribute = iota
	AttrSurname
	AttrSex
	AttrAge
	AttrAddress
	AttrOccupation
	AttrBirthplace
	numAttributes
)

// NumAttributes is the number of defined attributes.
const NumAttributes = int(numAttributes)

// String returns the lower-case attribute name.
func (a Attribute) String() string {
	switch a {
	case AttrFirstName:
		return "first name"
	case AttrSurname:
		return "surname"
	case AttrSex:
		return "sex"
	case AttrAge:
		return "age"
	case AttrAddress:
		return "address"
	case AttrOccupation:
		return "occupation"
	case AttrBirthplace:
		return "birthplace"
	default:
		return fmt.Sprintf("attribute(%d)", int(a))
	}
}

// Value returns the string form of attribute a of record r, or "" when the
// value is missing.
func (r *Record) Value(a Attribute) string {
	switch a {
	case AttrFirstName:
		return r.FirstName
	case AttrSurname:
		return r.Surname
	case AttrSex:
		return r.Sex.String()
	case AttrAge:
		if r.Age == AgeMissing {
			return ""
		}
		return fmt.Sprintf("%d", r.Age)
	case AttrAddress:
		return r.Address
	case AttrOccupation:
		return r.Occupation
	case AttrBirthplace:
		return r.Birthplace
	default:
		return ""
	}
}

// FullName returns "first surname" in lower case, for ambiguity statistics.
func (r *Record) FullName() string {
	return strings.ToLower(r.FirstName) + " " + strings.ToLower(r.Surname)
}

// Household is a group of records living together at one census.
type Household struct {
	ID      string
	Address string
	// MemberIDs lists the record IDs of the household members in schedule
	// order (head first when known).
	MemberIDs []string
}

// Size returns the number of members.
func (h *Household) Size() int { return len(h.MemberIDs) }

// Dataset is one census: a record set R and a group (household) set G.
type Dataset struct {
	Year int

	records    []*Record
	pos        map[string]int32 // record ID -> position in records
	households []*Household
	hhByID     map[string]*Household
}

// NewDataset returns an empty dataset for the given census year.
func NewDataset(year int) *Dataset {
	return &Dataset{
		Year:   year,
		pos:    make(map[string]int32),
		hhByID: make(map[string]*Household),
	}
}

// AddHousehold registers a household. It returns an error on a duplicate ID.
func (d *Dataset) AddHousehold(h *Household) error {
	if h.ID == "" {
		return fmt.Errorf("census: household with empty ID")
	}
	if _, dup := d.hhByID[h.ID]; dup {
		return fmt.Errorf("census: duplicate household ID %q", h.ID)
	}
	d.hhByID[h.ID] = h
	d.households = append(d.households, h)
	return nil
}

// AddRecord registers a record and appends it to its household's member
// list, creating the household if it does not exist yet.
func (d *Dataset) AddRecord(r *Record) error {
	if r.ID == "" {
		return fmt.Errorf("census: record with empty ID")
	}
	if _, dup := d.pos[r.ID]; dup {
		return fmt.Errorf("census: duplicate record ID %q", r.ID)
	}
	if r.HouseholdID == "" {
		return fmt.Errorf("census: record %q has no household", r.ID)
	}
	h, ok := d.hhByID[r.HouseholdID]
	if !ok {
		h = &Household{ID: r.HouseholdID, Address: r.Address}
		if err := d.AddHousehold(h); err != nil {
			return err
		}
	}
	h.MemberIDs = append(h.MemberIDs, r.ID)
	d.pos[r.ID] = int32(len(d.records))
	d.records = append(d.records, r)
	return nil
}

// Records returns the records in insertion order. The returned slice is
// shared; callers must not modify it.
func (d *Dataset) Records() []*Record { return d.records }

// Households returns the households in insertion order. The returned slice
// is shared; callers must not modify it.
func (d *Dataset) Households() []*Household { return d.households }

// Record returns the record with the given ID, or nil.
func (d *Dataset) Record(id string) *Record {
	if i, ok := d.pos[id]; ok {
		return d.records[i]
	}
	return nil
}

// Pos returns the position of the record with the given ID in Records().
func (d *Dataset) Pos(id string) (int, bool) {
	i, ok := d.pos[id]
	return int(i), ok
}

// Household returns the household with the given ID, or nil.
func (d *Dataset) Household(id string) *Household { return d.hhByID[id] }

// NumRecords returns |R|.
func (d *Dataset) NumRecords() int { return len(d.records) }

// NumHouseholds returns |G|.
func (d *Dataset) NumHouseholds() int { return len(d.households) }

// Members returns the member records of household h in schedule order.
func (d *Dataset) Members(h *Household) []*Record {
	out := make([]*Record, 0, len(h.MemberIDs))
	for _, id := range h.MemberIDs {
		if r := d.Record(id); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Head returns the member with RoleHead, or the first member if no head is
// recorded, or nil for an empty household.
func (d *Dataset) Head(h *Household) *Record {
	members := d.Members(h)
	for _, m := range members {
		if m.Role == RoleHead {
			return m
		}
	}
	if len(members) > 0 {
		return members[0]
	}
	return nil
}

// Validate checks structural invariants: every record belongs to exactly one
// existing household, every member ID resolves, and households partition the
// record set.
func (d *Dataset) Validate() error {
	seen := make(map[string]string, len(d.records)) // record ID -> household ID
	for _, h := range d.households {
		for _, id := range h.MemberIDs {
			r := d.Record(id)
			if r == nil {
				return fmt.Errorf("census: household %q lists unknown record %q", h.ID, id)
			}
			if r.HouseholdID != h.ID {
				return fmt.Errorf("census: record %q is listed in household %q but claims %q", id, h.ID, r.HouseholdID)
			}
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("census: record %q is a member of both %q and %q", id, prev, h.ID)
			}
			seen[id] = h.ID
		}
	}
	if len(seen) != len(d.records) {
		return fmt.Errorf("census: %d records but %d household memberships", len(d.records), len(seen))
	}
	return nil
}

// Stats are the per-dataset statistics reported in Table 1 of the paper.
type Stats struct {
	Year           int
	NumRecords     int
	NumHouseholds  int
	UniqueNames    int     // unique (first name, surname) combinations
	MissingRatio   float64 // fraction of missing attribute values
	MeanMembers    float64 // mean household size
	NameFrequency  float64 // mean records per unique name combination
	MaxHousehold   int
	MissingByAttr  map[Attribute]float64
	totalValueSlot int
}

// ComputeStats derives the Table 1 statistics for a dataset. Missing values
// are counted over the five linkage attributes plus age.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{
		Year:          d.Year,
		NumRecords:    len(d.records),
		NumHouseholds: len(d.households),
		MissingByAttr: make(map[Attribute]float64),
	}
	names := make(map[string]struct{}, len(d.records))
	// The missing-value ratio is computed over the six attributes of the
	// paper's setting (birthplace is an extension and excluded for Table 1
	// parity).
	attrs := []Attribute{AttrFirstName, AttrSurname, AttrSex, AttrAge, AttrAddress, AttrOccupation}
	missingTotal := 0
	missingBy := make(map[Attribute]int)
	for _, r := range d.records {
		names[r.FullName()] = struct{}{}
		for _, a := range attrs {
			if r.Value(a) == "" {
				missingTotal++
				missingBy[a]++
			}
		}
	}
	s.UniqueNames = len(names)
	total := len(d.records) * len(attrs)
	if total > 0 {
		s.MissingRatio = float64(missingTotal) / float64(total)
	}
	for _, a := range attrs {
		if len(d.records) > 0 {
			s.MissingByAttr[a] = float64(missingBy[a]) / float64(len(d.records))
		}
	}
	if len(d.households) > 0 {
		s.MeanMembers = float64(len(d.records)) / float64(len(d.households))
	}
	if s.UniqueNames > 0 {
		s.NameFrequency = float64(len(d.records)) / float64(s.UniqueNames)
	}
	for _, h := range d.households {
		if h.Size() > s.MaxHousehold {
			s.MaxHousehold = h.Size()
		}
	}
	return s
}

// Series is an ordered list of successive census datasets.
type Series struct {
	Datasets []*Dataset
}

// NewSeries builds a series, sorting the datasets by year.
func NewSeries(ds ...*Dataset) *Series {
	s := &Series{Datasets: append([]*Dataset(nil), ds...)}
	sort.Slice(s.Datasets, func(i, j int) bool { return s.Datasets[i].Year < s.Datasets[j].Year })
	return s
}

// Years lists the census years in order.
func (s *Series) Years() []int {
	ys := make([]int, len(s.Datasets))
	for i, d := range s.Datasets {
		ys[i] = d.Year
	}
	return ys
}

// Pairs returns the successive dataset pairs (D_i, D_{i+1}).
func (s *Series) Pairs() [][2]*Dataset {
	if len(s.Datasets) < 2 {
		return nil
	}
	out := make([][2]*Dataset, 0, len(s.Datasets)-1)
	for i := 0; i+1 < len(s.Datasets); i++ {
		out = append(out, [2]*Dataset{s.Datasets[i], s.Datasets[i+1]})
	}
	return out
}

// Dataset returns the dataset for the given year, or nil.
func (s *Series) Dataset(year int) *Dataset {
	for _, d := range s.Datasets {
		if d.Year == year {
			return d
		}
	}
	return nil
}
