// Teamlinkage: the paper's future-work scenario — apply temporal group
// linkage to research teams instead of households. Two "census" snapshots
// of a lab are taken five years apart: researchers are records, teams are
// groups, and the head-relative roles map onto PI/member roles. The same
// iterative subgraph machinery then links researchers (who may change
// teams, surnames, or job titles) and teams (which split, merge and
// dissolve).
//
//	go run ./examples/teamlinkage
package main

import (
	"context"
	"fmt"
	"log"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/strsim"
)

// researcher describes one person in a snapshot. The census.Record mapping:
// FirstName/Surname = name, Occupation = research topic, Address = building,
// Age = academic age (years since first publication) — which advances with
// the snapshot interval exactly like a person's age between censuses.
type researcher struct {
	id, team        string
	first, last     string
	topic, building string
	academicAge     int
	role            census.Role // RoleHead = PI, RoleSon/Daughter = member
	sex             census.Sex
}

func snapshot(year int, rs []researcher) *census.Dataset {
	d := census.NewDataset(year)
	for _, r := range rs {
		if err := d.AddRecord(&census.Record{
			ID:          r.id,
			HouseholdID: r.team,
			FirstName:   r.first,
			Surname:     r.last,
			Sex:         r.sex,
			Age:         r.academicAge,
			Address:     r.building,
			Occupation:  r.topic,
			Role:        r.role,
		}); err != nil {
			log.Fatal(err)
		}
	}
	return d
}

func main() {
	// 2010: two research groups.
	old := snapshot(2010, []researcher{
		// The database group: PI Lina Weber and four members.
		{"2010_1", "db", "lina", "weber", "query optimisation", "building e1", 18, census.RoleHead, census.SexFemale},
		{"2010_2", "db", "marko", "petrov", "query optimisation", "building e1", 9, census.RoleSon, census.SexMale},
		{"2010_3", "db", "aisha", "khan", "record linkage", "building e1", 6, census.RoleDaughter, census.SexFemale},
		{"2010_4", "db", "tomas", "lind", "record linkage", "building e1", 3, census.RoleSon, census.SexMale},
		{"2010_5", "db", "sara", "moretti", "graph databases", "building e1", 2, census.RoleDaughter, census.SexFemale},
		// The systems group: PI Jan Novak and three members.
		{"2010_6", "sys", "jan", "novak", "distributed storage", "building c2", 21, census.RoleHead, census.SexMale},
		{"2010_7", "sys", "elena", "fischer", "consensus protocols", "building c2", 7, census.RoleDaughter, census.SexFemale},
		{"2010_8", "sys", "david", "okafor", "distributed storage", "building c2", 4, census.RoleSon, census.SexMale},
	})

	// 2015: Aisha Khan became a PI and took Tomas Lind with her (a split);
	// Sara Moretti married and publishes as Sara Keller; Elena Fischer
	// moved to the new group; a fresh unrelated group arrived whose PI is
	// also named Weber.
	new := snapshot(2015, []researcher{
		{"2015_1", "db", "lina", "weber", "query optimisation", "building e1", 23, census.RoleHead, census.SexFemale},
		{"2015_2", "db", "marko", "petrov", "query compilation", "building e1", 14, census.RoleSon, census.SexMale},
		{"2015_3", "db", "sara", "keller", "graph databases", "building e1", 7, census.RoleDaughter, census.SexFemale},
		{"2015_4", "linkage", "aisha", "khan", "record linkage", "building b4", 11, census.RoleHead, census.SexFemale},
		{"2015_5", "linkage", "tomas", "lind", "record linkage", "building b4", 8, census.RoleSon, census.SexMale},
		{"2015_6", "linkage", "elena", "fischer", "temporal linkage", "building b4", 12, census.RoleDaughter, census.SexFemale},
		{"2015_7", "sys", "jan", "novak", "distributed storage", "building c2", 26, census.RoleHead, census.SexMale},
		{"2015_8", "sys", "david", "okafor", "cloud storage", "building c2", 9, census.RoleSon, census.SexMale},
		// The unrelated new group.
		{"2015_9", "ml", "karl", "weber", "neural networks", "building a3", 24, census.RoleHead, census.SexMale},
		{"2015_10", "ml", "mia", "larsen", "neural networks", "building a3", 4, census.RoleDaughter, census.SexFemale},
	})

	// Team-domain similarity function: names dominate, topic and building
	// use token-based matching (multi-word values).
	sim := linkage.SimFunc{
		Name:  "team",
		Delta: 0.7,
		Matchers: []linkage.AttributeMatcher{
			{Attr: census.AttrFirstName, Sim: strsim.JaroWinkler, Weight: 0.35},
			{Attr: census.AttrSurname, Sim: strsim.JaroWinkler, Weight: 0.25},
			{Attr: census.AttrSex, Sim: strsim.Exact, Weight: 0.1},
			{Attr: census.AttrOccupation, Sim: strsim.TokenDice, Weight: 0.2},
			{Attr: census.AttrAddress, Sim: strsim.TokenDice, Weight: 0.1},
		},
	}
	cfg := linkage.Config{
		Sim:          sim,
		DeltaHigh:    0.9,
		DeltaLow:     0.7,
		DeltaStep:    0.05,
		Alpha:        0.2,
		Beta:         0.7,
		AgeTolerance: 2, // academic age advances with the 5-year interval
		Remainder:    sim.WithDelta(0.65),
		Strategies: []block.Strategy{
			block.SurnameSoundex(),
			block.FirstNameSoundexSex(),
		},
		StopOnEmpty: true,
	}
	res, err := linkage.LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Researcher links:")
	for _, l := range res.RecordLinks {
		o, n := old.Record(l.Old), new.Record(l.New)
		note := ""
		if o.HouseholdID != n.HouseholdID {
			note = "  [changed team]"
		}
		fmt.Printf("  %-16s %-22s -> %-16s %-22s%s\n",
			o.FirstName+" "+o.Surname, "("+o.HouseholdID+", "+o.Occupation+")",
			n.FirstName+" "+n.Surname, "("+n.HouseholdID+", "+n.Occupation+")", note)
	}

	fmt.Println("\nTeam links:")
	for _, g := range res.GroupLinks {
		fmt.Printf("  %s -> %s\n", g.Old, g.New)
	}

	a := evolution.Analyze(old, new, res)
	fmt.Println("\nTeam evolution:")
	for _, p := range a.PreservedGroups {
		fmt.Printf("  preserved: %s -> %s\n", p[0], p[1])
	}
	for _, s := range a.Splits {
		fmt.Printf("  split: %s -> %v\n", s.Old, s.News)
	}
	for _, m := range a.Moves {
		fmt.Printf("  member moved between %s and %s\n", m[0], m[1])
	}
	for _, id := range a.AddedGroups {
		fmt.Printf("  new team: %s\n", id)
	}
	for _, id := range a.RemovedGroups {
		fmt.Printf("  dissolved team: %s\n", id)
	}
}
