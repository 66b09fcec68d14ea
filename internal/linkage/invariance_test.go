package linkage

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/synth"
)

// renaming maps one census year's record and household IDs to new ones.
type renaming struct {
	record, household map[string]string
}

// rankNames maps every ID to prefix + its zero-padded rank among ids, so
// the new names sort exactly as the old ones do: every tie-break by ID
// within a dataset is preserved.
func rankNames(ids []string, prefix string) map[string]string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	out := make(map[string]string, len(sorted))
	for i, id := range sorted {
		out[id] = fmt.Sprintf("%s%07d", prefix, i)
	}
	return out
}

// identityNames maps every ID to itself.
func identityNames(ids []string) map[string]string {
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		out[id] = id
	}
	return out
}

// renameDataset returns a copy of d with every record and household ID
// renamed, households and records added in d's order.
func renameDataset(t *testing.T, d *census.Dataset, rn renaming) *census.Dataset {
	t.Helper()
	out := census.NewDataset(d.Year)
	for _, h := range d.Households() {
		if err := out.AddHousehold(&census.Household{ID: rn.household[h.ID], Address: h.Address}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range d.Records() {
		c := *r
		c.ID, c.HouseholdID = rn.record[r.ID], rn.household[r.HouseholdID]
		if err := out.AddRecord(&c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// renamedResult maps a result's record and household IDs through the two
// years' renamings.
func renamedResult(res *Result, oldRn, newRn renaming) *Result {
	out := &Result{
		Iterations:           res.Iterations,
		Sources:              make(map[Pair]LinkSource, len(res.Sources)),
		RemainderRecordLinks: res.RemainderRecordLinks,
		RemainderGroupLinks:  res.RemainderGroupLinks,
	}
	for _, l := range res.RecordLinks {
		out.RecordLinks = append(out.RecordLinks, RecordLink{Old: oldRn.record[l.Old], New: newRn.record[l.New], Sim: l.Sim})
	}
	for _, g := range res.GroupLinks {
		out.GroupLinks = append(out.GroupLinks, GroupLink{Old: oldRn.household[g.Old], New: newRn.household[g.New]})
	}
	for p, src := range res.Sources {
		if src.Kind == SourceSubgraph {
			src.Group = GroupPair{Old: oldRn.household[src.Group.Old], New: newRn.household[src.Group.New]}
		}
		out.Sources[Pair{Old: oldRn.record[p.Old], New: newRn.record[p.New]}] = src
	}
	return out
}

// TestLinkInvariantUnderIDRenaming: record and household IDs are names, so
// renaming them consistently must give the same links modulo the renaming
// — including when the two census years share record IDs or household
// IDs, which must not merge an old and a new record into one cluster.
func TestLinkInvariantUnderIDRenaming(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.04, 1871000), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(d *census.Dataset) (records, households []string) {
		for _, r := range d.Records() {
			records = append(records, r.ID)
		}
		for _, h := range d.Households() {
			households = append(households, h.ID)
		}
		return records, households
	}
	oldRecs, oldHHs := ids(old)
	newRecs, newHHs := ids(new)
	renamings := map[string][2]renaming{
		"disjoint-record-ids": {
			{record: rankNames(oldRecs, "a"), household: identityNames(oldHHs)},
			{record: rankNames(newRecs, "b"), household: identityNames(newHHs)},
		},
		"colliding-record-ids": {
			{record: rankNames(oldRecs, ""), household: identityNames(oldHHs)},
			{record: rankNames(newRecs, ""), household: identityNames(newHHs)},
		},
		"colliding-household-ids": {
			{record: identityNames(oldRecs), household: rankNames(oldHHs, "h")},
			{record: identityNames(newRecs), household: rankNames(newHHs, "h")},
		},
	}
	for _, scheme := range []string{"default", "lsh"} {
		cfg := DefaultConfig()
		if cfg.Strategies, err = ParseBlocking(scheme); err != nil {
			t.Fatal(err)
		}
		base, err := LinkContext(context.Background(), old, new, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(base.RecordLinks) == 0 || len(base.GroupLinks) == 0 {
			t.Fatalf("%s: base run found no links; the check would be vacuous", scheme)
		}
		for name, rn := range renamings {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				got, err := LinkContext(context.Background(), renameDataset(t, old, rn[0]), renameDataset(t, new, rn[1]), cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := renamedResult(base, rn[0], rn[1])
				if len(got.RecordLinks) != len(want.RecordLinks) || len(got.GroupLinks) != len(want.GroupLinks) {
					t.Fatalf("%d record and %d group links, want %d and %d",
						len(got.RecordLinks), len(got.GroupLinks), len(want.RecordLinks), len(want.GroupLinks))
				}
				for _, cmp := range []struct {
					name      string
					got, want any
				}{
					{"record links", got.RecordLinks, want.RecordLinks},
					{"group links", got.GroupLinks, want.GroupLinks},
					{"sources", got.Sources, want.Sources},
					{"iterations", got.Iterations, want.Iterations},
				} {
					if !reflect.DeepEqual(cmp.got, cmp.want) {
						t.Errorf("%s differ from the renamed base run's", cmp.name)
					}
				}
			})
		}
	}
}

// TestLinkInvariantUnderWorkers: the chunk pool splits the index build,
// the candidate table, pre-matching and subgraph matching by worker count,
// and the runtime schedules the chunks by GOMAXPROCS; neither may change
// the output. Config.Workers 1, 2 and 4 under GOMAXPROCS 1 and 2 give the
// same record links, group links, iterations and sources as a
// single-worker run, for both blocking schemes.
func TestLinkInvariantUnderWorkers(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.04, 1881000), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, scheme := range []string{"default", "lsh"} {
		cfg := DefaultConfig()
		if cfg.Strategies, err = ParseBlocking(scheme); err != nil {
			t.Fatal(err)
		}
		var base *Result
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 4} {
				cfg.Workers = workers
				got, err := LinkContext(context.Background(), old, new, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					if len(got.RecordLinks) == 0 || len(got.GroupLinks) == 0 {
						t.Fatalf("%s: no links; the check would be vacuous", scheme)
					}
					base = got
					continue
				}
				for _, cmp := range []struct {
					name      string
					got, want any
				}{
					{"record links", got.RecordLinks, base.RecordLinks},
					{"group links", got.GroupLinks, base.GroupLinks},
					{"iterations", got.Iterations, base.Iterations},
					{"sources", got.Sources, base.Sources},
				} {
					if !reflect.DeepEqual(cmp.got, cmp.want) {
						t.Errorf("%s, GOMAXPROCS %d, %d workers: %s differ from one worker's", scheme, procs, workers, cmp.name)
					}
				}
			}
		}
	}
}

// shuffleDataset returns a copy of d with its households and its records
// added in a random order drawn from rng.
func shuffleDataset(t *testing.T, d *census.Dataset, rng *rand.Rand) *census.Dataset {
	t.Helper()
	out := census.NewDataset(d.Year)
	for _, i := range rng.Perm(d.NumHouseholds()) {
		h := d.Households()[i]
		if err := out.AddHousehold(&census.Household{ID: h.ID, Address: h.Address}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range rng.Perm(d.NumRecords()) {
		c := *d.Records()[i]
		if err := out.AddRecord(&c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLinkInvariantUnderRowOrder: the row order of a census file carries
// no meaning, so shuffling both years' households and records must give
// the same record links, group links, sources and iterations, for both
// blocking schemes.
func TestLinkInvariantUnderRowOrder(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.04, 1871000), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"default", "lsh"} {
		t.Run(scheme, func(t *testing.T) {
			cfg := DefaultConfig()
			if cfg.Strategies, err = ParseBlocking(scheme); err != nil {
				t.Fatal(err)
			}
			base, err := LinkContext(context.Background(), old, new, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if base.RemainderRecordLinks == 0 || len(base.GroupLinks) == 0 {
				t.Fatal("base run found no remainder or group links; the check would be vacuous")
			}
			rng := rand.New(rand.NewSource(1881000))
			for shuffle := 0; shuffle < 2; shuffle++ {
				got, err := LinkContext(context.Background(),
					shuffleDataset(t, old, rng), shuffleDataset(t, new, rng), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, cmp := range []struct {
					name      string
					got, want any
				}{
					{"record links", got.RecordLinks, base.RecordLinks},
					{"group links", got.GroupLinks, base.GroupLinks},
					{"sources", got.Sources, base.Sources},
					{"iterations", got.Iterations, base.Iterations},
				} {
					if !reflect.DeepEqual(cmp.got, cmp.want) {
						t.Errorf("shuffle %d: %s differ from the unshuffled run's", shuffle, cmp.name)
					}
				}
			}
		})
	}
}
