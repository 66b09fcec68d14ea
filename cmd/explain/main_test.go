package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/paperexample"
)

// writeExample writes the paper's running example as census CSVs.
func writeExample(t *testing.T) (oldPath, newPath string) {
	t.Helper()
	dir := t.TempDir()
	for _, d := range []*census.Dataset{paperexample.Old(), paperexample.New()} {
		path := filepath.Join(dir, census.SeriesFileName(d.Year))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := census.WriteCSV(f, d); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, census.SeriesFileName(1871)), filepath.Join(dir, census.SeriesFileName(1881))
}

// TestRunExplainsLinkedPair: the Ashworth household survives 1871→1881, so
// explaining the pair must show candidates and a matched subgraph.
func TestRunExplainsLinkedPair(t *testing.T) {
	oldPath, newPath := writeExample(t)
	var out strings.Builder
	err := run([]string{
		"-old", oldPath, "-new", newPath,
		"-old-household", "1871_a", "-new-household", "1881_a",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"=== 1871_a (1871) ===",
		"candidate vertex pairs",
		"matched subgraph",
		"g_sim=",
		"candidate LINK",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunExplainsNoLink: two unrelated households must get a NO LINK
// verdict, not a subgraph, because they share fewer than two
// label-sharing, age-consistent member pairs.
func TestRunExplainsNoLink(t *testing.T) {
	oldPath, newPath := writeExample(t)
	var out strings.Builder
	err := run([]string{
		"-old", oldPath, "-new", newPath,
		"-old-household", "1871_a", "-new-household", "1881_c",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "NO LINK (fewer than two label-sharing, age-consistent member pairs)") {
		t.Errorf("output missing the fewer-than-two NO LINK verdict:\n%s", out.String())
	}
}

// TestRunExplainsNoCompatibleEdge: a couple found again with the wife
// recorded as the head's daughter shares two label-sharing, age-consistent
// member pairs but no edge of one relationship type, so the verdict names
// the missing edge.
func TestRunExplainsNoCompatibleEdge(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		year      int
		age       int
		roleOfAnn census.Role
	}{{1871, 40, census.RoleWife}, {1881, 50, census.RoleDaughter}} {
		d := census.NewDataset(c.year)
		hh := fmt.Sprintf("%d_x", c.year)
		for _, r := range []*census.Record{
			{ID: fmt.Sprintf("%d_1", c.year), HouseholdID: hh, FirstName: "john", Surname: "holt",
				Sex: census.SexMale, Age: c.age, Role: census.RoleHead},
			{ID: fmt.Sprintf("%d_2", c.year), HouseholdID: hh, FirstName: "ann", Surname: "holt",
				Sex: census.SexFemale, Age: c.age - 2, Role: c.roleOfAnn},
		} {
			if err := d.AddRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		f, err := os.Create(filepath.Join(dir, census.SeriesFileName(c.year)))
		if err != nil {
			t.Fatal(err)
		}
		if err := census.WriteCSV(f, d); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	err := run([]string{
		"-old", filepath.Join(dir, census.SeriesFileName(1871)),
		"-new", filepath.Join(dir, census.SeriesFileName(1881)),
		"-old-household", "1871_x", "-new-household", "1881_x",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "NO LINK (no compatible edge") {
		t.Errorf("output missing the no-compatible-edge NO LINK verdict:\n%s", out.String())
	}
}

// TestRunRendersStats: -stats renders a pipeline run report as tables.
func TestRunRendersStats(t *testing.T) {
	stats := obs.NewStats(nil)
	cfg := linkage.DefaultConfig()
	cfg.Obs = stats
	if _, err := linkage.LinkContext(context.Background(), paperexample.Old(), paperexample.New(), cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteReport(f, stats.Done()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-stats", path}, &out); err != nil {
		t.Fatalf("run -stats: %v", err)
	}
	// The example converges after δ=0.65 (StopOnEmpty), so exactly those
	// two iteration rows render.
	// The compile stage's candidate-table counters render among the run
	// totals, the byte count with its MB figure, and the stages table has
	// an allocation column.
	// The Iterations table shows the pairs that enter the subgraph stage
	// beside the linked group pairs.
	for _, want := range []string{"Iterations", "Stages", "Run totals", "0.70", "0.65",
		"candidate_table_pairs", "candidate_table_bytes", " MB)", "group pairs  candidates"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats rendering missing %q:\n%s", want, out.String())
		}
	}
	header := false
	for _, line := range strings.Split(out.String(), "\n") {
		header = header || slices.Equal(strings.Fields(line), []string{"stage", "calls", "total", "avg", "alloc"})
	}
	if !header {
		t.Errorf("stages table has no alloc column:\n%s", out.String())
	}
}

// TestRunFlagErrors: bad invocations return errors.
func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("missing flags accepted")
	}
	oldPath, newPath := writeExample(t)
	if err := run([]string{
		"-old", oldPath, "-new", newPath,
		"-old-household", "nope", "-new-household", "1881_a",
	}, &out); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown household: err = %v", err)
	}
	if err := run([]string{"-stats", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing stats file accepted")
	}
}
