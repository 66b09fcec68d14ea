package main

import (
	"context"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/paperexample"
)

func writeDataset(t *testing.T, dir, name string, d *census.Dataset) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := census.WriteCSV(f, d); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCensusInfersYear(t *testing.T) {
	dir := t.TempDir()
	path := writeDataset(t, dir, "census_1871.csv", paperexample.Old())
	d := loadCensus(path, 0, census.LoadOptions{Strict: true})
	if d.Year != 1871 {
		t.Errorf("inferred year = %d", d.Year)
	}
	if d.NumRecords() != 8 {
		t.Errorf("records = %d", d.NumRecords())
	}
	// Explicit year overrides the file name.
	if got := loadCensus(path, 1899, census.LoadOptions{Strict: true}); got.Year != 1899 {
		t.Errorf("explicit year = %d", got.Year)
	}
}

// TestRunLinkageFlushesStatsOnAbort: a timed-out run must still produce the
// -stats report, so the observability data of an aborted multi-hour run is
// not lost with it.
func TestRunLinkageFlushesStatsOnAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats := obs.NewStats(nil)
	cfg := linkage.DefaultConfig()
	cfg.Obs = stats
	statsPath := filepath.Join(t.TempDir(), "stats.json")

	_, err := runLinkage(ctx, paperexample.Old(), paperexample.New(), cfg, stats, statsPath, nil, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	data, readErr := os.ReadFile(statsPath)
	if readErr != nil {
		t.Fatalf("stats report not written on abort: %v", readErr)
	}
	if len(data) == 0 {
		t.Error("stats report empty")
	}
}

// TestRunLinkageStatsReportCandidateTable: the -stats report carries the
// candidate table's size, set once by the compile stage.
func TestRunLinkageStatsReportCandidateTable(t *testing.T) {
	stats := obs.NewStats(nil)
	cfg := linkage.DefaultConfig()
	cfg.Obs = stats
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	if _, err := runLinkage(context.Background(), paperexample.Old(), paperexample.New(), cfg, stats, statsPath, nil, false); err != nil {
		t.Fatal(err)
	}
	writeStats(statsPath, stats)
	f, err := os.Open(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := obs.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	pairs, bytes := rep.Counters[obs.CandidateTablePairs], rep.Counters[obs.CandidateTableBytes]
	if pairs <= 0 || bytes < 4*pairs {
		t.Errorf("candidate_table_pairs=%d candidate_table_bytes=%d; want pairs > 0 and at least 4 bytes each", pairs, bytes)
	}
	for _, it := range rep.Iterations {
		if it.Count(obs.CandidateTablePairs) != 0 {
			t.Errorf("delta=%v: table counter inside an iteration; compile runs once before the loop", it.Delta)
		}
	}
}

func TestHasTruth(t *testing.T) {
	d := paperexample.Old()
	if hasTruth(d) {
		t.Error("running example has no truth IDs")
	}
	d.Records()[0].TruthID = "p1"
	if !hasTruth(d) {
		t.Error("truth ID not detected")
	}
}

func TestWriteCSVHelper(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	writeCSV(path, []string{"a", "b"}, func(w *csv.Writer) error {
		return w.Write([]string{"1", "2"})
	})
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "a" || rows[1][1] != "2" {
		t.Errorf("rows = %v", rows)
	}
}
