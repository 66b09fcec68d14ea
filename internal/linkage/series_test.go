package linkage_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/store"
	"censuslink/internal/synth"
)

func synthSeries(t *testing.T) *census.Series {
	t.Helper()
	series, err := synth.Generate(synth.TestConfig(0.02, 17))
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Pairs()) < 2 {
		t.Fatalf("synthetic series has %d pairs, want >= 2", len(series.Pairs()))
	}
	return series
}

// dirDigest fingerprints every file in a directory, to prove a warm
// incremental run leaves the snapshots byte-identical.
func dirDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = fmt.Sprintf("%x", sum)
	}
	return out
}

// TestLinkSeriesIncrementalDifferential is the acceptance gate of the
// snapshot store: a cold run populates the store, and an incremental re-run
// over unchanged inputs must (a) serve every pair from snapshots, (b)
// perform ZERO pre-match comparisons — the whole pipeline is skipped, as
// the obs counters prove — and (c) return results deep-equal to the cold
// run's while leaving the snapshot files byte-identical.
func TestLinkSeriesIncrementalDifferential(t *testing.T) {
	series := synthSeries(t)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pairs := len(series.Pairs())

	cfg := linkage.DefaultConfig()
	coldStats := obs.NewStats(nil)
	cfg.Obs = coldStats
	cold, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
		linkage.SeriesOptions{Store: st, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := coldStats.Total(obs.StoreMisses); got != int64(pairs) {
		t.Errorf("cold run store misses = %d, want %d", got, pairs)
	}
	if got := coldStats.Total(obs.StoreHits); got != 0 {
		t.Errorf("cold run store hits = %d, want 0", got)
	}
	if coldStats.Total(obs.PairsCompared) == 0 {
		t.Fatal("cold run compared no pairs; the differential below would be vacuous")
	}
	before := dirDigest(t, dir)
	if len(before) != pairs {
		t.Fatalf("store holds %d snapshots after the cold run, want %d", len(before), pairs)
	}

	warmStats := obs.NewStats(nil)
	cfg.Obs = warmStats
	warm, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
		linkage.SeriesOptions{Store: st, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := warmStats.Total(obs.StoreHits); got != int64(pairs) {
		t.Errorf("warm run store hits = %d, want %d", got, pairs)
	}
	for _, name := range []string{obs.PairsCompared, obs.BlockingPairs, obs.CandidateLinks, obs.StoreMisses, obs.StoreCorrupt} {
		if got := warmStats.Total(name); got != 0 {
			t.Errorf("warm run %s = %d, want 0 (pipeline must not run)", name, got)
		}
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Error("incremental results differ from the cold run")
	}
	if after := dirDigest(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("warm run modified the snapshot files")
	}
}

// TestLinkSeriesParallelMatchesSequential: the bounded pair pool must
// change nothing observable — same results in the same order, and the
// merged obs report carries every pair's iterations without interleaving.
func TestLinkSeriesParallelMatchesSequential(t *testing.T) {
	series := synthSeries(t)
	cfg := linkage.DefaultConfig()
	seqStats := obs.NewStats(nil)
	cfg.Obs = seqStats
	seq, err := linkage.LinkSeriesOpts(context.Background(), series, cfg, linkage.SeriesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parStats := obs.NewStats(nil)
	cfg.Obs = parStats
	par, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
		linkage.SeriesOptions{PairWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Error("parallel pair results differ from sequential")
	}
	seqIters, parIters := seqStats.Iterations(), parStats.Iterations()
	if len(parIters) != len(seqIters) {
		t.Fatalf("parallel run reported %d iterations, sequential %d", len(parIters), len(seqIters))
	}
	// Iterations are merged in pair order; per-pair they descend by delta,
	// so the whole sequence must match the sequential one exactly.
	for i := range seqIters {
		if parIters[i].Delta != seqIters[i].Delta {
			t.Fatalf("iteration %d: parallel delta %.2f, sequential %.2f — interleaved merge",
				i, parIters[i].Delta, seqIters[i].Delta)
		}
	}
	if parStats.Total(obs.PairsCompared) != seqStats.Total(obs.PairsCompared) {
		t.Errorf("parallel compared %d pairs, sequential %d",
			parStats.Total(obs.PairsCompared), seqStats.Total(obs.PairsCompared))
	}
}

// failingStore passes through to a real store but fails SaveResult for one
// configured old-census year, simulating a full disk mid-series.
type failingStore struct {
	inner    linkage.ResultStore
	failYear int
}

func (f *failingStore) LoadResult(cfgHash string, oldDS, newDS *census.Dataset) (*linkage.Result, error) {
	return f.inner.LoadResult(cfgHash, oldDS, newDS)
}

func (f *failingStore) SaveResult(cfgHash string, oldDS, newDS *census.Dataset, res *linkage.Result) error {
	if oldDS.Year == f.failYear {
		return errors.New("disk full")
	}
	return f.inner.SaveResult(cfgHash, oldDS, newDS, res)
}

// TestLinkSeriesPartialResultsOnFailure: a mid-series failure must return
// the completed pair results alongside a typed *SeriesError naming the
// failing pair — not discard hours of finished work.
func TestLinkSeriesPartialResultsOnFailure(t *testing.T) {
	series := synthSeries(t)
	pairs := series.Pairs()
	failIdx := len(pairs) - 1
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &failingStore{inner: st, failYear: pairs[failIdx][0].Year}

	cfg := linkage.DefaultConfig()
	for _, workers := range []int{1, 4} {
		out, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
			linkage.SeriesOptions{Store: fs, PairWorkers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error despite failing store", workers)
		}
		var se *linkage.SeriesError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: err = %T %v, want *SeriesError", workers, err, err)
		}
		if se.OldYear != pairs[failIdx][0].Year || se.NewYear != pairs[failIdx][1].Year {
			t.Errorf("workers=%d: SeriesError names pair %d-%d, want %d-%d",
				workers, se.OldYear, se.NewYear, pairs[failIdx][0].Year, pairs[failIdx][1].Year)
		}
		if se.Pairs != len(pairs) {
			t.Errorf("workers=%d: SeriesError.Pairs = %d, want %d", workers, se.Pairs, len(pairs))
		}
		completed := 0
		for i, r := range out {
			if r != nil {
				completed++
			} else if i != failIdx {
				t.Errorf("workers=%d: pair %d has no result but did not fail", workers, i)
			}
		}
		if completed != se.Completed {
			t.Errorf("workers=%d: %d non-nil results, SeriesError.Completed = %d", workers, completed, se.Completed)
		}
		if se.Completed != len(pairs)-1 {
			t.Errorf("workers=%d: Completed = %d, want %d", workers, se.Completed, len(pairs)-1)
		}
	}
}

// corruptOnce rejects the first load of one pair as corrupt, then behaves
// normally; loads and saves are otherwise passed through.
type corruptOnce struct {
	inner    linkage.ResultStore
	failYear int
	tripped  bool
	resaved  bool
}

func (c *corruptOnce) LoadResult(cfgHash string, oldDS, newDS *census.Dataset) (*linkage.Result, error) {
	if oldDS.Year == c.failYear && !c.tripped {
		c.tripped = true
		return nil, errors.New("payload checksum mismatch")
	}
	return c.inner.LoadResult(cfgHash, oldDS, newDS)
}

func (c *corruptOnce) SaveResult(cfgHash string, oldDS, newDS *census.Dataset, res *linkage.Result) error {
	if oldDS.Year == c.failYear {
		c.resaved = true
	}
	return c.inner.SaveResult(cfgHash, oldDS, newDS, res)
}

// TestLinkSeriesIncrementalCorruptRecompute: a rejected snapshot is counted,
// recomputed and overwritten; the run still returns the full correct series.
func TestLinkSeriesIncrementalCorruptRecompute(t *testing.T) {
	series := synthSeries(t)
	pairs := series.Pairs()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	cold, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
		linkage.SeriesOptions{Store: st, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}

	co := &corruptOnce{inner: st, failYear: pairs[0][0].Year}
	stats := obs.NewStats(nil)
	cfg.Obs = stats
	got, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
		linkage.SeriesOptions{Store: co, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := stats.Total(obs.StoreCorrupt); n != 1 {
		t.Errorf("store corrupt counter = %d, want 1", n)
	}
	if n := stats.Total(obs.StoreHits); n != int64(len(pairs)-1) {
		t.Errorf("store hits = %d, want %d", n, len(pairs)-1)
	}
	if !co.resaved {
		t.Error("corrupt pair was not overwritten with a fresh snapshot")
	}
	if !reflect.DeepEqual(got, cold) {
		t.Error("recomputed series differs from the cold run")
	}
}

// TestLinkAppend: linking only the (last, next) pair when a year arrives
// must equal the last pair of a full-series run, hit the store when warm,
// and reject out-of-order years.
func TestLinkAppend(t *testing.T) {
	series := synthSeries(t)
	n := len(series.Datasets)
	head := census.NewSeries(series.Datasets[:n-1]...)
	next := series.Datasets[n-1]
	cfg := linkage.DefaultConfig()

	full, err := linkage.LinkSeriesOpts(context.Background(), series, cfg, linkage.SeriesOptions{})
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := linkage.SeriesOptions{Store: st, Incremental: true}
	coldStats := obs.NewStats(nil)
	cfg.Obs = coldStats
	cold, err := linkage.LinkAppend(context.Background(), head, next, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, full[len(full)-1]) {
		t.Error("LinkAppend result differs from the last pair of a full-series run")
	}
	if got := coldStats.Total(obs.StoreMisses); got != 1 {
		t.Errorf("cold append store misses = %d, want 1", got)
	}

	warmStats := obs.NewStats(nil)
	cfg.Obs = warmStats
	warm, err := linkage.LinkAppend(context.Background(), head, next, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := warmStats.Total(obs.StoreHits); got != 1 {
		t.Errorf("warm append store hits = %d, want 1", got)
	}
	if got := warmStats.Total(obs.PairsCompared); got != 0 {
		t.Errorf("warm append compared %d pairs, want 0 (pipeline must not run)", got)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Error("warm append differs from cold append")
	}

	if _, err := linkage.LinkAppend(context.Background(), series, next, cfg, opts); err == nil {
		t.Error("appending a year not after the series end should fail")
	}
}

// TestLinkSeriesOrderingInvariants: results stay sorted by (Old, New) on
// both scheduling paths — the documented Result contract.
func TestLinkSeriesOrderingInvariants(t *testing.T) {
	series := synthSeries(t)
	cfg := linkage.DefaultConfig()
	out, err := linkage.LinkSeriesOpts(context.Background(), series, cfg,
		linkage.SeriesOptions{PairWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if !sort.SliceIsSorted(res.RecordLinks, func(a, b int) bool {
			x, y := res.RecordLinks[a], res.RecordLinks[b]
			return x.Old < y.Old || (x.Old == y.Old && x.New < y.New)
		}) {
			t.Errorf("pair %d: record links not sorted", i)
		}
	}
}

// TestLinkAppendCorruptRecompute: LinkAppend over a rejected snapshot counts
// it once, recomputes the pair and writes the fresh result through.
func TestLinkAppendCorruptRecompute(t *testing.T) {
	series := synthSeries(t)
	n := len(series.Datasets)
	head := census.NewSeries(series.Datasets[:n-1]...)
	next := series.Datasets[n-1]
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := linkage.DefaultConfig()
	cold, err := linkage.LinkAppend(context.Background(), head, next, cfg,
		linkage.SeriesOptions{Store: st, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}

	co := &corruptOnce{inner: st, failYear: head.Datasets[n-2].Year}
	stats := obs.NewStats(nil)
	cfg.Obs = stats
	got, err := linkage.LinkAppend(context.Background(), head, next, cfg,
		linkage.SeriesOptions{Store: co, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := stats.Total(obs.StoreCorrupt); n != 1 {
		t.Errorf("store corrupt counter = %d, want 1", n)
	}
	if n := stats.Total(obs.StoreHits) + stats.Total(obs.StoreMisses); n != 0 {
		t.Errorf("store hits+misses = %d, want 0", n)
	}
	if stats.Total(obs.PairsCompared) == 0 {
		t.Error("corrupt snapshot was not recomputed")
	}
	if !co.resaved {
		t.Error("corrupt pair was not overwritten with a fresh snapshot")
	}
	if !reflect.DeepEqual(got, cold) {
		t.Error("recomputed append differs from the cold run")
	}
}
