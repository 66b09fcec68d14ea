package linkage

import (
	"context"
	"sync/atomic"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/obs"
	"censuslink/internal/strsim"
	"censuslink/internal/synth"
)

// TestObsSimCacheAttribution: the similarity-cache lookups of each δ
// pre-match pass land in the snapshot of that iteration and those of the
// remainder pass in the run totals only, and each pass looks up exactly
// the attribute comparisons an uncached replay of it makes. The remainder
// pass, warm from the δ passes, hits too.
func TestObsSimCacheAttribution(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 7), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Obs = obs.NewStats(nil)
	replay := &pruneReplay{}
	if _, err := link(context.Background(), old, new, cfg, replay.hook); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Obs.Report()
	if len(rep.Iterations) != len(replay.compared) || len(rep.Iterations) == 0 {
		t.Fatalf("%d iterations reported, %d passes replayed", len(rep.Iterations), len(replay.compared))
	}
	var hits, misses int64
	for i, it := range rep.Iterations {
		h, m := it.Counters[obs.SimCacheHits], it.Counters[obs.SimCacheMisses]
		if h+m != replay.compared[i] {
			t.Errorf("iteration %d (delta %v): %d hits + %d misses, its uncached replay compared %d attributes",
				i, it.Delta, h, m, replay.compared[i])
		}
		hits, misses = hits+h, misses+m
	}
	if hits == 0 {
		t.Fatal("no pre-match lookup hit; the cache is not exercised")
	}
	remHits, remMisses := rep.Counters[obs.SimCacheHits]-hits, rep.Counters[obs.SimCacheMisses]-misses
	if remHits+remMisses != replay.remainderCompared {
		t.Errorf("remainder: %d hits + %d misses, its uncached replay compared %d attributes",
			remHits, remMisses, replay.remainderCompared)
	}
	if remHits == 0 {
		t.Error("the remainder pass hit no cached similarity; it should start warm")
	}
}

// countedProfs wraps the profile comparator of every matcher of fs so each
// comparison adds one to calls. Matchers sharing a comparator share its
// wrapper, so similarity functions that compile alike still do.
func countedProfs(calls *atomic.Int64, fs ...*SimFunc) {
	wrapped := make(map[*strsim.Profiled]*strsim.Profiled)
	for _, f := range fs {
		ms := append([]AttributeMatcher(nil), f.Matchers...)
		for i, m := range ms {
			w, ok := wrapped[m.Prof]
			if !ok {
				c := *m.Prof
				cmp := c.Compare
				c.Compare = func(a, b *strsim.Profile) float64 { calls.Add(1); return cmp(a, b) }
				w = &c
				wrapped[m.Prof] = w
			}
			ms[i].Prof = w
		}
		f.Matchers = ms
	}
}

// TestSimCacheCountsPerPass drives the prematch and remainder stages of a
// link on three workers, dropping each pass's linked records before the
// next, and counts the comparator calls of every pass: its cache misses
// are exactly the calls it makes, and its hits plus misses exactly the
// calls an uncached replay of the pass makes. The remainder pass scores
// through the warm first pre-match cache when its similarity function
// compiles like Sim_func, and through a cold cache of its own engine when
// it does not.
func TestSimCacheCountsPerPass(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 7), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		rem    SimFunc
		shared bool
	}{
		{"shared", DefaultConfig().Remainder, true},
		{"name-only", NameOnly(0.8), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Int64
			cfg := DefaultConfig()
			cfg.Remainder = c.rem
			countedProfs(&calls, &cfg.Sim, &cfg.Remainder)
			cfg.Workers = 3
			cfg.Obs = obs.NewStats(nil)
			ctx := context.Background()
			rs, err := buildGraphs(ctx, old, new, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.compile(ctx); err != nil {
				t.Fatal(err)
			}
			if shared := rs.rem.eng == rs.sim.eng; shared != c.shared {
				t.Fatalf("remainder shares the Sim engine: %t, want %t", shared, c.shared)
			}
			replay := &pruneReplay{}
			remOld := append([]*census.Record(nil), old.Records()...)
			remNew := append([]*census.Record(nil), new.Records()...)
			// pass runs one stage and checks its counters against its
			// replay's and its own comparator calls.
			pass := func(name string, replayed func() int64, run func()) int64 {
				start := calls.Load()
				compared := replayed()
				if made := calls.Load() - start; compared != made {
					t.Fatalf("%s: replay compared %d attributes in %d comparator calls", name, compared, made)
				}
				before, start := cfg.Obs.Report().Counters, calls.Load()
				run()
				after := cfg.Obs.Report().Counters
				hits := after[obs.SimCacheHits] - before[obs.SimCacheHits]
				misses := after[obs.SimCacheMisses] - before[obs.SimCacheMisses]
				if made := calls.Load() - start; misses != made {
					t.Errorf("%s: %d misses, %d comparator calls", name, misses, made)
				}
				if hits+misses != compared {
					t.Errorf("%s: %d hits + %d misses, the uncached replay made %d comparisons", name, hits, misses, compared)
				}
				return hits
			}
			for _, delta := range cfg.deltaSchedule() {
				var pre *PreMatchResult
				hits := pass("prematch", func() int64 {
					replay.hook(rs, delta, remOld, remNew, &PreMatchResult{}, nil)
					return replay.compared[len(replay.compared)-1]
				}, func() {
					if pre, err = rs.prematch(ctx, delta, remOld, remNew); err != nil {
						t.Fatal(err)
					}
				})
				if hits == 0 {
					t.Errorf("prematch at %v: no lookup hit", delta)
				}
				var links []RecordLink
				for _, p := range pre.Pairs() {
					links = append(links, RecordLink{Old: p.Old, New: p.New})
				}
				remOld, remNew = withoutLinked(remOld, links, true), withoutLinked(remNew, links, false)
			}
			hits := pass("remainder", func() int64 {
				replay.hook(rs, cfg.Remainder.Delta, remOld, remNew, nil, nil)
				return replay.remainderCompared
			}, func() {
				if _, err := rs.remainder(ctx, remOld, remNew); err != nil {
					t.Fatal(err)
				}
			})
			if c.shared && hits == 0 {
				t.Error("remainder: no lookup hit; it should reuse the warm pre-match cache")
			}
		})
	}
}
