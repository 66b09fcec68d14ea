package linkage

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/faultinject"
	"censuslink/internal/obs"
	"censuslink/internal/synth"
)

// Failure tests of the subgraph_match stage. They arm the process-global
// faultinject registry, so none of them may call t.Parallel().

// errAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on, whichever goroutine makes it.
type errAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// subgraphFaultPair is the census pair of the subgraph_match pool tests:
// large enough that a one-worker pass's first chunk holds more than
// 2×cancelCheckEvery old households.
func subgraphFaultPair(t *testing.T) (old, new *census.Dataset) {
	t.Helper()
	if !faultinject.Enabled {
		t.Skip("built with nofaultinject: registry compiled out")
	}
	old, new, err := synth.GeneratePair(synth.TestConfig(0.1, 1871000), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	return old, new
}

// TestSubgraphPoolStops: subgraph_match matches the group pairs of a pass
// on the pool in chunks of old households, four per worker, and each chunk
// observes ctx every cancelCheckEvery households.
//
//   - cancel: with one worker the stage checks ctx before its first claim
//     and then at households 0, 64, 128, ... of chunk 0. A context that
//     reports cancellation from its fourth check on stops the stage at
//     household 128 with a cancellation, having matched exactly the group
//     pairs of the first 128 old households and nothing after.
//   - fail-fast: a panic at the fault point of the first chunk of a
//     one-worker link stops the pool there; it claims none of the other
//     three chunks.
func TestSubgraphPoolStops(t *testing.T) {
	old, new := subgraphFaultPair(t)
	cfg := DefaultConfig()
	cfg.Workers = 1

	t.Run("cancel", func(t *testing.T) {
		const stopAt = 2 * cancelCheckEvery
		first := true
		hook := func(rs *runState, delta float64, _, _ []*census.Record, pre *PreMatchResult, _ []RecordLink) {
			if pre == nil || !first {
				return
			}
			first = false
			if n := len(rs.oldHH.ids); perWorker(n, 4) <= stopAt {
				t.Fatalf("chunk 0 holds %d of %d old households; too few to stop inside it", perWorker(n, 4), n)
			}
			pairs := candidateGroupPairs(pre, rs.oldHH, rs.newHH)
			want := 0
			for _, k := range pairs {
				if ho, _ := unpackPair(k); ho < stopAt {
					want++
				}
			}
			if 2*want > len(pairs) {
				t.Fatalf("the first %d old households hold %d of %d group pairs; too many to see the stage stop",
					stopAt, want, len(pairs))
			}
			_, _, _, err := rs.subgraphMatch(&errAfter{Context: context.Background(), n: 3}, delta, pre)
			var pe *PipelineError
			if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Stage != "subgraph_match" {
				t.Fatalf("error = %v, want a subgraph_match cancellation", err)
			}
			matched := 0
			for _, c := range rs.groups.chunks {
				matched += c.linked
			}
			if matched != want {
				t.Errorf("stage matched %d of %d group pairs before stopping, want the %d of the first %d old households",
					matched, len(pairs), want, stopAt)
			}
		}
		if _, err := link(context.Background(), old, new, cfg, hook); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fail-fast", func(t *testing.T) {
		defer faultinject.Reset()
		var hits atomic.Uint64
		faultinject.Set("linkage.subgraph_match.chunk", func() error {
			if hits.Add(1) == 1 {
				panic("household crash")
			}
			return nil
		})
		_, err := LinkContext(context.Background(), old, new, cfg)
		var pe *PipelineError
		if !errors.As(err, &pe) || pe.Stage != "subgraph_match" || pe.Chunk != 0 || pe.Panic == nil {
			t.Fatalf("error = %v, want a subgraph_match panic in chunk 0", err)
		}
		if got := hits.Load(); got != 1 {
			t.Errorf("pool claimed %d chunks, want it to stop at chunk 0", got)
		}
	})
}

// TestSubgraphChunkPanic: a failure at the subgraph_match chunk fault point,
// passed once per chunk of old households before any of its group pairs is
// matched.
//
//   - cancel: cancelling from the first chunk's fault point aborts a
//     four-worker link with a subgraph_match cancellation and no result.
//   - fail-fast: a panic at the fault point of the first or the last chunk
//     of the first pass, or an injected failure, fails a one-worker link
//     with a subgraph_match PipelineError naming that chunk.
//   - skip: under PanicSkip the same failures are counted once and the
//     link completes without that chunk's group pairs.
func TestSubgraphChunkPanic(t *testing.T) {
	old, new := subgraphFaultPair(t)
	cfg := DefaultConfig()
	cfg.Workers = 1

	t.Run("cancel", func(t *testing.T) {
		defer faultinject.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faultinject.Set("linkage.subgraph_match.chunk", func() error {
			cancel()
			return nil
		})
		cfg := cfg
		cfg.Workers = 4
		res, err := LinkContext(ctx, old, new, cfg)
		if res != nil {
			t.Error("cancelled run returned a partial result")
		}
		var pe *PipelineError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Stage != "subgraph_match" {
			t.Fatalf("error = %v, want a subgraph_match cancellation", err)
		}
	})

	// A one-worker pass has four chunks.
	errInjected := errors.New("injected subgraph_match failure")
	failures := []struct {
		name string
		call uint64
		hook func(uint64) func() error
	}{
		{"panic1", 1, func(n uint64) func() error { return faultinject.PanicOnCall(n, "household crash") }},
		{"panic4", 4, func(n uint64) func() error { return faultinject.PanicOnCall(n, "household crash") }},
		{"fail", 1, func(n uint64) func() error { return faultinject.FailOnCall(n, errInjected) }},
	}
	t.Run("fail-fast", func(t *testing.T) {
		for _, f := range failures {
			t.Run(f.name, func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Set("linkage.subgraph_match.chunk", f.hook(f.call))
				_, err := LinkContext(context.Background(), old, new, cfg)
				var pe *PipelineError
				if !errors.As(err, &pe) || pe.Stage != "subgraph_match" || pe.Chunk != int(f.call)-1 {
					t.Fatalf("error = %v, want a subgraph_match failure in chunk %d", err, f.call-1)
				}
				if f.name == "fail" != errors.Is(err, errInjected) {
					t.Errorf("error = %v, injected failure %t", err, f.name == "fail")
				}
			})
		}
	})
	t.Run("skip", func(t *testing.T) {
		for _, f := range failures {
			t.Run(f.name, func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Set("linkage.subgraph_match.chunk", f.hook(f.call))
				cfg := cfg
				cfg.Panics = PanicSkip
				cfg.Obs = obs.NewStats(nil)
				if _, err := LinkContext(context.Background(), old, new, cfg); err != nil {
					t.Fatalf("skip policy did not absorb the chunk failure: %v", err)
				}
				if got := cfg.Obs.Total(obs.PanicsRecovered); got != 1 {
					t.Errorf("panics_recovered = %d, want 1", got)
				}
			})
		}
	})
}

// TestSubgraphMatchPairPanic: a real panic inside one group pair's match,
// from a nil household graph planted for one new household in the first
// pass, fails the link under PanicFailFast with a subgraph_match
// PipelineError naming the first pair that reaches the household, and
// under PanicSkip is counted once while the link completes without the
// group pairs of that pair's chunk.
func TestSubgraphMatchPairPanic(t *testing.T) {
	const workers = 2
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 29), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	// A clean link's first pass: its linked group pairs, the old
	// households' chunk size, and the pairs that matched a subgraph.
	var (
		pairs        []uint64
		oldHH, newHH householdIndex
		size         int
		matched      = map[GroupPair]bool{}
	)
	first := true
	clean := func(rs *runState, delta float64, _, _ []*census.Record, pre *PreMatchResult, _ []RecordLink) {
		if pre == nil || !first {
			return
		}
		first = false
		oldHH, newHH = rs.oldHH, rs.newHH
		pairs = candidateGroupPairs(pre, oldHH, newHH)
		size = perWorker(len(oldHH.ids), 4*workers)
		subs, _, _, err := rs.subgraphMatch(context.Background(), delta, pre)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			matched[GroupPair{Old: s.OldGroup, New: s.NewGroup}] = true
		}
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Obs = obs.NewStats(nil)
	if _, err := link(context.Background(), old, new, cfg, clean); err != nil {
		t.Fatal(err)
	}
	cleanPass := cfg.Obs.Report().Iterations[0]

	// The poisoned new household: the first whose pairs fall in one chunk
	// and include one that matched a subgraph. want is its first pair.
	chunkOf := func(k uint64) int { ho, _ := unpackPair(k); return int(ho) / size }
	var poison int32 = -1
	var want GroupPair
	var chunk int
	for _, k := range pairs {
		_, hn := unpackPair(k)
		if !matched[groupPair(k, oldHH, newHH)] {
			continue
		}
		var own []uint64
		for _, k2 := range pairs {
			if _, hn2 := unpackPair(k2); hn2 == hn {
				own = append(own, k2)
			}
		}
		if chunkOf(own[0]) == chunkOf(own[len(own)-1]) {
			poison, want, chunk = hn, groupPair(own[0], oldHH, newHH), chunkOf(own[0])
			break
		}
	}
	if poison < 0 {
		t.Fatal("no matched new household whose group pairs fall in one chunk")
	}
	// The chunk's share of the clean first pass.
	dropPairs, dropSubs := 0, 0
	for _, k := range pairs {
		if chunkOf(k) == chunk {
			dropPairs++
			if matched[groupPair(k, oldHH, newHH)] {
				dropSubs++
			}
		}
	}

	for _, policy := range []PanicPolicy{PanicFailFast, PanicSkip} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := cfg
			cfg.Panics = policy
			cfg.Obs = obs.NewStats(nil)
			calls := 0
			plant := func(rs *runState, _ float64, _, _ []*census.Record, _ *PreMatchResult, _ []RecordLink) {
				// Poison the first pass only, and restore the graph for the
				// passes after it.
				if calls++; calls == 1 {
					rs.newHH.graphs[poison] = nil
				} else {
					rs.newHH.graphs[poison] = newHH.graphs[poison]
				}
			}
			_, err := link(context.Background(), old, new, cfg, plant)
			if policy == PanicFailFast {
				var pe *PipelineError
				if !errors.As(err, &pe) || pe.Stage != "subgraph_match" || pe.Panic == nil || pe.Chunk != -1 {
					t.Fatalf("error = %v, want a subgraph_match panic naming its group pair", err)
				}
				if pe.Group != want {
					t.Errorf("PipelineError.Group = %+v, want %+v", pe.Group, want)
				}
				if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("group pair %s->%s", want.Old, want.New)) {
					t.Errorf("error message %q does not name the group pair", msg)
				}
				return
			}
			if err != nil {
				t.Fatalf("skip policy did not absorb the panic: %v", err)
			}
			if got := cfg.Obs.Total(obs.PanicsRecovered); got != 1 {
				t.Errorf("panics_recovered = %d, want 1", got)
			}
			pass := cfg.Obs.Report().Iterations[0]
			if got, want := pass.Count(obs.GroupPairs), cleanPass.Count(obs.GroupPairs)-int64(dropPairs); got != want {
				t.Errorf("first pass group_pairs = %d, want %d (clean %d less the skipped chunk's %d)",
					got, want, cleanPass.Count(obs.GroupPairs), dropPairs)
			}
			if got, want := pass.Count(obs.Subgraphs), cleanPass.Count(obs.Subgraphs)-int64(dropSubs); got != want || dropSubs == 0 {
				t.Errorf("first pass subgraphs = %d, want %d (clean %d less the skipped chunk's %d)",
					got, want, cleanPass.Count(obs.Subgraphs), dropSubs)
			}
		})
	}
}
