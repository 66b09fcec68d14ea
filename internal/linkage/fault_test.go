package linkage_test

// Fault-injection tests for the pipeline's robustness guarantees: worker
// panics become typed errors naming the offending work item (fail-fast) or
// are absorbed and counted (skip), and cancellation aborts promptly from
// any stage. All tests arm the process-global faultinject registry, so none
// of them may call t.Parallel().

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"censuslink/internal/faultinject"
	"censuslink/internal/hgraph"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/paperexample"
	"censuslink/internal/synth"
)

func faultConfig(workers int) linkage.Config {
	cfg := linkage.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

func skipWithoutInjection(t *testing.T) {
	t.Helper()
	if !faultinject.Enabled {
		t.Skip("built with nofaultinject: registry compiled out")
	}
}

func TestWorkerPanicFailFast(t *testing.T) {
	skipWithoutInjection(t)
	defer faultinject.Reset()
	faultinject.Set("linkage.subgraph_match.chunk", faultinject.PanicOnCall(1, "poisoned household"))

	old, new := paperexample.Old(), paperexample.New()
	_, err := linkage.LinkContext(context.Background(), old, new, faultConfig(2))
	if err == nil {
		t.Fatal("injected worker panic did not fail the run")
	}
	var pe *linkage.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("error type = %T, want *PipelineError (%v)", err, err)
	}
	if pe.Panic == nil {
		t.Errorf("PipelineError.Panic = nil, want the recovered value")
	}
	if len(pe.Stack) == 0 {
		t.Errorf("PipelineError.Stack empty, want the worker stack trace")
	}
	if pe.Group.Old == "" || pe.Group.New == "" {
		t.Errorf("PipelineError.Group = %+v, want the offending group pair", pe.Group)
	}
	if pe.Canceled() {
		t.Errorf("panic reported as cancellation: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "group pair") || !strings.Contains(msg, "poisoned household") {
		t.Errorf("error message %q does not name the group pair and panic value", msg)
	}
}

func TestWorkerPanicSkipCompletes(t *testing.T) {
	skipWithoutInjection(t)
	defer faultinject.Reset()
	faultinject.Set("linkage.subgraph_match.chunk", faultinject.PanicOnCall(1, "poisoned household"))

	stats := obs.NewStats(nil)
	cfg := faultConfig(2)
	cfg.Panics = linkage.PanicSkip
	cfg.Obs = stats
	old, new := paperexample.Old(), paperexample.New()
	res, err := linkage.LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatalf("skip policy did not absorb the panic: %v", err)
	}
	if res == nil || len(res.RecordLinks) == 0 {
		t.Fatal("skip policy produced no result")
	}
	if got := stats.Total(obs.PanicsRecovered); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

func TestPreMatchChunkPanic(t *testing.T) {
	skipWithoutInjection(t)
	old, new := paperexample.Old(), paperexample.New()

	t.Run("fail-fast", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Set("linkage.prematch.chunk", faultinject.PanicOnCall(1, "chunk crash"))
		_, err := linkage.LinkContext(context.Background(), old, new, faultConfig(2))
		var pe *linkage.PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("error = %v, want *PipelineError", err)
		}
		if pe.Stage != "prematch" || pe.Chunk < 0 {
			t.Errorf("stage=%q chunk=%d, want a prematch chunk failure", pe.Stage, pe.Chunk)
		}
	})
	t.Run("skip", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Set("linkage.prematch.chunk", faultinject.PanicOnCall(1, "chunk crash"))
		stats := obs.NewStats(nil)
		cfg := faultConfig(2)
		cfg.Panics = linkage.PanicSkip
		cfg.Obs = stats
		if _, err := linkage.LinkContext(context.Background(), old, new, cfg); err != nil {
			t.Fatalf("skip policy did not absorb the chunk panic: %v", err)
		}
		if got := stats.Total(obs.PanicsRecovered); got < 1 {
			t.Errorf("panics_recovered = %d, want >= 1", got)
		}
	})
}

// TestCompileChunkPanic: a panic while the compile stage builds the
// blocking index or the candidate table is reported as a compile-stage
// chunk failure, or skipped and counted.
func TestCompileChunkPanic(t *testing.T) {
	skipWithoutInjection(t)
	old, new := paperexample.Old(), paperexample.New()

	t.Run("fail-fast", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Set("linkage.compile.chunk", faultinject.PanicOnCall(1, "chunk crash"))
		_, err := linkage.LinkContext(context.Background(), old, new, faultConfig(2))
		var pe *linkage.PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("error = %v, want *PipelineError", err)
		}
		if pe.Stage != "compile" || pe.Chunk < 0 || pe.Panic == nil {
			t.Errorf("stage=%q chunk=%d panic=%v, want a compile chunk panic", pe.Stage, pe.Chunk, pe.Panic)
		}
	})
	// With two workers and the default passes the compile stage passes the
	// fault point eight times, in four rounds of two chunks: keying the new
	// records ("skip" fails the first), building the two strategies'
	// postings, querying the old records into the table, and interning the
	// old and the new records for the Sim engine, which the remainder pass
	// shares. A skipped keying chunk leaves its new records in no block, a
	// skipped table chunk its old records without candidates; either way
	// the link completes on a smaller candidate table. A link cannot go on
	// without a strategy's postings or a dataset's dictionaries, so a
	// failure there fails it under PanicSkip too.
	cleanCfg := faultConfig(2)
	cleanCfg.Obs = obs.NewStats(nil)
	var passes atomic.Int64
	faultinject.Set("linkage.compile.chunk", func() error {
		passes.Add(1)
		return nil
	})
	_, err := linkage.LinkContext(context.Background(), old, new, cleanCfg)
	faultinject.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if got := passes.Load(); got != 8 {
		t.Fatalf("compile stage passed its fault point %d times, want 8", got)
	}
	cleanPairs := cleanCfg.Obs.Total(obs.CandidateTablePairs)
	for _, c := range []struct {
		name  string
		call  uint64
		drops bool
	}{{"skip", 1, true}, {"skip-postings-chunk", 3, false}, {"skip-table-chunk", 5, true}, {"skip-dictionary-chunk", 7, false}} {
		t.Run(c.name, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Set("linkage.compile.chunk", faultinject.PanicOnCall(c.call, "chunk crash"))
			stats := obs.NewStats(nil)
			cfg := faultConfig(2)
			cfg.Panics = linkage.PanicSkip
			cfg.Obs = stats
			_, err := linkage.LinkContext(context.Background(), old, new, cfg)
			if !c.drops {
				var pe *linkage.PipelineError
				if !errors.As(err, &pe) || pe.Stage != "compile" || pe.Panic == nil {
					t.Fatalf("error = %v, want a compile chunk panic under PanicSkip", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("skip policy did not absorb the chunk panic: %v", err)
			}
			if got := stats.Total(obs.PanicsRecovered); got != 1 {
				t.Errorf("panics_recovered = %d, want 1", got)
			}
			if got := stats.Total(obs.CandidateTablePairs); got >= cleanPairs {
				t.Errorf("candidate table has %d pairs with a skipped chunk, %d without", got, cleanPairs)
			}
		})
	}
	t.Run("cancel", func(t *testing.T) {
		defer faultinject.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faultinject.Set("linkage.compile.chunk", func() error {
			cancel()
			return nil
		})
		_, err := linkage.LinkContext(ctx, old, new, faultConfig(2))
		var pe *linkage.PipelineError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Stage != "compile" {
			t.Fatalf("error = %v, want a compile-stage cancellation", err)
		}
	})
}

// TestCandidateGroupsChunkPanic: candidate_groups runs in chunks of old
// households on the pool. A panic or an injected failure in any chunk
// fails the link with a candidate_groups PipelineError naming the chunk,
// under PanicSkip too, since a dropped chunk would silently lose group
// pairs; cancelling from the fault point aborts the stage with a
// cancellation.
func TestCandidateGroupsChunkPanic(t *testing.T) {
	skipWithoutInjection(t)
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 29), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	// The first pass has more than one chunk, so a failure in a later chunk
	// is tested too.
	var passes atomic.Int64
	faultinject.Set("linkage.candidate_groups.chunk", func() error {
		passes.Add(1)
		return nil
	})
	clean, err := linkage.LinkContext(context.Background(), old, new, faultConfig(2))
	faultinject.Reset()
	if err != nil {
		t.Fatal(err)
	}
	perPass := passes.Load() / int64(len(clean.Iterations))
	if perPass < 2 {
		t.Fatalf("candidate_groups passed its fault point %d times per pass, want at least 2", perPass)
	}
	errInjected := errors.New("injected candidate_groups failure")
	for _, policy := range []linkage.PanicPolicy{linkage.PanicFailFast, linkage.PanicSkip} {
		for _, call := range []uint64{1, uint64(perPass)} {
			t.Run(fmt.Sprintf("%v/panic%d", policy, call), func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Set("linkage.candidate_groups.chunk", faultinject.PanicOnCall(call, "household crash"))
				cfg := faultConfig(2)
				cfg.Panics = policy
				_, err := linkage.LinkContext(context.Background(), old, new, cfg)
				var pe *linkage.PipelineError
				if !errors.As(err, &pe) || pe.Stage != "candidate_groups" || pe.Chunk < 0 || pe.Panic == nil {
					t.Fatalf("error = %v, want a candidate_groups chunk panic", err)
				}
			})
		}
		t.Run(fmt.Sprintf("%v/fail", policy), func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Set("linkage.candidate_groups.chunk", faultinject.FailOnCall(1, errInjected))
			cfg := faultConfig(2)
			cfg.Panics = policy
			_, err := linkage.LinkContext(context.Background(), old, new, cfg)
			var pe *linkage.PipelineError
			if !errors.Is(err, errInjected) || !errors.As(err, &pe) || pe.Stage != "candidate_groups" {
				t.Fatalf("error = %v, want the injected candidate_groups failure", err)
			}
		})
	}
	t.Run("cancel", func(t *testing.T) {
		defer faultinject.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faultinject.Set("linkage.candidate_groups.chunk", func() error {
			cancel()
			return nil
		})
		_, err := linkage.LinkContext(ctx, old, new, faultConfig(2))
		var pe *linkage.PipelineError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Stage != "candidate_groups" {
			t.Fatalf("error = %v, want a candidate_groups cancellation", err)
		}
	})
}

// TestBuildGraphsChunkPanic: build_graphs builds the two datasets'
// household graphs in two chunks on the pool. A panic in either fails the
// link with a build_graphs PipelineError naming the chunk, under PanicSkip
// too, since a link cannot go on without a year's households; cancelling
// from the fault point aborts the stage with a cancellation, with and
// without a graph cache.
func TestBuildGraphsChunkPanic(t *testing.T) {
	skipWithoutInjection(t)
	old, new := paperexample.Old(), paperexample.New()
	for _, policy := range []linkage.PanicPolicy{linkage.PanicFailFast, linkage.PanicSkip} {
		for call := uint64(1); call <= 2; call++ {
			t.Run(fmt.Sprintf("%v/call%d", policy, call), func(t *testing.T) {
				defer faultinject.Reset()
				faultinject.Set("linkage.build_graphs.chunk", faultinject.PanicOnCall(call, "graph crash"))
				cfg := faultConfig(2)
				cfg.Panics = policy
				cfg.GraphCache = hgraph.NewCache()
				_, err := linkage.LinkContext(context.Background(), old, new, cfg)
				var pe *linkage.PipelineError
				if !errors.As(err, &pe) || pe.Stage != "build_graphs" || pe.Chunk < 0 || pe.Panic == nil {
					t.Fatalf("error = %v, want a build_graphs chunk panic", err)
				}
				// The cache keeps no half-built entry: the same cache links
				// the pair afterwards.
				faultinject.Reset()
				if _, err := linkage.LinkContext(context.Background(), old, new, cfg); err != nil {
					t.Fatalf("link after the failed build: %v", err)
				}
			})
		}
	}
	for _, cache := range []*hgraph.Cache{nil, hgraph.NewCache()} {
		t.Run(fmt.Sprintf("cancel/cache=%t", cache != nil), func(t *testing.T) {
			defer faultinject.Reset()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			faultinject.Set("linkage.build_graphs.chunk", func() error {
				cancel()
				return nil
			})
			cfg := faultConfig(2)
			cfg.GraphCache = cache
			_, err := linkage.LinkContext(ctx, old, new, cfg)
			var pe *linkage.PipelineError
			if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Stage != "build_graphs" {
				t.Fatalf("error = %v, want a build_graphs cancellation", err)
			}
		})
	}
}

// TestSubgraphPoolStops: inside subgraph_match the chunk pool runs one
// group pair per chunk. Cancelling from the first pair's fault point
// aborts the stage with a cancellation once every worker has claimed at
// most one checkpoint interval (64 pairs) more, far fewer than the
// thousands of group pairs entering the pool in the first pass (the
// subgraph_candidates counter). A fail-fast panic on the first pair stops
// a one-worker pool at that pair.
func TestSubgraphPoolStops(t *testing.T) {
	skipWithoutInjection(t)
	const workers, checkpoint = 4, 64
	old, new, err := synth.GeneratePair(synth.TestConfig(0.1, 1871000), 1871, 1881)
	if err != nil {
		t.Fatal(err)
	}
	cleanCfg := faultConfig(workers)
	cleanCfg.Obs = obs.NewStats(nil)
	if _, err := linkage.LinkContext(context.Background(), old, new, cleanCfg); err != nil {
		t.Fatal(err)
	}
	pairs := cleanCfg.Obs.Report().Iterations[0].Count(obs.SubgraphCandidates)
	if pairs < 4*workers*checkpoint {
		t.Fatalf("%d group pairs enter the pool in the first pass; too few to see the pool stop", pairs)
	}

	t.Run("cancel", func(t *testing.T) {
		defer faultinject.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// after counts the pairs claimed once cancel has returned; the
		// scheduler may delay the cancelling worker, so pairs matched
		// before that do not count.
		var hits, after atomic.Int64
		var cancelled atomic.Bool
		faultinject.Set("linkage.subgraph_match.chunk", func() error {
			if hits.Add(1) == 1 {
				cancel()
				cancelled.Store(true)
			} else if cancelled.Load() {
				after.Add(1)
			}
			return nil
		})
		res, err := linkage.LinkContext(ctx, old, new, faultConfig(workers))
		if res != nil {
			t.Error("cancelled run returned a partial result")
		}
		var pe *linkage.PipelineError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) || pe.Stage != "subgraph_match" {
			t.Fatalf("error = %v, want a subgraph_match cancellation", err)
		}
		if got := after.Load(); got > workers*checkpoint {
			t.Errorf("pool matched %d of %d group pairs after the cancel, want at most %d",
				got, pairs, workers*checkpoint)
		}
	})
	t.Run("fail-fast", func(t *testing.T) {
		defer faultinject.Reset()
		var hits atomic.Int64
		faultinject.Set("linkage.subgraph_match.chunk", func() error {
			if hits.Add(1) == 1 {
				panic("poisoned household")
			}
			return nil
		})
		_, err := linkage.LinkContext(context.Background(), old, new, faultConfig(1))
		var pe *linkage.PipelineError
		if !errors.As(err, &pe) || pe.Stage != "subgraph_match" || pe.Group.Old == "" || pe.Panic == nil {
			t.Fatalf("error = %v, want a subgraph_match panic naming its group pair", err)
		}
		if got := hits.Load(); got != 1 {
			t.Errorf("pool matched %d of %d group pairs, want it to stop at the poisoned one", got, pairs)
		}
	})
}

// TestCancellationMidIteration cancels the context from inside a pre-matching
// chunk worker (the hook fires after the run has started) and checks that the
// pipeline aborts with the cancellation, not with a partial result.
func TestCancellationMidIteration(t *testing.T) {
	skipWithoutInjection(t)
	defer faultinject.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Set("linkage.prematch.chunk", func() error {
		cancel()
		return nil
	})

	old, new := paperexample.Old(), paperexample.New()
	res, err := linkage.LinkContext(ctx, old, new, faultConfig(2))
	if res != nil {
		t.Error("cancelled run returned a partial result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	var pe *linkage.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("error type = %T, want *PipelineError", err)
	}
	if !pe.Canceled() {
		t.Errorf("Canceled() = false for %v", err)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	old, new := paperexample.Old(), paperexample.New()
	_, err := linkage.LinkContext(ctx, old, new, faultConfig(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
}

func TestRemainderInjectedFailure(t *testing.T) {
	skipWithoutInjection(t)
	defer faultinject.Reset()
	errInjected := errors.New("injected remainder failure")
	faultinject.Set("linkage.remainder", faultinject.FailOnCall(1, errInjected))

	old, new := paperexample.Old(), paperexample.New()
	_, err := linkage.LinkContext(context.Background(), old, new, faultConfig(1))
	if !errors.Is(err, errInjected) {
		t.Fatalf("error = %v, want the injected failure", err)
	}
	var pe *linkage.PipelineError
	if !errors.As(err, &pe) || pe.Stage != "remainder" {
		t.Fatalf("error = %#v, want a remainder-stage PipelineError", err)
	}
}

// TestInjectionLayerTransparent proves the registry does not perturb the
// linkage: output is identical with the registry idle and with a hook armed
// on a point the pipeline never hits. (CI additionally builds and tests with
// -tags nofaultinject, covering the compiled-out variant.)
func TestInjectionLayerTransparent(t *testing.T) {
	skipWithoutInjection(t)
	defer faultinject.Reset()
	old, new := paperexample.Old(), paperexample.New()

	base, err := linkage.LinkContext(context.Background(), old, new, faultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set("unused.point", faultinject.FailOnCall(1, errors.New("never hit")))
	armed, err := linkage.LinkContext(context.Background(), old, new, faultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.RecordLinks, armed.RecordLinks) {
		t.Error("record links differ with an unrelated hook armed")
	}
	if !reflect.DeepEqual(base.GroupLinks, armed.GroupLinks) {
		t.Error("group links differ with an unrelated hook armed")
	}
}
