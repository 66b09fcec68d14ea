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

// TestWorkerPanicFailFast: a panic at the fault point of the first
// subgraph_match chunk, before any group pair is matched, fails the link
// with a PipelineError that names the stage and the chunk of old
// households and carries the panic value and stack.
func TestWorkerPanicFailFast(t *testing.T) {
	skipWithoutInjection(t)
	defer faultinject.Reset()
	faultinject.Set("linkage.subgraph_match.chunk", faultinject.PanicOnCall(1, "poisoned household"))

	old, new := paperexample.Old(), paperexample.New()
	_, err := linkage.LinkContext(context.Background(), old, new, faultConfig(1))
	if err == nil {
		t.Fatal("injected worker panic did not fail the run")
	}
	var pe *linkage.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("error type = %T, want *PipelineError (%v)", err, err)
	}
	if pe.Stage != "subgraph_match" || pe.Chunk != 0 || pe.Group != (linkage.GroupPair{}) {
		t.Errorf("stage=%q chunk=%d group=%+v, want subgraph_match chunk 0 and no group pair", pe.Stage, pe.Chunk, pe.Group)
	}
	if pe.Panic == nil {
		t.Errorf("PipelineError.Panic = nil, want the recovered value")
	}
	if len(pe.Stack) == 0 {
		t.Errorf("PipelineError.Stack empty, want the worker stack trace")
	}
	if pe.Canceled() {
		t.Errorf("panic reported as cancellation: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "chunk 0") || !strings.Contains(msg, "poisoned household") {
		t.Errorf("error message %q does not name the chunk and panic value", msg)
	}
}

// TestWorkerPanicSkipCompletes: under PanicSkip the same panic is counted
// once and the link completes without the group pairs of the skipped
// chunk: the running example's first old household is the first of two
// chunks, and two of the first pass's four group pairs are its.
func TestWorkerPanicSkipCompletes(t *testing.T) {
	skipWithoutInjection(t)
	old, new := paperexample.Old(), paperexample.New()
	cleanCfg := faultConfig(2)
	cleanCfg.Obs = obs.NewStats(nil)
	if _, err := linkage.LinkContext(context.Background(), old, new, cleanCfg); err != nil {
		t.Fatal(err)
	}

	defer faultinject.Reset()
	faultinject.Set("linkage.subgraph_match.chunk", faultinject.PanicOnCall(1, "poisoned household"))
	stats := obs.NewStats(nil)
	cfg := faultConfig(2)
	cfg.Panics = linkage.PanicSkip
	cfg.Obs = stats
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
	clean, skipped := cleanCfg.Obs.Report().Iterations[0], stats.Report().Iterations[0]
	if c, s := clean.Count(obs.GroupPairs), skipped.Count(obs.GroupPairs); c != 4 || s != 2 {
		t.Errorf("first pass group_pairs = %d clean, %d with a skipped chunk, want 4 and 2", c, s)
	}
	if c, s := clean.Count(obs.Subgraphs), skipped.Count(obs.Subgraphs); s >= c {
		t.Errorf("first pass subgraphs = %d clean, %d with a skipped chunk, want fewer", c, s)
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
