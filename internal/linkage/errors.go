package linkage

import (
	"context"
	"errors"
	"fmt"
)

// PanicPolicy decides what a pool worker panic does to the run.
type PanicPolicy int

const (
	// PanicFailFast aborts the run on the first worker panic, surfacing it
	// as a *PipelineError that names the offending work item. The default.
	PanicFailFast PanicPolicy = iota
	// PanicSkip absorbs worker panics: the offending chunk contributes
	// nothing (a subgraph_match chunk drops the group pairs of its old
	// households), the panic is counted on the obs.PanicsRecovered
	// counter, and the run completes on the remaining work. Use for dirty
	// data where one poisoned household must not sink a multi-hour run.
	PanicSkip
)

// String names the policy.
func (p PanicPolicy) String() string {
	if p == PanicSkip {
		return "skip"
	}
	return "fail-fast"
}

// PipelineError is the typed failure of a linkage pipeline run: a
// cooperative cancellation observed at a checkpoint, or a panic recovered
// in a pool worker. It records where the pipeline stopped (stage, δ) and
// which work item was at fault, so an aborted multi-hour run is
// attributable without re-running it under a debugger.
type PipelineError struct {
	// Stage is the pipeline stage that failed ("prematch",
	// "subgraph_match", "remainder", "iterate", ...), matching the obs
	// stage-timer names.
	Stage string
	// Delta is the pre-matching threshold in effect, or 0 outside the
	// iteration loop.
	Delta float64
	// Group is the group pair a subgraph_match worker was matching when
	// it failed; both fields are empty otherwise.
	Group GroupPair
	// Chunk is the offending chunk index of the stage's pool, or -1 when
	// the failure is not chunk-scoped or Group names it.
	Chunk int
	// Panic is the recovered panic value for worker crashes, nil for
	// cancellations.
	Panic any
	// Stack is the stack trace of the panicking worker goroutine, nil for
	// cancellations.
	Stack []byte
	// Err is the underlying cause: context.Canceled, context.DeadlineExceeded,
	// or an injected/worker failure. errors.Is/As see through it.
	Err error
}

// Error renders the failure with its pipeline location and work item.
func (e *PipelineError) Error() string {
	loc := e.Stage
	if e.Delta > 0 {
		loc = fmt.Sprintf("%s (delta=%.2f)", e.Stage, e.Delta)
	}
	item := ""
	switch {
	case e.Group != (GroupPair{}):
		item = fmt.Sprintf(" on group pair %s->%s", e.Group.Old, e.Group.New)
	case e.Chunk >= 0:
		item = fmt.Sprintf(" on chunk %d", e.Chunk)
	}
	if e.Panic != nil {
		return fmt.Sprintf("linkage: panic in %s worker%s: %v", loc, item, e.Panic)
	}
	return fmt.Sprintf("linkage: %s%s: %v", loc, item, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is and errors.As.
func (e *PipelineError) Unwrap() error { return e.Err }

// Canceled reports whether the error is a cooperative cancellation rather
// than a worker failure.
func (e *PipelineError) Canceled() bool {
	return errors.Is(e.Err, context.Canceled) || errors.Is(e.Err, context.DeadlineExceeded)
}

// SeriesError is the typed failure of a series linkage run (LinkSeriesOpts
// and friends): it names the year pair that failed and how many of the
// series' pairs completed before the run stopped. The completed results are
// returned alongside this error — in incremental mode they have already
// been checkpointed to the store, so a re-run resumes from them instead of
// recomputing the whole series.
type SeriesError struct {
	// OldYear and NewYear identify the failing pair.
	OldYear, NewYear int
	// Completed is how many pair results are available despite the failure.
	Completed int
	// Pairs is the total number of successive pairs in the series.
	Pairs int
	// Err is the underlying per-pair failure (usually a *PipelineError);
	// errors.Is/As see through it.
	Err error
}

// Error renders the failing pair and the checkpoint progress.
func (e *SeriesError) Error() string {
	return fmt.Sprintf("linkage: pair %d-%d: %v (%d of %d pairs completed)",
		e.OldYear, e.NewYear, e.Err, e.Completed, e.Pairs)
}

// Unwrap exposes the underlying cause to errors.Is and errors.As.
func (e *SeriesError) Unwrap() error { return e.Err }

// cancelErr wraps a context error observed at a pipeline checkpoint.
func cancelErr(stage string, delta float64, err error) *PipelineError {
	return &PipelineError{Stage: stage, Delta: delta, Chunk: -1, Err: err}
}

// panicErr wraps a panic value recovered in a pool worker.
func panicErr(stage string, delta float64, v any, stack []byte) *PipelineError {
	return &PipelineError{
		Stage: stage,
		Delta: delta,
		Chunk: -1,
		Panic: v,
		Stack: stack,
		Err:   fmt.Errorf("worker panic: %v", v),
	}
}
