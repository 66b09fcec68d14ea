// Package obs is the observability layer of the linkage pipeline: a small,
// race-clean Stats collector with monotonic stage timers, named counters and
// one snapshot per δ iteration of Algorithm 1, plus a pluggable Sink so
// library code never writes to log or stdout directly.
//
// All Stats methods are safe on a nil receiver, so pipeline code reports
// unconditionally and a nil Config.Obs means "observability off" with zero
// branching at the call sites.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Counter names reported by the pipeline. Counters are free-form strings;
// these constants cover the stages of Algorithm 1.
const (
	// BlockingPairs counts raw candidate pairs generated by the blocking
	// index across all strategies, before cross-strategy deduplication.
	BlockingPairs = "blocking_pairs"
	// PairsCompared counts distinct candidate pairs actually compared with
	// the record similarity function.
	PairsCompared = "pairs_compared"
	// CandidateLinks counts compared pairs whose similarity reached δ.
	CandidateLinks = "candidate_links"
	// ClusterLabels counts the transitive-closure cluster labels of the
	// pre-matching result.
	ClusterLabels = "cluster_labels"
	// GroupPairs counts candidate group (household) pairs examined.
	GroupPairs = "group_pairs"
	// Subgraphs counts non-empty matched subgraphs extracted.
	Subgraphs = "subgraphs"
	// GroupLinks counts group links newly selected by Algorithm 2.
	GroupLinks = "group_links"
	// RecordLinks counts record links extracted from accepted subgraphs.
	RecordLinks = "record_links"
	// RemainderLinks counts record links from the final Sim_func_rem pass.
	RemainderLinks = "remainder_links"
	// RemainderGroupLinks counts group links derived from remainder record
	// links (extractGroupLinks of Algorithm 1) rather than selected by
	// Algorithm 2; GroupLinks + RemainderGroupLinks is the full mapping.
	RemainderGroupLinks = "remainder_group_links"
	// EvolutionVertices and EvolutionEdges size the evolution graph.
	EvolutionVertices = "evolution_vertices"
	EvolutionEdges    = "evolution_edges"
	// SimCacheHits and SimCacheMisses are no longer emitted: they counted
	// the hits and misses of the compiled engine's similarity memo, which
	// was deleted. The names stay only because the benchmark module reads
	// them (bench/calls.go), where they now read 0.
	SimCacheHits   = "sim_cache_hits"
	SimCacheMisses = "sim_cache_misses"
	// PrunedComparisons counts record pairs the compiled engine cut short
	// because the remaining-weight upper bound proved they could not reach
	// the threshold δ.
	PrunedComparisons = "pruned_comparisons"
	// CandidateTablePairs counts the entries of the candidate table the
	// compile stage builds: the distinct blocked pairs of the year pair,
	// each scored at most once per link.
	CandidateTablePairs = "candidate_table_pairs"
	// CandidateTableBytes is the memory the candidate table and its
	// per-entry resumable scores hold for the whole link.
	CandidateTableBytes = "candidate_table_bytes"
	// PanicsRecovered counts worker panics absorbed under the skip-and-count
	// panic policy (linkage.PanicSkip); it stays 0 under fail-fast, where the
	// first panic aborts the run instead.
	PanicsRecovered = "panics_recovered"
	// StoreHits counts year-pair results served from the persistent snapshot
	// store instead of being recomputed (internal/store).
	StoreHits = "store_hits"
	// StoreMisses counts store lookups that found no snapshot for the
	// (config fingerprint, dataset hashes) key, so the pair was computed.
	StoreMisses = "store_misses"
	// StoreCorrupt counts snapshots that existed but were rejected — corrupt
	// payload, truncated file or format-version mismatch — and therefore
	// recomputed and overwritten.
	StoreCorrupt = "store_corrupt"
	// StoreIOErrors counts snapshot-store operations that failed at the I/O
	// layer (unreadable directory, failed sync, lock trouble) — the signal
	// feeding the server's degraded-mode state machine.
	StoreIOErrors = "store_io_errors"
	// StoreSaveErrors counts freshly computed results whose write-through to
	// the store failed; the result is still served from memory.
	StoreSaveErrors = "store_save_errors"
	// StoreRefreshLoads counts pair results warm-loaded by the background
	// replica-refresh loop — snapshots another replica computed and this one
	// adopted without running the pipeline.
	StoreRefreshLoads = "store_refresh_loads"
	// StoreRecoveries counts degraded→healthy transitions of the store.
	StoreRecoveries = "store_recoveries"
)

// StageStats aggregates the timer of one named pipeline stage.
type StageStats struct {
	Calls   int           `json:"calls"`
	TotalNS time.Duration `json:"total_ns"`
}

// Iteration is the counter snapshot of one δ round of Algorithm 1.
type Iteration struct {
	Delta     float64          `json:"delta"`
	Counters  map[string]int64 `json:"counters"`
	ElapsedNS time.Duration    `json:"elapsed_ns"`
}

// Count returns a counter of the iteration (0 when absent).
func (it Iteration) Count(name string) int64 { return it.Counters[name] }

// Report is the JSON-serializable outcome of one observed run: the
// per-iteration snapshots, the per-stage wall-clock totals, and the counter
// totals across the whole run (iterations plus non-iterative stages such as
// the remainder pass).
type Report struct {
	Iterations []Iteration           `json:"iterations"`
	Stages     map[string]StageStats `json:"stages"`
	Counters   map[string]int64      `json:"counters"`
	// Gauges holds max-tracked measurements — notably the peak-memory
	// gauges SampleMem records at every stage boundary — so that
	// memory-bounded claims are measured, not asserted. Absent when
	// nothing was sampled.
	Gauges    map[string]int64 `json:"gauges,omitempty"`
	ElapsedNS time.Duration    `json:"elapsed_ns"`
}

// GaugeNames returns the gauge names sorted for deterministic rendering.
func (r *Report) GaugeNames() []string {
	names := make([]string, 0, len(r.Gauges))
	for n := range r.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StageNames returns the stage names sorted for deterministic rendering.
func (r *Report) StageNames() []string {
	names := make([]string, 0, len(r.Stages))
	for n := range r.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterNames returns the run-total counter names, sorted.
func (r *Report) CounterNames() []string {
	names := make([]string, 0, len(r.Counters))
	for n := range r.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats collects stage timings, counters and per-iteration snapshots for
// one pipeline run. The zero value is not useful; construct with NewStats.
// A nil *Stats is valid and ignores every call. All methods are
// goroutine-safe.
type Stats struct {
	mu      sync.Mutex
	sink    Sink
	started time.Time
	stages  map[string]*StageStats
	totals  map[string]int64
	gauges  map[string]int64
	iters   []Iteration
	cur     *Iteration
	curFrom time.Time
}

// NewStats creates a collector reporting to the given sink (nil: NopSink).
func NewStats(sink Sink) *Stats {
	if sink == nil {
		sink = NopSink{}
	}
	return &Stats{
		sink:    sink,
		started: time.Now(),
		stages:  make(map[string]*StageStats),
		totals:  make(map[string]int64),
		gauges:  make(map[string]int64),
	}
}

// Stage starts a monotonic timer for the named stage and returns the stop
// function; each start/stop adds one call and its duration to the stage's
// aggregate and notifies the sink. Usage: defer s.Stage("prematch")().
func (s *Stats) Stage(name string) func() {
	if s == nil {
		return func() {}
	}
	start := time.Now() // carries the monotonic clock reading
	return func() {
		d := time.Since(start)
		if d < 0 {
			d = 0 // defensive: time.Since is monotonic, never negative
		}
		s.mu.Lock()
		st := s.stages[name]
		if st == nil {
			st = &StageStats{}
			s.stages[name] = st
		}
		st.Calls++
		st.TotalNS += d
		sink := s.sink
		s.mu.Unlock()
		// Memory is sampled at every stage boundary, so the report's peak
		// gauges bracket whichever stage allocated the most. Stages are
		// coarse (a handful per δ-iteration), so the ReadMemStats cost is
		// invisible next to the stage work itself.
		s.SampleMem()
		sink.StageDone(name, d)
	}
}

// SetMax records a max-tracked gauge: the stored value only ever grows.
// SampleMem uses it for the peak-memory gauges; any monotone high-water
// measurement fits.
func (s *Stats) SetMax(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if v > s.gauges[name] {
		s.gauges[name] = v
	}
	s.mu.Unlock()
}

// Add increments a named counter: on the run totals always, and on the
// current iteration snapshot when one is open.
func (s *Stats) Add(name string, n int) {
	if s == nil || n == 0 {
		return
	}
	s.mu.Lock()
	s.totals[name] += int64(n)
	if s.cur != nil {
		s.cur.Counters[name] += int64(n)
	}
	s.mu.Unlock()
}

// BeginIteration opens the snapshot of one δ round. An iteration left open
// is closed implicitly (EndIteration) first.
func (s *Stats) BeginIteration(delta float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.cur != nil {
		s.closeIterationLocked()
	}
	s.cur = &Iteration{Delta: delta, Counters: make(map[string]int64)}
	s.curFrom = time.Now()
	s.mu.Unlock()
}

// EndIteration closes the open snapshot, appends it to the report and
// notifies the sink. Calls without an open iteration are ignored.
func (s *Stats) EndIteration() {
	if s == nil {
		return
	}
	s.mu.Lock()
	it, ok := s.closeIterationLocked()
	sink := s.sink
	s.mu.Unlock()
	if ok {
		sink.IterationDone(it)
	}
}

func (s *Stats) closeIterationLocked() (Iteration, bool) {
	if s.cur == nil {
		return Iteration{}, false
	}
	it := *s.cur
	it.ElapsedNS = time.Since(s.curFrom)
	s.iters = append(s.iters, it)
	s.cur = nil
	return it, true
}

// Merge folds a finished report into this collector: counters and stage
// aggregates are added, iteration snapshots are appended in the report's
// order. LinkSeriesOpts uses it to give every concurrently linked year pair
// its own child collector and still deliver one coherent series report —
// merged in pair order, so iteration snapshots never interleave across
// pairs no matter how the pool scheduled them.
func (s *Stats) Merge(r *Report) {
	if s == nil || r == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, v := range r.Counters {
		s.totals[n] += v
	}
	for n, st := range r.Stages {
		dst := s.stages[n]
		if dst == nil {
			dst = &StageStats{}
			s.stages[n] = dst
		}
		dst.Calls += st.Calls
		dst.TotalNS += st.TotalNS
	}
	// Gauges are high-water marks, so merging keeps the max rather than
	// summing: the peak of a series run is the largest per-pair peak.
	for n, v := range r.Gauges {
		if v > s.gauges[n] {
			s.gauges[n] = v
		}
	}
	for _, it := range r.Iterations {
		c := make(map[string]int64, len(it.Counters))
		for k, v := range it.Counters {
			c[k] = v
		}
		it.Counters = c
		s.iters = append(s.iters, it)
	}
}

// Iterations returns a copy of the closed iteration snapshots so far.
func (s *Stats) Iterations() []Iteration {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Iteration(nil), s.iters...)
}

// Total returns the run-total value of a counter.
func (s *Stats) Total(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals[name]
}

// Report snapshots the collected data. An open iteration is closed first.
// The report is a deep copy: further collection does not mutate it.
func (s *Stats) Report() *Report {
	if s == nil {
		return &Report{Stages: map[string]StageStats{}, Counters: map[string]int64{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeIterationLocked()
	r := &Report{
		Iterations: append([]Iteration(nil), s.iters...),
		Stages:     make(map[string]StageStats, len(s.stages)),
		Counters:   make(map[string]int64, len(s.totals)),
		ElapsedNS:  time.Since(s.started),
	}
	for i, it := range r.Iterations {
		c := make(map[string]int64, len(it.Counters))
		for k, v := range it.Counters {
			c[k] = v
		}
		r.Iterations[i].Counters = c
	}
	for n, st := range s.stages {
		r.Stages[n] = *st
	}
	for n, v := range s.totals {
		r.Counters[n] = v
	}
	if len(s.gauges) > 0 {
		r.Gauges = make(map[string]int64, len(s.gauges))
		for n, v := range s.gauges {
			r.Gauges[n] = v
		}
	}
	return r
}

// Done finalizes the run: it builds the report, hands it to the sink's
// RunDone and returns it.
func (s *Stats) Done() *Report {
	r := s.Report()
	if s != nil {
		s.mu.Lock()
		sink := s.sink
		s.mu.Unlock()
		sink.RunDone(r)
	}
	return r
}
