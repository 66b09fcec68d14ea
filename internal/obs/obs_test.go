package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStageTimerMonotonicity: stage durations come from the monotonic
// clock, are never negative, and only grow as calls accumulate.
func TestStageTimerMonotonicity(t *testing.T) {
	s := NewStats(nil)
	var last time.Duration
	for i := 0; i < 5; i++ {
		stop := s.Stage("work")
		time.Sleep(time.Millisecond)
		stop()
		r := s.Report()
		st := r.Stages["work"]
		if st.Calls != i+1 {
			t.Fatalf("after %d calls: Calls = %d", i+1, st.Calls)
		}
		if st.TotalNS < last {
			t.Fatalf("stage total went backwards: %v -> %v", last, st.TotalNS)
		}
		if st.TotalNS <= 0 {
			t.Fatalf("non-positive stage total %v", st.TotalNS)
		}
		last = st.TotalNS
	}
	if e := s.Report().ElapsedNS; e < last {
		t.Fatalf("run elapsed %v below stage total %v", e, last)
	}
}

// sink keeps allocations reachable so the compiler cannot drop them.
var sink [][]byte

// TestStageAllocBytes: a stage records about the heap its calls allocate
// (the runtime counts small objects a span at a time, so the figure may
// lag by a few spans), an idle call adds little, and Merge and the JSON
// report carry the figure.
func TestStageAllocBytes(t *testing.T) {
	s := NewStats(nil)
	stop := s.Stage("work")
	for range 256 {
		sink = append(sink, make([]byte, 1<<14))
	}
	stop()
	sink = nil
	work := s.Report().Stages["work"].AllocBytes
	if work < 3<<20 {
		t.Fatalf("stage allocating 4 MiB recorded %d bytes", work)
	}
	s.Stage("idle")()
	if idle := s.Report().Stages["idle"].AllocBytes; idle >= 1<<20 {
		t.Errorf("idle stage recorded %d bytes", idle)
	}
	merged := NewStats(nil)
	merged.Merge(s.Report())
	merged.Merge(s.Report())
	if got := merged.Report().Stages["work"].AllocBytes; got != 2*work {
		t.Errorf("merged %d bytes, want %d", got, 2*work)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, s.Report()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"alloc_bytes"`) {
		t.Errorf("JSON report has no alloc_bytes: %s", buf.String())
	}
}

// TestCounterAggregationAcrossIterations: counters land on the open
// iteration snapshot and on the run totals; totals span all iterations
// plus counts added outside any iteration (the remainder pass).
func TestCounterAggregationAcrossIterations(t *testing.T) {
	s := NewStats(nil)
	deltas := []float64{0.7, 0.65, 0.6}
	for i, d := range deltas {
		s.BeginIteration(d)
		s.Add(PairsCompared, 100*(i+1))
		s.Add(CandidateLinks, 10*(i+1))
		s.Add(CandidateLinks, 1) // accumulation within one iteration
		s.EndIteration()
	}
	s.Add(RemainderLinks, 7) // outside any iteration: totals only

	r := s.Report()
	if len(r.Iterations) != len(deltas) {
		t.Fatalf("%d iterations, want %d", len(r.Iterations), len(deltas))
	}
	for i, it := range r.Iterations {
		if it.Delta != deltas[i] {
			t.Errorf("iteration %d delta = %v, want %v", i, it.Delta, deltas[i])
		}
		if got, want := it.Count(PairsCompared), int64(100*(i+1)); got != want {
			t.Errorf("iteration %d compared = %d, want %d", i, got, want)
		}
		if got, want := it.Count(CandidateLinks), int64(10*(i+1)+1); got != want {
			t.Errorf("iteration %d links = %d, want %d", i, got, want)
		}
	}
	if got := r.Counters[PairsCompared]; got != 600 {
		t.Errorf("total compared = %d, want 600", got)
	}
	if got := r.Counters[CandidateLinks]; got != 63 {
		t.Errorf("total links = %d, want 63", got)
	}
	if got := r.Counters[RemainderLinks]; got != 7 {
		t.Errorf("total remainder = %d, want 7", got)
	}
	for _, it := range r.Iterations {
		if _, ok := it.Counters[RemainderLinks]; ok {
			t.Error("remainder count leaked into an iteration snapshot")
		}
	}
}

// TestReportJSONRoundTrip: WriteReport/ReadReport preserve the report.
func TestReportJSONRoundTrip(t *testing.T) {
	s := NewStats(nil)
	s.BeginIteration(0.7)
	s.Add(PairsCompared, 42)
	s.Add(GroupLinks, 3)
	s.EndIteration()
	stop := s.Stage("prematch")
	stop()
	s.Add(RemainderLinks, 5)
	want := s.Report()

	var buf bytes.Buffer
	if err := WriteReport(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, err := ReadReport(strings.NewReader("{broken")); err == nil {
		t.Fatal("no error for malformed report")
	}
}

// TestNilStatsIsSafe: every method must be a no-op on a nil collector, so
// pipeline call sites need no nil guards.
func TestNilStatsIsSafe(t *testing.T) {
	var s *Stats
	s.Stage("x")()
	s.Add(PairsCompared, 1)
	s.BeginIteration(0.5)
	s.EndIteration()
	if n := s.Total(PairsCompared); n != 0 {
		t.Fatalf("nil Total = %d", n)
	}
	if got := s.Iterations(); got != nil {
		t.Fatalf("nil Iterations = %v", got)
	}
	r := s.Done()
	if r == nil || len(r.Iterations) != 0 {
		t.Fatalf("nil Done report = %+v", r)
	}
}

// TestConcurrentCollection exercises the collector from many goroutines;
// meaningful under -race (the documented tier-1 gate runs with it).
func TestConcurrentCollection(t *testing.T) {
	s := NewStats(NewJSONSink(&safeBuffer{}))
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				stop := s.Stage("hot")
				s.Add(PairsCompared, 1)
				stop()
			}
		}()
	}
	wg.Wait()
	r := s.Done()
	if got := r.Counters[PairsCompared]; got != workers*perWorker {
		t.Fatalf("compared = %d, want %d", got, workers*perWorker)
	}
	if got := r.Stages["hot"].Calls; got != workers*perWorker {
		t.Fatalf("stage calls = %d, want %d", got, workers*perWorker)
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer for concurrent sink writes.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestSinks: the text sink emits one line per iteration plus a summary;
// the JSON sink emits parseable NDJSON with the expected event kinds.
func TestSinks(t *testing.T) {
	var text, ndjson bytes.Buffer
	s := NewStats(MultiSink{NewTextSink(&text), NewJSONSink(&ndjson)})
	s.BeginIteration(0.7)
	s.Add(PairsCompared, 10)
	s.EndIteration()
	s.Stage("prematch")()
	s.Done()

	lines := strings.Split(strings.TrimSpace(text.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("text sink wrote %d lines, want 2: %q", len(lines), text.String())
	}
	if !strings.Contains(lines[0], "δ=0.70") || !strings.Contains(lines[0], "compared=10") {
		t.Errorf("unexpected iteration line %q", lines[0])
	}
	kinds := map[string]int{}
	for _, l := range strings.Split(strings.TrimSpace(ndjson.String()), "\n") {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", l, err)
		}
		kinds[ev.Event]++
	}
	if kinds["iteration"] != 1 || kinds["stage"] != 1 || kinds["run"] != 1 {
		t.Fatalf("event kinds = %v", kinds)
	}
}

// TestBeginIterationClosesOpenOne: a dangling open iteration is closed
// implicitly, so no snapshot is ever lost.
func TestBeginIterationClosesOpenOne(t *testing.T) {
	s := NewStats(nil)
	s.BeginIteration(0.7)
	s.Add(PairsCompared, 1)
	s.BeginIteration(0.65) // implicit close of the 0.7 round
	s.Add(PairsCompared, 2)
	r := s.Report() // implicit close of the 0.65 round
	if len(r.Iterations) != 2 {
		t.Fatalf("%d iterations, want 2", len(r.Iterations))
	}
	if r.Iterations[0].Count(PairsCompared) != 1 || r.Iterations[1].Count(PairsCompared) != 2 {
		t.Fatalf("snapshots mixed up: %+v", r.Iterations)
	}
}
