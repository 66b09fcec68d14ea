package hgraph

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/synth"
)

// TestCacheReusesEnrichment checks that the cache returns the same graph map
// for repeated BuildAll calls on datasets with equal content, and that the
// cached result matches an uncached build.
func TestCacheReusesEnrichment(t *testing.T) {
	series, err := synth.Generate(synth.TestConfig(0.01, 42))
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	d := series.Datasets[0]

	c := NewCache()
	first := c.BuildAll(d)
	second := c.BuildAll(d)
	if !reflect.DeepEqual(firstKeys(first), firstKeys(second)) {
		t.Fatalf("cache returned different household sets")
	}
	// Same map value, not just equal content: the point is reuse.
	if reflect.ValueOf(first).Pointer() != reflect.ValueOf(second).Pointer() {
		t.Fatalf("second BuildAll did not reuse the cached map")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}

	plain := BuildAll(d)
	if len(plain) != len(first) {
		t.Fatalf("cached build has %d households, plain build %d", len(first), len(plain))
	}
	for id, g := range plain {
		cg, ok := first[id]
		if !ok {
			t.Fatalf("household %s missing from cached build", id)
		}
		if !reflect.DeepEqual(g, cg) {
			t.Fatalf("household %s: cached graph differs from plain build", id)
		}
	}
}

// TestCacheConcurrent hammers one cache from many goroutines over several
// datasets; every caller for a dataset must observe the same map (single
// build), with no races (run under -race in make check).
func TestCacheConcurrent(t *testing.T) {
	series, err := synth.Generate(synth.TestConfig(0.01, 7))
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	c := NewCache()
	var wg sync.WaitGroup
	results := make([]map[string]*Graph, 4*len(series.Datasets))
	for i := 0; i < 4; i++ {
		for j := range series.Datasets {
			wg.Add(1)
			go func(slot int, d2 int) {
				defer wg.Done()
				results[slot] = c.BuildAll(series.Datasets[d2])
			}(i*len(series.Datasets)+j, j)
		}
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		for j := range series.Datasets {
			a := results[j]
			b := results[i*len(series.Datasets)+j]
			if reflect.ValueOf(a).Pointer() != reflect.ValueOf(b).Pointer() {
				t.Fatalf("dataset %d: concurrent callers got different maps", j)
			}
		}
	}
	if c.Len() != len(series.Datasets) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(series.Datasets))
	}
}

func firstKeys(m map[string]*Graph) int { return len(m) }

// TestCachePanickedBuild: a build that panics propagates the panic to its
// caller and leaves no entry behind, so a caller that was waiting on it
// builds the graphs itself instead of waiting forever, and the next call
// builds afresh.
func TestCachePanickedBuild(t *testing.T) {
	series, err := synth.Generate(synth.TestConfig(0.01, 7))
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	d := series.Datasets[0]
	c := NewCache()
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		c.build(d, func(*census.Dataset) map[string]*Graph {
			close(started)
			<-release
			panic("enrichment crash")
		})
	}()
	<-started
	waiter := make(chan map[string]*Graph)
	go func() { waiter <- c.BuildAll(d) }()
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		runtime.Gosched() // until the second caller waits on the entry
	}
	close(release)
	if r := <-panicked; r != "enrichment crash" {
		t.Fatalf("builder's caller recovered %v, want the panic", r)
	}
	if got := <-waiter; len(got) != d.NumHouseholds() {
		t.Fatalf("waiting caller got %d households, want %d", len(got), d.NumHouseholds())
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after the failed build, want 0", c.Len())
	}
	if got := c.BuildAll(d); len(got) != d.NumHouseholds() || c.Len() != 1 {
		t.Fatalf("rebuild: %d households, %d entries", len(got), c.Len())
	}
}
