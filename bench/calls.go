package main

// Every call the benchmark makes into the program lives in this file, so an
// API change touches the benchmark in one place. Only entry points the
// ROADMAP keeps are used: synth for inputs, census CSV I/O, the ctx-first
// linkage.LinkContext, evaluate.EvaluateResult, store.Open with
// SaveResult/LoadResult, evolution.BuildGraph with AppendYear, and the /v1
// HTTP surface of the cmd/linkserver binary (no /api aliases, no offset
// pagination).

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/evaluate"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/store"
	"censuslink/internal/synth"
)

type (
	dataset    = census.Dataset
	linkResult = linkage.Result
	evoGraph   = evolution.Graph
)

// linkYears is the census pair the link workloads link.
var linkYears = [2]int{1871, 1881}

// generatePair simulates one district up to the link pair and returns the
// two recorded censuses.
func generatePair(scale float64, seed int64) (old, new *dataset, err error) {
	return synth.GeneratePair(synth.TestConfig(scale, seed), linkYears[0], linkYears[1])
}

// generateSeries simulates one district over the given census years. With
// households > 0 every year targets that many households (before scaling)
// instead of the paper's growing counts.
func generateSeries(scale float64, seed int64, years []int, households int) ([]*dataset, error) {
	cfg := synth.TestConfig(scale, seed)
	cfg.Years = years
	if households > 0 {
		cfg.TargetHouseholds = make(map[int]int, len(years))
		for _, y := range years {
			cfg.TargetHouseholds[y] = households
		}
	}
	s, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return s.Datasets, nil
}

// csvName is the file name linkserver -dir loads a census year from.
func csvName(year int) string { return fmt.Sprintf("census_%d.csv", year) }

func csvBytes(d *dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := census.WriteCSV(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func parseCSV(b []byte, year int) (*dataset, error) {
	return census.ReadCSV(bytes.NewReader(b), year)
}

func datasetYear(d *dataset) int { return d.Year }

func recordIDs(d *dataset) []string {
	ids := make([]string, 0, d.NumRecords())
	for _, r := range d.Records() {
		ids = append(ids, r.ID)
	}
	return ids
}

func householdIDs(d *dataset) []string {
	ids := make([]string, 0, d.NumHouseholds())
	for _, h := range d.Households() {
		ids = append(ids, h.ID)
	}
	return ids
}

// linker links census pairs with the paper's default configuration and one
// named blocking scheme.
type linker struct{ cfg linkage.Config }

func newLinker(blocking string) (*linker, error) {
	cfg := linkage.DefaultConfig()
	strategies, err := linkage.ParseBlocking(blocking)
	if err != nil {
		return nil, err
	}
	cfg.Strategies = strategies
	return &linker{cfg: cfg}, nil
}

// fingerprint is the configuration key the store files snapshots under.
func (l *linker) fingerprint() string { return l.cfg.Fingerprint() }

// link runs one LinkContext call. A non-nil recorder receives the
// pipeline's stage and iteration events and, afterwards, its counters.
func (l *linker) link(ctx context.Context, old, new *dataset, rec *linkRecorder) (*linkResult, error) {
	cfg := l.cfg
	if rec != nil {
		cfg.Obs = obs.NewStats(rec)
	}
	res, err := linkage.LinkContext(ctx, old, new, cfg)
	if rec != nil {
		rec.finish(cfg.Obs.Report())
	}
	return res, err
}

// stageEvent is one stage call or δ iteration the pipeline reported through
// its observability hook, in the benchmark's own terms.
type stageEvent struct {
	name  string // stage name, or "iteration"
	delta float64
	end   time.Time
	dur   time.Duration
	// alloc is the heap bytes allocated since the previous event (or the
	// start of the link): stages run one after another, so this is the
	// stage's allocation plus the executor's between the two stages.
	alloc      uint64
	groupPairs int64 // iterations only
}

// linkCounts are the pipeline's run counters for one link.
type linkCounts struct {
	blocked, compared, groupPairs, subgraphs, groupLinks int64
	simHits, simMisses, pruned                           int64
	peakHeapInuse                                        int64
}

// linkRecorder is the obs.Sink of a traced link: it timestamps every stage
// and iteration event and reads the heap allocation counter at each one.
type linkRecorder struct {
	mu        sync.Mutex
	events    []stageEvent
	lastAlloc uint64
	counts    linkCounts
}

func newLinkRecorder() *linkRecorder {
	return &linkRecorder{lastAlloc: heapAllocBytes()}
}

func (r *linkRecorder) record(ev stageEvent) {
	now := time.Now()
	alloc := heapAllocBytes()
	r.mu.Lock()
	ev.end = now
	ev.alloc = alloc - r.lastAlloc
	r.lastAlloc = alloc
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *linkRecorder) StageDone(stage string, d time.Duration) {
	r.record(stageEvent{name: stage, dur: d})
}

func (r *linkRecorder) IterationDone(it obs.Iteration) {
	r.record(stageEvent{name: "iteration", delta: it.Delta, dur: it.ElapsedNS,
		groupPairs: it.Count(obs.GroupPairs)})
}

func (r *linkRecorder) RunDone(*obs.Report) {}

func (r *linkRecorder) finish(rep *obs.Report) {
	c := rep.Counters
	r.mu.Lock()
	r.counts = linkCounts{
		blocked:       c[obs.BlockingPairs],
		compared:      c[obs.PairsCompared],
		groupPairs:    c[obs.GroupPairs],
		subgraphs:     c[obs.Subgraphs],
		groupLinks:    c[obs.GroupLinks],
		simHits:       c[obs.SimCacheHits],
		simMisses:     c[obs.SimCacheMisses],
		pruned:        c[obs.PrunedComparisons],
		peakHeapInuse: rep.Gauges[obs.PeakHeapInuse],
	}
	r.mu.Unlock()
}

// linkDigest hashes a result's record and group link sets, so repeated
// links of one input can be compared for identity.
func linkDigest(res *linkResult) string {
	h := sha256.New()
	for _, l := range res.RecordLinks {
		fmt.Fprintf(h, "r|%s|%s\n", l.Old, l.New)
	}
	for _, l := range res.GroupLinks {
		fmt.Fprintf(h, "g|%s|%s\n", l.Old, l.New)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkOneToOne reports a record mapping that links some record twice.
func checkOneToOne(res *linkResult) error {
	if len(res.RecordLinks) == 0 {
		return errors.New("no record links")
	}
	olds := make(map[string]bool, len(res.RecordLinks))
	news := make(map[string]bool, len(res.RecordLinks))
	for _, l := range res.RecordLinks {
		if olds[l.Old] || news[l.New] {
			return fmt.Errorf("record mapping is not 1:1 at %s -> %s", l.Old, l.New)
		}
		olds[l.Old], news[l.New] = true, true
	}
	return nil
}

// score returns the record and group F-measures of a result against the
// generator's truth.
func score(res *linkResult, old, new *dataset) (recordF1, groupF1 float64) {
	r, g := evaluate.EvaluateResult(res, old, new)
	return r.F1, g.F1
}

// snapshots is a store directory keyed by one linkage configuration.
type snapshots struct {
	st      *store.Store
	cfgHash string
}

func openSnapshots(dir, cfgHash string) (*snapshots, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &snapshots{st: st, cfgHash: cfgHash}, nil
}

func (s *snapshots) save(old, new *dataset, res *linkResult) error {
	return s.st.SaveResult(s.cfgHash, old, new, res)
}

// load returns the stored result of a pair, or an error when there is none.
func (s *snapshots) load(old, new *dataset) (*linkResult, error) {
	res, err := s.st.LoadResult(s.cfgHash, old, new)
	if err == nil && res == nil {
		err = fmt.Errorf("no snapshot for %d-%d", old.Year, new.Year)
	}
	return res, err
}

// newEvolution starts an evolution graph at one census.
func newEvolution(first *dataset) (*evoGraph, error) {
	return evolution.BuildGraph(census.NewSeries(first), nil)
}

func appendYear(g *evoGraph, last, next *dataset, res *linkResult) error {
	return g.AppendYear(last, next, res)
}

// The /v1 routes the serve workloads request.
const (
	routeYears     = "/v1/years"
	routeTimelines = "/v1/timelines"
	routeIngest    = "/v1/census"
	routeWatch     = "/v1/evolution/watch"
	routeMetrics   = "/metrics"
)

func routeRecords(old, new int) string { return fmt.Sprintf("/v1/links/%d/%d/records", old, new) }
func routeGroups(old, new int) string  { return fmt.Sprintf("/v1/links/%d/%d/groups", old, new) }
func routePatterns(old, new int) string {
	return fmt.Sprintf("/v1/evolution/%d/%d/patterns", old, new)
}
func routeHousehold(year int, id string) string {
	return fmt.Sprintf("/v1/households/%d/%s/timeline", year, id)
}
func routeLifecycle(year int, id string) string {
	return fmt.Sprintf("/v1/records/%d/%s/lifecycle", year, id)
}

// serveBlocking is the blocking scheme the serve workloads run linkserver
// with. LSH keeps each pair link well under a second, so set-up and ingest
// fit the run and their cost is not dominated by the subgraph stage that
// link_default already isolates.
const serveBlocking = "lsh"

// linkserver is a running cmd/linkserver child process.
type linkserver struct {
	cmd  *exec.Cmd
	base string        // http://host:port
	done chan struct{} // closed once stdout reaches EOF
}

// startLinkserver starts the binary on the series in dataDir with eager
// precompute and a snapshot store, and returns once it accepts connections.
func startLinkserver(bin, dataDir, storeDir string) (*linkserver, error) {
	cmd := exec.Command(bin, "-dir", dataDir, "-addr", "127.0.0.1:0", "-eager",
		"-store", storeDir, "-blocking", serveBlocking, "-drain-timeout", "2s")
	cmd.Stderr = os.Stderr
	// The child must not outlive a benchmark that dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting linkserver: %w", err)
	}
	s := &linkserver{cmd: cmd, done: make(chan struct{})}
	ready := make(chan string, 1) // one send: the listen address
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				ready <- addr
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	timer := time.NewTimer(120 * time.Second)
	defer timer.Stop()
	select {
	case s.base = <-ready:
		return s, nil
	case <-s.done:
		err = errors.New("linkserver exited before listening")
	case <-timer.C:
		err = errors.New("linkserver did not start within 120s")
	}
	_ = cmd.Process.Kill()
	<-s.done
	_ = cmd.Wait()
	return nil, err
}

func (s *linkserver) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM and waits for it to exit.
func (s *linkserver) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = s.cmd.Process.Kill()
	}
	<-s.done
	return s.cmd.Wait()
}
