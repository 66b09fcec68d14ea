package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serveParams sizes a serve workload.
type serveParams struct {
	scale float64
	years []int // the generated series
	// households, when > 0, holds every year at this many households
	// (before scaling), so every ingest adds a census of about one size
	// and the median ingest is not a point on a growth curve.
	households int
	// initial is how many of the years the server starts with; the rest are
	// POSTed to /v1/census during the measured window.
	initial int
	// rate is the open-loop read rate in requests per second.
	rate float64
	// closed adds a closed-loop read phase after the open loop; the two
	// phases split the measured window.
	closed bool
}

// readWorkers is the number of reader goroutines and connections: one per
// core of the 2-core machine the benchmark was sized on.
const readWorkers = 2

// sampledIDs is how many household and record IDs the drill-down
// endpoints draw from.
const sampledIDs = 16

// mix is the read mix, loadgen's default weights.
var mix = []struct {
	name   string
	weight int
}{
	{"records", 4}, {"groups", 2}, {"patterns", 2}, {"household_timeline", 2},
	{"record_lifecycle", 2}, {"timelines", 1}, {"years", 1},
}

// reader issues the read mix against one server.
type reader struct {
	base    string
	client  *http.Client
	targets [][]string // request paths per mix endpoint
	weight  int
	etags   sync.Map // path -> ETag of its last 200
}

// request is one finished read.
type request struct {
	endpoint  int
	due, sent time.Time // due is the open-loop schedule time, or sent
	done      time.Time
	late      float64 // ms the generator woke after the due time
	status    int
	bytes     int
	ok        bool
}

// latency is measured from the due time; a failed read counts as +Inf.
func (q request) latency() float64 {
	if !q.ok {
		return math.Inf(1)
	}
	return float64(q.done.Sub(q.due)) / float64(time.Millisecond)
}

func (q request) service() float64 { return float64(q.done.Sub(q.sent)) / float64(time.Millisecond) }

func newReader(base string, initial []*dataset, rng *rand.Rand) *reader {
	rd := &reader{
		base: base,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: readWorkers, MaxIdleConnsPerHost: readWorkers, DisableCompression: true,
		}},
		targets: make([][]string, len(mix)),
	}
	add := func(endpoint string, paths ...string) {
		for i, m := range mix {
			if m.name == endpoint {
				rd.targets[i] = append(rd.targets[i], paths...)
			}
		}
	}
	for i := 1; i < len(initial); i++ {
		o, n := datasetYear(initial[i-1]), datasetYear(initial[i])
		add("records", routeRecords(o, n), routeRecords(o, n)+"?limit=50")
		add("groups", routeGroups(o, n), routeGroups(o, n)+"?limit=50")
		add("patterns", routePatterns(o, n))
	}
	for k := 0; k < sampledIDs; k++ {
		d := initial[rng.Intn(len(initial))]
		hh, recs := householdIDs(d), recordIDs(d)
		add("household_timeline", routeHousehold(datasetYear(d), hh[rng.Intn(len(hh))]))
		add("record_lifecycle", routeLifecycle(datasetYear(d), recs[rng.Intn(len(recs))]))
	}
	add("timelines", routeTimelines, routeTimelines+"?min_span=3")
	add("years", routeYears)
	for _, m := range mix {
		rd.weight += m.weight
	}
	return rd
}

func (rd *reader) pick(rng *rand.Rand) (int, string) {
	n := rng.Intn(rd.weight)
	for i, m := range mix {
		if n < m.weight {
			paths := rd.targets[i]
			return i, paths[rng.Intn(len(paths))]
		}
		n -= m.weight
	}
	panic("unreachable: n < total weight")
}

// get issues one read. Half of the reads of a path with a known ETag
// revalidate it. A read is ok when it answers 200 with a JSON body or 304.
func (rd *reader) get(ctx context.Context, path string, conditional bool) (status, n int, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rd.base+path, nil)
	if err != nil {
		return 0, 0, false
	}
	if et, known := rd.etags.Load(path); known && conditional {
		req.Header.Set("If-None-Match", et.(string))
	}
	resp, err := rd.client.Do(req)
	if err != nil {
		return 0, 0, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, len(body), false
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if et := resp.Header.Get("ETag"); et != "" {
			rd.etags.Store(path, et)
		}
		return resp.StatusCode, len(body), json.Valid(body)
	case http.StatusNotModified:
		return resp.StatusCode, len(body), len(body) == 0
	}
	return resp.StatusCode, len(body), false
}

// prime reads every target once, unmeasured, so revalidations have ETags.
func (rd *reader) prime(ctx context.Context) error {
	for _, paths := range rd.targets {
		for _, p := range paths {
			if status, _, ok := rd.get(ctx, p, false); !ok {
				return fmt.Errorf("priming %s: status %d", p, status)
			}
		}
	}
	return nil
}

// openLoop reads at a fixed rate for dur: each of readWorkers goroutines
// owns every readWorkers-th slot of one schedule, so a slow reply delays the
// worker's later requests and that wait counts in their latency.
func (rd *reader) openLoop(ctx context.Context, rate float64, dur time.Duration, seed int64) []request {
	interval := time.Duration(float64(time.Second) * readWorkers / rate)
	start := time.Now()
	end := start.Add(dur)
	out := make([][]request, readWorkers)
	var wg sync.WaitGroup
	for w := 0; w < readWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
			for due := start.Add(time.Duration(w) * interval / readWorkers); due.Before(end); due = due.Add(interval) {
				late := 0.0
				if wait := time.Until(due); wait > 0 {
					if !sleepCtx(ctx, wait) {
						return
					}
					late = msSince(due)
				}
				ep, path := rd.pick(rng)
				q := request{endpoint: ep, due: due, sent: time.Now(), late: late}
				q.status, q.bytes, q.ok = rd.get(ctx, path, rng.Intn(2) == 0)
				q.done = time.Now()
				out[w] = append(out[w], q)
			}
		}(w)
	}
	wg.Wait()
	return flatten(out)
}

// closedLoop reads back to back on readWorkers connections for dur.
func (rd *reader) closedLoop(ctx context.Context, dur time.Duration, seed int64) ([]request, time.Duration) {
	start := time.Now()
	end := start.Add(dur)
	out := make([][]request, readWorkers)
	var wg sync.WaitGroup
	for w := 0; w < readWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + 100 + int64(w)))
			for time.Now().Before(end) && ctx.Err() == nil {
				ep, path := rd.pick(rng)
				q := request{endpoint: ep, sent: time.Now()}
				q.due = q.sent
				q.status, q.bytes, q.ok = rd.get(ctx, path, rng.Intn(2) == 0)
				q.done = time.Now()
				out[w] = append(out[w], q)
			}
		}(w)
	}
	wg.Wait()
	return flatten(out), time.Since(start)
}

func flatten(parts [][]request) []request {
	var all []request
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ingestEvent is a census_ingested event as the watcher received it.
type ingestEvent struct {
	Generation uint64 `json:"generation"`
	Year       int    `json:"year"`
	at         time.Time
}

// watch follows the server's change feed and forwards census_ingested
// events. It closes ready once the subscription is live and returns when
// ctx ends or the stream breaks.
func watch(ctx context.Context, base string, ready chan<- struct{}, events chan<- ingestEvent) error {
	readyOnce := sync.OnceFunc(func() { close(ready) })
	defer readyOnce()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+routeWatch, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var name, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("watch: %w", err)
		}
		readyOnce() // the server subscribes before it writes the first line
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && name != "":
			if name == "census_ingested" {
				ev := ingestEvent{at: time.Now()}
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return fmt.Errorf("watch: census_ingested: %w", err)
				}
				select {
				case events <- ev:
				case <-ctx.Done():
					return nil
				}
			}
			name, data = "", ""
		}
	}
}

// stageSeconds scrapes the server's cumulative per-stage pipeline seconds.
func stageSeconds(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+routeMetrics, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), `censuslink_stage_seconds_total{stage="`)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, sc.Err()
}

// ingestion is one POST /v1/census as the benchmark saw it.
type ingestion struct {
	year         int
	sent         time.Time
	ackMS, evtMS float64 // POST sent -> 201, POST sent -> census_ingested
	stageMS      map[string]float64
	ok           bool
}

// serveRun is the state of one serve workload run.
type serveRun struct {
	env     *runEnv
	p       serveParams
	o       *outcome
	srv     *linkserver
	series  []*dataset // parsed from the CSVs the server loads or receives
	uploads [][]byte   // CSVs of the years to ingest
	data    string     // the directory the server loads
	store   string     // the server's snapshot store
	cfgHash string     // the server's linkage configuration key
	// results are the server's stored pair results, results[i] linking
	// series[i] and series[i+1]; nil where a snapshot failed its check.
	results []*linkResult
}

// setUp generates the series, writes the CSVs of the initial years, and
// starts linkserver on them with eager precompute and a fresh store.
func (r *serveRun) setUp(rep int) error {
	ds, err := generateSeries(r.p.scale, r.env.seed, r.p.years, r.p.households)
	if err != nil {
		return err
	}
	if r.data, err = r.env.mkdir(fmt.Sprintf("data%d", rep)); err != nil {
		return err
	}
	if r.store, err = r.env.mkdir(fmt.Sprintf("store%d", rep)); err != nil {
		return err
	}
	r.uploads = nil
	for i, d := range ds {
		b, err := csvBytes(d)
		if err != nil {
			return err
		}
		if i >= r.p.initial {
			r.uploads = append(r.uploads, b)
			continue
		}
		if err := os.WriteFile(filepath.Join(r.data, csvName(datasetYear(d))), b, 0o644); err != nil {
			return err
		}
	}
	r.srv, err = startLinkserver(r.env.linkserver, r.data, r.store)
	return err
}

// parseSeries parses every census CSV in-process, as the server does, and
// returns the parse times.
func (r *serveRun) parseSeries() ([]float64, error) {
	var parseMS []float64
	for i, year := range r.p.years {
		var raw []byte
		if i < r.p.initial {
			b, err := os.ReadFile(filepath.Join(r.data, csvName(year)))
			if err != nil {
				return nil, err
			}
			raw = b
		} else {
			raw = r.uploads[i-r.p.initial]
		}
		start := time.Now()
		d, err := parseCSV(raw, year)
		if err != nil {
			return nil, err
		}
		parseMS = append(parseMS, msSince(start))
		r.series = append(r.series, d)
	}
	return parseMS, nil
}

func runServe(ctx context.Context, env *runEnv, p serveParams) (*outcome, error) {
	r := &serveRun{env: env, p: p, o: newOutcome()}
	defer func() {
		if r.srv != nil {
			_ = r.srv.stop()
		}
	}()
	var setups []float64
	timedSetUp := func(rep int) error {
		if r.srv != nil {
			if err := r.srv.stop(); err != nil {
				return fmt.Errorf("stopping linkserver: %w", err)
			}
			r.srv = nil
		}
		start := time.Now()
		if err := r.setUp(rep); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	for rep := 0; rep < setupReps/2; rep++ {
		if err := timedSetUp(rep); err != nil {
			return nil, err
		}
	}
	parseMS, err := r.parseSeries()
	if err != nil {
		return nil, err
	}
	rd := newReader(r.srv.base, r.series[:p.initial], rand.New(rand.NewSource(env.seed)))
	defer rd.client.CloseIdleConnections()
	if err := rd.prime(ctx); err != nil {
		return nil, err
	}

	cpu0, err := processCPU(r.srv.pid())
	if err != nil {
		return nil, err
	}
	var open, closed []request
	var closedFor time.Duration
	var ingests []ingestion
	if p.closed {
		open = rd.openLoop(ctx, p.rate, env.seconds/2, env.seed)
		closed, closedFor = rd.closedLoop(ctx, env.seconds/2, env.seed)
	} else {
		ingests, open = r.ingestWhileReading(ctx, rd)
	}
	cpu1, err := processCPU(r.srv.pid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(r.srv.pid()))
	if err != nil {
		return nil, err
	}

	o := r.o
	reads := append(append([]request(nil), open...), closed...)
	for _, q := range reads {
		o.check(q.ok, "GET %s: status %d", mix[q.endpoint].name, q.status)
	}
	recordF1, groupF1 := r.checkSnapshots()

	var openLat []float64
	for _, q := range open {
		openLat = append(openLat, q.latency())
	}
	o.e2e = map[string]float64{
		"peak_rss_mb": rss,
		"record_f1":   recordF1,
		"group_f1":    groupF1,
	}
	if p.closed {
		o.e2e["latency_ms"] = percentile(openLat, 0.5)
		o.e2e["throughput"] = float64(len(closed)) / closedFor.Seconds()
	} else {
		var evt []float64
		for _, in := range ingests {
			if in.ok {
				evt = append(evt, in.evtMS)
			} else {
				evt = append(evt, math.Inf(1))
			}
		}
		o.e2e["latency_ms"] = median(evt)
		o.e2e["throughput"] = 1000 / o.e2e["latency_ms"]
	}

	l := o.layers
	l["census.read_csv_ms"] = mean(parseMS)
	for i, m := range mix {
		var service []float64
		for _, q := range reads {
			if q.endpoint == i && q.ok {
				service = append(service, q.service())
			}
		}
		l["server."+m.name+"_p50_ms"] = percentile(service, 0.5)
	}
	notModified := 0
	var bodyBytes, late []float64
	for _, q := range reads {
		late = append(late, q.late)
		switch q.status {
		case http.StatusNotModified:
			notModified++
		case http.StatusOK:
			bodyBytes = append(bodyBytes, float64(q.bytes))
		}
	}
	l["server.not_modified_ratio"] = ratio(float64(notModified), float64(len(reads)))
	l["server.response_kb"] = mean(bodyBytes) / 1024
	l["server.cpu_ms_per_req"] = ratio(float64(cpu1-cpu0)/float64(time.Millisecond), float64(len(reads)))
	l["server.read_p50_ms"] = percentile(openLat, 0.5)
	l["server.read_p99_ms"] = percentile(openLat, 0.99)
	l["bench.late_p99_ms"] = percentile(late, 0.99)
	if env.trace {
		r.traceReads(reads)
		if len(ingests) > 0 {
			if err := r.ingestLayers(ingests); err != nil {
				return nil, err
			}
		}
	}
	// The rest of the set-ups run after the measured window and the checks,
	// which read the measured server's store.
	for rep := setupReps / 2; rep < setupReps; rep++ {
		if err := timedSetUp(rep); err != nil {
			return nil, err
		}
	}
	o.e2e["setup_s"] = median(setups)
	return o, nil
}

// ingestWhileReading POSTs the remaining census years on a schedule spread
// over the measured window while an open-loop reader runs the read mix and
// one watcher follows the change feed. Each ingest is timed from the POST
// to the arrival of its census_ingested event.
func (r *serveRun) ingestWhileReading(ctx context.Context, rd *reader) ([]ingestion, []request) {
	wctx, stopWatch := context.WithCancel(ctx)
	ready := make(chan struct{})
	events := make(chan ingestEvent, len(r.uploads)) // one census_ingested per upload
	watchErr := make(chan error, 1)
	go func() {
		defer close(events)
		watchErr <- watch(wctx, r.srv.base, ready, events)
	}()
	defer func() {
		stopWatch()
		err := <-watchErr
		r.o.check(err == nil, "%s: %v", routeWatch, err)
	}()
	<-ready

	poster := &http.Client{Timeout: 120 * time.Second}
	defer poster.CloseIdleConnections()
	var reads []request
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		reads = rd.openLoop(ctx, r.p.rate, r.env.seconds, r.env.seed)
	}()

	start := time.Now()
	spacing := r.env.seconds / time.Duration(len(r.uploads))
	var ingests []ingestion
	for i, body := range r.uploads {
		if !sleepCtx(ctx, time.Until(start.Add(time.Duration(i)*spacing))) {
			break
		}
		ingests = append(ingests, r.ingestOne(ctx, poster, i, body, events))
	}
	<-readDone

	// Every year must be served at the end.
	var years struct {
		Years []int `json:"years"`
	}
	err := getJSON(ctx, poster, r.srv.base+routeYears, &years)
	r.o.check(err == nil && len(years.Years) == len(r.p.years),
		"after ingest /v1/years lists %v (err %v), want %d years", years.Years, err, len(r.p.years))
	return ingests, reads
}

func (r *serveRun) ingestOne(ctx context.Context, client *http.Client, i int, body []byte, events <-chan ingestEvent) ingestion {
	year := r.p.years[r.p.initial+i]
	in := ingestion{year: year}
	var before map[string]float64
	if r.env.trace {
		var err error
		before, err = stageSeconds(ctx, client, r.srv.base)
		r.o.check(err == nil, "scraping %s: %v", routeMetrics, err)
	}
	in.sent = time.Now()
	gen, status, err := postCensus(ctx, client, r.srv.base, year, body)
	in.ackMS = msSince(in.sent)
	want := uint64(i + 1)
	if !r.o.check(err == nil && status == http.StatusCreated && gen == want,
		"POST %d: status %d generation %d (want 201, %d): %v", year, status, gen, want, err) {
		return in
	}
	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	select {
	case ev, open := <-events:
		if !r.o.check(open, "the change feed ended before the census_ingested event for %d", year) {
			break
		}
		in.evtMS = float64(ev.at.Sub(in.sent)) / float64(time.Millisecond)
		in.ok = r.o.check(ev.Generation == want && ev.Year == year,
			"census_ingested for %d: generation %d year %d", year, ev.Generation, ev.Year)
	case <-timer.C:
		r.o.check(false, "no census_ingested event for %d within 60s", year)
	case <-ctx.Done():
		r.o.check(false, "ingest %d: %v", year, ctx.Err())
	}
	if r.env.trace {
		after, err := stageSeconds(ctx, client, r.srv.base)
		if r.o.check(err == nil, "scraping %s: %v", routeMetrics, err) {
			in.stageMS = map[string]float64{}
			for k, v := range after {
				in.stageMS[k] = (v - before[k]) * 1000
			}
		}
	}
	return in
}

func postCensus(ctx context.Context, client *http.Client, base string, year int, body []byte) (gen uint64, status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s%s?year=%d", base, routeIngest, year), bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var ack struct {
		Generation uint64 `json:"generation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	return ack.Generation, resp.StatusCode, err
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkSnapshots loads every pair the server linked from its store, checks
// it and scores it against the generator's truth: the store holds exactly
// what the server serves and persisted. It returns the mean F-measures.
func (r *serveRun) checkSnapshots() (recordF1, groupF1 float64) {
	lk, err := newLinker(serveBlocking)
	if !r.o.check(err == nil, "linker: %v", err) {
		return 0, 0
	}
	r.cfgHash = lk.fingerprint()
	snaps, err := openSnapshots(r.store, r.cfgHash)
	if !r.o.check(err == nil, "store: %v", err) {
		return 0, 0
	}
	r.results = make([]*linkResult, len(r.series)-1)
	var rf, gf []float64
	for i := range r.results {
		old, new := r.series[i], r.series[i+1]
		res, err := snaps.load(old, new)
		if err == nil {
			err = checkOneToOne(res)
		}
		if !r.o.check(err == nil, "snapshot %d-%d: %v", datasetYear(old), datasetYear(new), err) {
			continue
		}
		a, b := score(res, old, new)
		if r.o.check(a >= minRecordF1, "snapshot %d-%d: record F1 %.3f below %.2f",
			datasetYear(old), datasetYear(new), a, minRecordF1) {
			r.results[i] = res
		}
		rf, gf = append(rf, a), append(gf, b)
	}
	return mean(rf), mean(gf)
}

// ingestLayers fills the ingest per-layer metrics: the server-side stage
// time of each ingest, the snapshot size, and the store save and evolution
// append an ingest performs, repeated in-process on the server's own
// results.
func (r *serveRun) ingestLayers(ingests []ingestion) error {
	l := r.o.layers
	var ack, prematch, subgraph []float64
	for _, in := range ingests {
		ack = append(ack, in.ackMS)
		prematch = append(prematch, in.stageMS["prematch"])
		subgraph = append(subgraph, in.stageMS["subgraph_match"])
	}
	l["server.ingest_ack_ms"] = median(ack)
	l["server.ingest.prematch_ms"] = mean(prematch)
	l["server.ingest.subgraph_match_ms"] = mean(subgraph)
	t := r.env.tracer
	for _, in := range ingests {
		start, id := t.ms(in.sent), t.newTrace()
		t.add([]span{
			{Trace: id, Name: "server.ingest", Start: start, End: start + in.evtMS,
				SelfMS: in.evtMS - in.ackMS, Attrs: map[string]float64{"year": float64(in.year)}},
			{Trace: id, Parent: 1, Name: "server.ingest_ack", Start: start, End: start + in.ackMS, SelfMS: in.ackMS},
		})
	}

	files, err := filepath.Glob(filepath.Join(r.store, "snap_*.jsonl"))
	if err != nil {
		return err
	}
	var kb []float64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return err
		}
		kb = append(kb, float64(st.Size())/1024)
	}
	l["store.snapshot_kb"] = mean(kb)

	dir, err := r.env.mkdir("replay_store")
	if err != nil {
		return err
	}
	replay, err := openSnapshots(dir, r.cfgHash)
	if err != nil {
		return err
	}
	g, err := newEvolution(r.series[0])
	if err != nil {
		return err
	}
	var save, appendMS []float64
	for i, res := range r.results {
		if res == nil {
			return fmt.Errorf("no checked result for pair %d", i)
		}
		old, new := r.series[i], r.series[i+1]
		start := time.Now()
		if err := appendYear(g, old, new, res); err != nil {
			return err
		}
		a := msSince(start)
		start = time.Now()
		if err := replay.save(old, new, res); err != nil {
			return err
		}
		// Pairs before the first ingested year were linked at start-up.
		if i+1 >= r.p.initial {
			appendMS = append(appendMS, a)
			save = append(save, msSince(start))
		}
	}
	l["evolution.append_ms"] = mean(appendMS)
	l["store.save_ms"] = mean(save)
	return nil
}

// traceReads records one client span per read.
func (r *serveRun) traceReads(reads []request) {
	t := r.env.tracer
	for _, q := range reads {
		t.add([]span{{Trace: t.newTrace(), Name: "server." + mix[q.endpoint].name,
			Start: t.ms(q.sent), End: t.ms(q.done), SelfMS: q.service(),
			Attrs: map[string]float64{"status": float64(q.status), "due_ms": t.ms(q.due), "late_ms": q.late}}})
	}
}
