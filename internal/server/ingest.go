package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"os"
	"strconv"
	"strings"

	"censuslink/internal/census"
	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/server/api"
)

// Census-year arrival as an event: POST /v1/census accepts a newly released
// census — either the CSV itself (body, with ?year=) or a JSON reference
// {"path": ..., "year": ...} to a file the server can read — validates it
// against the served series, links ONLY the new (lastYear, newYear) pair
// (store-first, write-through, same semaphore and timeout as query-path
// computations), extends the evolution graph and timelines in place when
// they are resident (a Clone+AppendYear+ExtendTimelines, never a rebuild),
// persists the pair snapshot, atomically swaps the served series and bumps
// the whole ETag surface, then publishes the change-feed events. Ingests
// are serialized; concurrent uploads of the same year resolve to one 201
// and one 409.

// ingestResponseJSON is the 201 body: what was linked and what the series
// looks like now.
type ingestResponseJSON struct {
	Year        int            `json:"year"`
	OldYear     int            `json:"old_year"`
	Generation  uint64         `json:"generation"`
	Years       []int          `json:"years"`
	Records     int            `json:"records"`
	Households  int            `json:"households"`
	RecordLinks int            `json:"record_links"`
	GroupLinks  int            `json:"group_links"`
	Counts      map[string]int `json:"counts"`
	// Incremental reports whether the evolution graph was extended in place
	// (true) or left for a lazy rebuild (false: it was not resident).
	Incremental bool `json:"incremental"`
	// LastEventID is the final change-feed event published for this ingest;
	// a watcher that has seen it has seen the whole ingest.
	LastEventID uint64 `json:"last_event_id"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.shuttingDown() {
		api.Error(w, http.StatusServiceUnavailable, api.CodeUnavailable, "server is draining")
		return
	}
	next, apiErr := s.readIngestDataset(r)
	if apiErr != nil {
		apiErr.Write(w)
		return
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	st := s.cur()
	last := st.series.Datasets[len(st.series.Datasets)-1]
	if next.Year <= last.Year {
		status, code := http.StatusConflict, api.CodeConflict
		msg := fmt.Sprintf("census year %d is already covered by the served series %v", next.Year, st.series.Years())
		if st.series.Dataset(next.Year) == nil {
			msg = fmt.Sprintf("census year %d predates the series end %d: years must arrive in order", next.Year, last.Year)
		}
		api.Error(w, status, code, msg)
		return
	}

	res, persisted, err := s.linkNewPair(r.Context(), last, next)
	if err != nil {
		s.fail(w, r, err)
		return
	}

	// The pair analysis drives both the response summary and the watch
	// events; computing it before the swap keeps the swap itself cheap.
	analysis := evolution.Analyze(last, next, res)

	// Extend the resident evolution bundle incrementally when there is one.
	// The extension works on a clone, outside the cache lock: requests keep
	// reading the old bundle until the new one is installed whole.
	var extended *evoBundle
	if prev := s.cache.currentBundle(st.gen); prev != nil {
		g := prev.graph.Clone()
		if err := g.AppendYear(last, next, res); err != nil {
			s.fail(w, r, fmt.Errorf("extending evolution graph: %w", err))
			return
		}
		extended = &evoBundle{graph: g, timelines: g.ExtendTimelines(prev.timelines)}
		extended.index()
	}

	newSeries := census.NewSeries(append(append([]*census.Dataset{}, st.series.Datasets...), next)...)
	newState := newSeriesState(newSeries, st.gen+1)
	// Order matters: the cache slot (and extended bundle) must exist before
	// any request can observe the new state.
	s.cache.appendPair(res, persisted, extended, newState.gen)
	s.state.Store(newState)

	lastEventID := s.publishIngest(newState, analysis, res)

	w.Header().Set("Location", fmt.Sprintf("/v1/links/%d/%d/records", last.Year, next.Year))
	api.WriteJSON(w, http.StatusCreated, ingestResponseJSON{
		Year:        next.Year,
		OldYear:     last.Year,
		Generation:  newState.gen,
		Years:       newSeries.Years(),
		Records:     len(next.Records()),
		Households:  len(next.Households()),
		RecordLinks: len(res.RecordLinks),
		GroupLinks:  len(res.GroupLinks),
		Counts:      patternCounts(analysis),
		Incremental: extended != nil,
		LastEventID: lastEventID,
	})
}

// readIngestDataset parses the request into a census dataset. CSV bodies
// (text/csv, or anything that is not application/json) need ?year=; JSON
// bodies reference a server-readable file: {"path": "...", "year": 1891}.
func (s *Server) readIngestDataset(r *http.Request) (*census.Dataset, *api.Err) {
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "application/json" {
		var ref struct {
			Path string `json:"path"`
			Year int    `json:"year"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&ref); err != nil {
			return nil, &api.Err{Status: http.StatusBadRequest, Code: api.CodeBadRequest,
				Message: "bad JSON body: " + err.Error()}
		}
		if ref.Path == "" || ref.Year == 0 {
			return nil, &api.Err{Status: http.StatusBadRequest, Code: api.CodeBadRequest,
				Message: `JSON ingest needs {"path": "<csv file>", "year": <year>}`}
		}
		f, err := os.Open(ref.Path)
		if err != nil {
			return nil, &api.Err{Status: http.StatusBadRequest, Code: api.CodeBadRequest,
				Message: "cannot read referenced dataset: " + err.Error()}
		}
		defer f.Close()
		ds, err := census.ReadCSV(f, ref.Year)
		if err != nil {
			return nil, &api.Err{Status: http.StatusBadRequest, Code: api.CodeBadRequest,
				Message: fmt.Sprintf("parsing %s: %v", ref.Path, err)}
		}
		return ds, nil
	}

	yearStr := r.URL.Query().Get("year")
	if yearStr == "" {
		return nil, &api.Err{Status: http.StatusBadRequest, Code: api.CodeBadRequest,
			Message: "CSV ingest needs ?year=<census year>"}
	}
	year, err := strconv.Atoi(yearStr)
	if err != nil {
		return nil, &api.Err{Status: http.StatusBadRequest, Code: api.CodeBadRequest,
			Message: fmt.Sprintf("bad year %q", yearStr)}
	}
	body := http.MaxBytesReader(nil, r.Body, s.maxIngestBytes)
	ds, err := census.ReadCSV(body, year)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || strings.Contains(err.Error(), "request body too large") {
			return nil, &api.Err{Status: http.StatusRequestEntityTooLarge, Code: api.CodeTooLarge,
				Message: fmt.Sprintf("upload exceeds the %d byte ingest cap", s.maxIngestBytes)}
		}
		return nil, &api.Err{Status: http.StatusBadRequest, Code: api.CodeBadRequest,
			Message: "parsing CSV: " + err.Error()}
	}
	return ds, nil
}

// linkNewPair produces the (last, next) linkage result the same way the
// query-path cache does: store first, else computePair (shared semaphore,
// compute timeout, write-through unless degraded). The computation runs
// under the server's base context and stops when the requester goes away.
func (s *Server) linkNewPair(ctx context.Context, last, next *census.Dataset) (*linkage.Result, bool, error) {
	if res := s.loadStored(last, next); res != nil {
		return res, true, nil
	}
	cctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	stop := context.AfterFunc(ctx, cancel) // requester gone: stop computing
	defer stop()
	return s.computePair(cctx, last, next)
}

// publishIngest emits the change-feed events of one ingest: the
// census_ingested summary first, then the new pair's household lifecycle
// transitions in batches. Returns the last published event ID.
func (s *Server) publishIngest(st *seriesState, a *evolution.PairAnalysis, res *linkage.Result) uint64 {
	last := s.watch.publish("census_ingested", ingestEventJSON{
		Schema:      watchEventSchema,
		Type:        "census_ingested",
		Year:        a.NewYear,
		OldYear:     a.OldYear,
		Generation:  st.gen,
		Years:       st.series.Years(),
		RecordLinks: len(res.RecordLinks),
		GroupLinks:  len(res.GroupLinks),
		Counts:      patternCounts(a),
	})
	transitions := patternEvents(a)
	batches := (len(transitions) + transitionBatchSize - 1) / transitionBatchSize
	for b := 0; b < batches; b++ {
		lo := b * transitionBatchSize
		hi := min(lo+transitionBatchSize, len(transitions))
		last = s.watch.publish("transitions", transitionsEventJSON{
			Schema:      watchEventSchema,
			Type:        "transitions",
			OldYear:     a.OldYear,
			NewYear:     a.NewYear,
			Generation:  st.gen,
			Batch:       b + 1,
			Batches:     batches,
			Transitions: transitions[lo:hi],
		})
	}
	return last
}
