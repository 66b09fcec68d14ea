package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"censuslink/internal/evolution"
	"censuslink/internal/linkage"
	"censuslink/internal/server/api"
)

// countingEncodeError is the WriteList mid-stream failure callback: the
// connection is about to be aborted; count it so /metrics shows the broken
// transfer.
func (s *Server) countingEncodeError() { s.requests.encodeErrors.Add(1) }

// writeList streams a list response with the server's encode-error counter
// attached.
func (s *Server) writeList(w http.ResponseWriter, status int, fields []api.Field, listName string, n int, item func(int) any) {
	api.WriteList(w, status, fields, listName, n, item, s.countingEncodeError)
}

// fail maps a computation error to a response. Deadline overruns are
// gateway timeouts; a requester that hung up before the answer gets status
// 499 with no body (nobody reads it) and is counted as client_gone rather
// than polluting the unavailable tally; a server-side cancellation
// (draining) is 503 unavailable; anything else is a plain 500.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		api.Error(w, http.StatusGatewayTimeout, api.CodeTimeout, err.Error())
	case r.Context().Err() != nil && !s.shuttingDown():
		w.WriteHeader(api.StatusClientClosedRequest)
	case errors.Is(err, context.Canceled):
		api.Error(w, http.StatusServiceUnavailable, api.CodeUnavailable, err.Error())
	default:
		api.Error(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
	}
}

// pairIndex resolves the {old}/{new} path segments to a year-pair index of
// the given series snapshot. Pair indices are stable across ingests — years
// only append — so the index stays valid against the cache even if the
// series grows mid-request.
func pairIndex(st *seriesState, r *http.Request) (int, error) {
	oldYear, err := strconv.Atoi(r.PathValue("old"))
	if err != nil {
		return 0, fmt.Errorf("bad old year %q", r.PathValue("old"))
	}
	newYear, err := strconv.Atoi(r.PathValue("new"))
	if err != nil {
		return 0, fmt.Errorf("bad new year %q", r.PathValue("new"))
	}
	for i, p := range st.series.Pairs() {
		if p[0].Year == oldYear && p[1].Year == newYear {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no successive census pair %d-%d in series %v", oldYear, newYear, st.series.Years())
}

// yearParam resolves the {year} path segment against the series snapshot.
func yearParam(st *seriesState, r *http.Request) (int, error) {
	year, err := strconv.Atoi(r.PathValue("year"))
	if err != nil {
		return 0, fmt.Errorf("bad year %q", r.PathValue("year"))
	}
	if st.series.Dataset(year) == nil {
		return 0, fmt.Errorf("no census year %d in series %v", year, st.series.Years())
	}
	return year, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status      string `json:"status"`
		Years       []int  `json:"years"`
		Pairs       int    `json:"pairs"`
		PairsCached int    `json:"pairs_cached"`
		// Generation counts ingested census years since startup; watch
		// events and ingest responses carry the same number.
		Generation uint64 `json:"generation"`
		// Store is "ok" or "degraded"; absent when no store is configured.
		// A degraded store does NOT fail the health check — the server still
		// answers every query from cache and pipeline — it is detail for
		// operators and the chaos harness.
		Store string `json:"store,omitempty"`
	}
	st := s.cur()
	h := health{
		Status:      "ok",
		Years:       st.series.Years(),
		Pairs:       len(st.series.Pairs()),
		PairsCached: s.cache.cached(),
		Generation:  st.gen,
	}
	if s.store != nil {
		h.Store = "ok"
		if s.health.isDegraded() {
			h.Store = "degraded"
		}
	}
	status := http.StatusOK
	if s.shuttingDown() {
		h.Status = "shutting_down"
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, h)
}

func (s *Server) handleYears(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	if api.NotModified(w, r, s.seriesETag(st, r)) {
		return
	}
	type pairJSON struct {
		Old int `json:"old"`
		New int `json:"new"`
	}
	pairs := make([]pairJSON, 0, len(st.series.Pairs()))
	for _, p := range st.series.Pairs() {
		pairs = append(pairs, pairJSON{Old: p[0].Year, New: p[1].Year})
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"years":      st.series.Years(),
		"pairs":      pairs,
		"generation": st.gen,
	})
}

type sourceJSON struct {
	Kind     string  `json:"kind"`
	Delta    float64 `json:"delta"`
	GroupOld string  `json:"group_old,omitempty"`
	GroupNew string  `json:"group_new,omitempty"`
	GSim     float64 `json:"gsim,omitempty"`
}

type recordLinkJSON struct {
	Old    string      `json:"old"`
	New    string      `json:"new"`
	Sim    float64     `json:"sim"`
	Source *sourceJSON `json:"source,omitempty"`
}

// handleRecordLinks serves the 1:1 record mapping of one census pair with
// per-link provenance (which stage found the link, at which δ, supported by
// which group pair). Optional filters: ?record=<id> restricts to links
// touching the record, ?source=subgraph|remainder to one stage. The page
// window applies after filtering; only the window's items are materialized
// and they stream straight to the connection.
func (s *Server) handleRecordLinks(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	i, err := pairIndex(st, r)
	if err != nil {
		api.Error(w, http.StatusNotFound, api.CodeNotFound, err.Error())
		return
	}
	recordFilter := r.URL.Query().Get("record")
	sourceFilter := r.URL.Query().Get("source")
	basis := s.pairBasis(st, i, r, recordFilter, sourceFilter)
	page, apiErr := api.ParsePage(r, basis)
	if apiErr != nil {
		apiErr.Write(w)
		return
	}
	if api.NotModified(w, r, s.pairETag(st, i, r)) {
		return
	}
	res, err := s.cache.result(r.Context(), i)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	win := api.NewWindow[recordLinkJSON](page)
	for _, l := range res.RecordLinks {
		if recordFilter != "" && l.Old != recordFilter && l.New != recordFilter {
			continue
		}
		lj := recordLinkJSON{Old: l.Old, New: l.New, Sim: l.Sim}
		if src, ok := res.Sources[linkage.Pair{Old: l.Old, New: l.New}]; ok {
			if sourceFilter != "" && src.Kind.String() != sourceFilter {
				continue
			}
			lj.Source = &sourceJSON{
				Kind:     src.Kind.String(),
				Delta:    src.Delta,
				GroupOld: src.Group.Old,
				GroupNew: src.Group.New,
				GSim:     src.GSim,
			}
		} else if sourceFilter != "" {
			continue
		}
		win.Add(lj)
	}
	pair := st.series.Pairs()[i]
	s.writeList(w, http.StatusOK, []api.Field{
		{Name: "old_year", Value: pair[0].Year},
		{Name: "new_year", Value: pair[1].Year},
		{Name: "page", Value: win.PageOf(basis)},
	}, "record_links", len(win.Items), func(i int) any { return win.Items[i] })
}

// handleGroupLinks serves the N:M household mapping of one census pair.
func (s *Server) handleGroupLinks(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	i, err := pairIndex(st, r)
	if err != nil {
		api.Error(w, http.StatusNotFound, api.CodeNotFound, err.Error())
		return
	}
	basis := s.pairBasis(st, i, r)
	page, apiErr := api.ParsePage(r, basis)
	if apiErr != nil {
		apiErr.Write(w)
		return
	}
	if api.NotModified(w, r, s.pairETag(st, i, r)) {
		return
	}
	res, err := s.cache.result(r.Context(), i)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	type groupLinkJSON struct {
		Old string `json:"old"`
		New string `json:"new"`
	}
	win := api.NewWindow[groupLinkJSON](page)
	for _, g := range res.GroupLinks {
		win.Add(groupLinkJSON{Old: g.Old, New: g.New})
	}
	pair := st.series.Pairs()[i]
	s.writeList(w, http.StatusOK, []api.Field{
		{Name: "old_year", Value: pair[0].Year},
		{Name: "new_year", Value: pair[1].Year},
		{Name: "page", Value: win.PageOf(basis)},
	}, "group_links", len(win.Items), func(i int) any { return win.Items[i] })
}

// patternEventJSON is one typed evolution event in the flattened pattern
// list: the pattern name plus the old- and new-census households involved.
type patternEventJSON struct {
	Pattern string   `json:"pattern"`
	Old     []string `json:"old"`
	New     []string `json:"new"`
}

// patternEvents flattens a pair analysis into the typed event list served
// by handlePatterns and carried (in batches) by the watch feed.
func patternEvents(a *evolution.PairAnalysis) []patternEventJSON {
	var events []patternEventJSON
	for _, pg := range a.PreservedGroups {
		events = append(events, patternEventJSON{
			Pattern: evolution.PatternPreserve.String(), Old: []string{pg[0]}, New: []string{pg[1]}})
	}
	for _, g := range a.AddedGroups {
		events = append(events, patternEventJSON{
			Pattern: evolution.PatternAdd.String(), Old: []string{}, New: []string{g}})
	}
	for _, g := range a.RemovedGroups {
		events = append(events, patternEventJSON{
			Pattern: evolution.PatternRemove.String(), Old: []string{g}, New: []string{}})
	}
	for _, mv := range a.Moves {
		events = append(events, patternEventJSON{
			Pattern: evolution.PatternMove.String(), Old: []string{mv[0]}, New: []string{mv[1]}})
	}
	for _, sp := range a.Splits {
		events = append(events, patternEventJSON{
			Pattern: evolution.PatternSplit.String(), Old: []string{sp.Old}, New: sp.News})
	}
	for _, mg := range a.Merges {
		events = append(events, patternEventJSON{
			Pattern: evolution.PatternMerge.String(), Old: mg.Olds, New: []string{mg.New}})
	}
	for _, ul := range a.UnclassifiedLinks {
		events = append(events, patternEventJSON{
			Pattern: "unclassified", Old: []string{ul[0]}, New: []string{ul[1]}})
	}
	return events
}

// patternCounts renders the per-pattern counts of Section 4.1 as a map.
func patternCounts(a *evolution.PairAnalysis) map[string]int {
	counts := map[string]int{}
	for p := evolution.PatternPreserve; p <= evolution.PatternMerge; p++ {
		counts[p.String()] = a.Count(p)
	}
	return counts
}

// handlePatterns serves the evolution-pattern analysis of one census pair:
// the per-pattern counts of Section 4.1 plus a flattened, paginated list of
// the typed events (preserve/add/remove/move/split/merge and any
// unclassified group links).
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	i, err := pairIndex(st, r)
	if err != nil {
		api.Error(w, http.StatusNotFound, api.CodeNotFound, err.Error())
		return
	}
	basis := s.pairBasis(st, i, r)
	page, apiErr := api.ParsePage(r, basis)
	if apiErr != nil {
		apiErr.Write(w)
		return
	}
	if api.NotModified(w, r, s.pairETag(st, i, r)) {
		return
	}
	res, err := s.cache.result(r.Context(), i)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	pair := st.series.Pairs()[i]
	a := evolution.Analyze(pair[0], pair[1], res)
	win := api.NewWindow[patternEventJSON](page)
	for _, ev := range patternEvents(a) {
		win.Add(ev)
	}
	s.writeList(w, http.StatusOK, []api.Field{
		{Name: "old_year", Value: a.OldYear},
		{Name: "new_year", Value: a.NewYear},
		{Name: "counts", Value: patternCounts(a)},
		{Name: "page", Value: win.PageOf(basis)},
		{Name: "unclassified_links", Value: a.UnclassifiedLinks},
		{Name: "preserved_records", Value: len(a.PreservedRecords)},
		{Name: "added_records", Value: len(a.AddedRecords)},
		{Name: "removed_records", Value: len(a.RemovedRecords)},
	}, "events", len(win.Items), func(i int) any { return win.Items[i] })
}

type hhEventJSON struct {
	FromYear int    `json:"from_year"`
	From     string `json:"from"`
	ToYear   int    `json:"to_year"`
	To       string `json:"to"`
	Pattern  string `json:"pattern"`
}

// handleHouseholdTimeline serves one household's forward evolution: every
// typed pattern edge reachable from the household's vertex in the evolution
// graph, in year order — the per-household slice of Fig. 5.
func (s *Server) handleHouseholdTimeline(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	year, err := yearParam(st, r)
	if err != nil {
		api.Error(w, http.StatusNotFound, api.CodeNotFound, err.Error())
		return
	}
	id := r.PathValue("id")
	if st.series.Dataset(year).Household(id) == nil {
		api.Error(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("no household %q in the %d census", id, year))
		return
	}
	if api.NotModified(w, r, s.seriesETag(st, r)) {
		return
	}
	b, err := s.cache.bundle(r.Context())
	if err != nil {
		s.fail(w, r, err)
		return
	}
	// Forward reachability over the typed edges.
	start := evolution.GroupVertex{Year: year, Household: id}
	var events []hhEventJSON
	seen := map[evolution.GroupVertex]bool{start: true}
	queue := []evolution.GroupVertex{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range b.edgesFrom[v] {
			events = append(events, hhEventJSON{
				FromYear: e.From.Year, From: e.From.Household,
				ToYear: e.To.Year, To: e.To.Household,
				Pattern: e.Pattern.String(),
			})
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.FromYear != b.FromYear {
			return a.FromYear < b.FromYear
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Pattern < b.Pattern
	})
	s.writeList(w, http.StatusOK, []api.Field{
		{Name: "year", Value: year},
		{Name: "household", Value: id},
	}, "events", len(events), func(i int) any { return events[i] })
}

type timelineJSON struct {
	Span    int                       `json:"span"`
	Entries []evolution.TimelineEntry `json:"entries"`
}

// handleRecordLifecycle serves the reconstructed person history through the
// given record: every timeline of the evolution graph that traverses the
// record at that census year.
func (s *Server) handleRecordLifecycle(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	year, err := yearParam(st, r)
	if err != nil {
		api.Error(w, http.StatusNotFound, api.CodeNotFound, err.Error())
		return
	}
	id := r.PathValue("id")
	rec := st.series.Dataset(year).Record(id)
	if rec == nil {
		api.Error(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Sprintf("no record %q in the %d census", id, year))
		return
	}
	if api.NotModified(w, r, s.seriesETag(st, r)) {
		return
	}
	b, err := s.cache.bundle(r.Context())
	if err != nil {
		s.fail(w, r, err)
		return
	}
	tls := make([]timelineJSON, 0, 1)
	for _, ti := range b.byRecord[recordKey{Year: year, ID: id}] {
		tl := b.timelines[ti]
		tls = append(tls, timelineJSON{Span: tl.Span(), Entries: tl.Entries})
	}
	s.writeList(w, http.StatusOK, []api.Field{
		{Name: "year", Value: year},
		{Name: "record", Value: id},
		{Name: "name", Value: rec.FullName()},
		{Name: "household", Value: rec.HouseholdID},
	}, "timelines", len(tls), func(i int) any { return tls[i] })
}

// handleTimelines serves the per-person timelines of the whole series,
// longest first, under the uniform page window. ?min_span=k keeps persons
// traced through at least k censuses (default 2). This is the API's
// feed-like read: the list grows when a census year is ingested, so a
// cursor minted before an ingest fails with 410 gone instead of skipping
// or repeating entries.
func (s *Server) handleTimelines(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	minSpan := 2
	if v := r.URL.Query().Get("min_span"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			api.Error(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("bad min_span %q", v))
			return
		}
		minSpan = n
	}
	basis := s.seriesBasis(st, r, strconv.Itoa(minSpan))
	page, apiErr := api.ParsePage(r, basis)
	if apiErr != nil {
		apiErr.Write(w)
		return
	}
	if api.NotModified(w, r, s.seriesETag(st, r)) {
		return
	}
	b, err := s.cache.bundle(r.Context())
	if err != nil {
		s.fail(w, r, err)
		return
	}
	win := api.NewWindow[timelineJSON](page)
	for _, tl := range b.timelines {
		if tl.Span() < minSpan {
			continue // timelines are sorted by descending span, but keep scanning: cheap and simple
		}
		win.Add(timelineJSON{Span: tl.Span(), Entries: tl.Entries})
	}
	s.writeList(w, http.StatusOK, []api.Field{
		{Name: "min_span", Value: minSpan},
		{Name: "page", Value: win.PageOf(basis)},
	}, "timelines", len(win.Items), func(i int) any { return win.Items[i] })
}
