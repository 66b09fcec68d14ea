package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseEvent is one parsed server-sent event frame.
type sseEvent struct {
	ID    uint64
	Event string
	Data  string
}

// readSSE parses frames off an event stream until n events arrive or the
// context expires.
func readSSE(t *testing.T, ctx context.Context, body *bufio.Reader, n int) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	lines := make(chan string)
	errc := make(chan error, 1)
	go func() {
		for {
			line, err := body.ReadString('\n')
			if err != nil {
				errc <- err
				return
			}
			lines <- strings.TrimRight(line, "\n")
		}
	}()
	for len(events) < n {
		select {
		case line := <-lines:
			switch {
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.ParseUint(line[4:], 10, 64)
				if err != nil {
					t.Fatalf("bad SSE id line %q", line)
				}
				cur.ID = id
			case strings.HasPrefix(line, "event: "):
				cur.Event = line[7:]
			case strings.HasPrefix(line, "data: "):
				cur.Data = line[6:]
			case line == "" && cur.Event != "":
				events = append(events, cur)
				cur = sseEvent{}
			}
		case err := <-errc:
			t.Fatalf("stream ended after %d/%d events: %v", len(events), n, err)
		case <-ctx.Done():
			t.Fatalf("timed out after %d/%d events", len(events), n)
		}
	}
	return events
}

// TestWatchSSEObservesIngest: a connected SSE subscriber sees the ingest's
// census_ingested summary followed by its transitions batches, with
// monotonic IDs and the versioned schema.
func TestWatchSSEObservesIngest(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/evolution/watch", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// Wait until the hub has registered the subscriber before ingesting.
	for {
		if n, _, _ := srv.watch.metrics(); n > 0 {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("subscriber never registered")
		case <-time.After(5 * time.Millisecond):
		}
	}

	third := srv.cur().series.Dataset(1891)
	fourth := agedDataset(t, third, "1891", "1901", 1901)
	if status, body := postCSV(t, ts, 1901, csvBody(t, fourth)); status != http.StatusCreated {
		t.Fatalf("POST = %d: %s", status, body)
	}

	events := readSSE(t, ctx, bufio.NewReader(resp.Body), 2)
	if events[0].Event != "census_ingested" {
		t.Fatalf("first event = %q, want census_ingested", events[0].Event)
	}
	var ingested ingestEventJSON
	if err := json.Unmarshal([]byte(events[0].Data), &ingested); err != nil {
		t.Fatal(err)
	}
	if ingested.Schema != watchEventSchema || ingested.Year != 1901 || ingested.Generation != 1 {
		t.Errorf("census_ingested = %+v", ingested)
	}
	if events[1].Event != "transitions" {
		t.Fatalf("second event = %q, want transitions", events[1].Event)
	}
	var trans transitionsEventJSON
	if err := json.Unmarshal([]byte(events[1].Data), &trans); err != nil {
		t.Fatal(err)
	}
	if trans.Schema != watchEventSchema || trans.NewYear != 1901 || len(trans.Transitions) == 0 {
		t.Errorf("transitions = %+v", trans)
	}
	if events[1].ID <= events[0].ID {
		t.Errorf("event IDs not monotonic: %d then %d", events[0].ID, events[1].ID)
	}
}

// TestWatchLastEventIDResume: a reconnecting subscriber presenting
// Last-Event-ID receives exactly the retained events after it, in order.
func TestWatchLastEventIDResume(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 1; i <= 5; i++ {
		srv.watch.publish("test_event", map[string]int{"n": i})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/evolution/watch", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, ctx, bufio.NewReader(resp.Body), 3)
	for i, ev := range events {
		if want := uint64(3 + i); ev.ID != want {
			t.Errorf("replayed event %d has ID %d, want %d", i, ev.ID, want)
		}
	}

	// The query-parameter form resumes identically (for clients that cannot
	// set headers).
	req2, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/evolution/watch?last_event_id=4", nil)
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events2 := readSSE(t, ctx, bufio.NewReader(resp2.Body), 1)
	if events2[0].ID != 5 {
		t.Errorf("query-param resume replayed ID %d, want 5", events2[0].ID)
	}
}

// TestWatchHubRingAndEviction: hub-level semantics — the replay ring keeps
// only the newest events, and a subscriber that stops draining is evicted
// (channel closed, eviction counted) instead of stalling the feed.
func TestWatchHubRingAndEviction(t *testing.T) {
	hub := newWatchHub(3)
	for i := 1; i <= 5; i++ {
		hub.publish("e", i)
	}
	if got := hub.lastID(); got != 5 {
		t.Fatalf("lastID = %d", got)
	}
	// Only the last ringCap events are retained for resume.
	if backlog := hub.eventsAfter(0); len(backlog) != 3 || backlog[0].ID != 3 {
		t.Fatalf("retained ring = %+v, want IDs 3..5", backlog)
	}

	// A subscriber that never drains overflows its channel and is dropped.
	sub, _ := hub.subscribe(5)
	for i := 0; i < subscriberBuffer+1; i++ {
		hub.publish("e", i)
	}
	if _, _, evictions := hub.metrics(); evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if subs, _, _ := hub.metrics(); subs != 0 {
		t.Errorf("evicted subscriber still registered")
	}
	// Drain to the close: the channel delivers what fit, then reports closed
	// so the serving goroutine ends the stream and the client reconnects.
	n := 0
	for range sub.ch {
		n++
	}
	if n != subscriberBuffer {
		t.Errorf("drained %d events before close, want %d", n, subscriberBuffer)
	}
	if !sub.evicted {
		t.Error("evicted flag not set")
	}
}

// TestWatchOrderingUnderConcurrentIngest: concurrent POSTs of the same new
// year resolve to exactly one 201 and one 409, and the feed carries exactly
// one ingest's events with strictly increasing IDs.
func TestWatchOrderingUnderConcurrentIngest(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	third := srv.cur().series.Dataset(1891)
	body := csvBody(t, agedDataset(t, third, "1891", "1901", 1901))
	statuses := make([]int, 2)
	var wg sync.WaitGroup
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postCSV(t, ts, 1901, body)
		}(i)
	}
	wg.Wait()
	if !(statuses[0] == http.StatusCreated && statuses[1] == http.StatusConflict) &&
		!(statuses[0] == http.StatusConflict && statuses[1] == http.StatusCreated) {
		t.Fatalf("concurrent same-year ingests = %v, want one 201 and one 409", statuses)
	}

	// A second, later year keeps the feed ordered: generations 1 then 2,
	// IDs strictly increasing across the whole feed.
	fourth := srv.cur().series.Dataset(1901)
	if status, b := postCSV(t, ts, 1911, csvBody(t, agedDataset(t, fourth, "1901", "1911", 1911))); status != http.StatusCreated {
		t.Fatalf("second ingest = %d: %s", status, b)
	}
	events := srv.watch.eventsAfter(0)
	var lastID uint64
	var gens []uint64
	for _, ev := range events {
		if ev.ID <= lastID {
			t.Fatalf("event IDs not strictly increasing: %d after %d", ev.ID, lastID)
		}
		lastID = ev.ID
		if ev.Name == "census_ingested" {
			var ing ingestEventJSON
			if err := json.Unmarshal(ev.Data, &ing); err != nil {
				t.Fatal(err)
			}
			gens = append(gens, ing.Generation)
		}
	}
	if len(gens) != 2 || gens[0] != 1 || gens[1] != 2 {
		t.Errorf("census_ingested generations = %v, want [1 2]", gens)
	}
}

// TestWatchLongPoll: the ?mode=poll fallback returns pending events
// immediately, parks up to ?wait= when there are none, and resumes from
// ?after= with the same IDs the stream would deliver.
func TestWatchLongPoll(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type pollResponse struct {
		Events []struct {
			ID    uint64          `json:"id"`
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		} `json:"events"`
		LastID uint64 `json:"last_id"`
	}

	// Empty feed: immediate empty answer.
	var empty pollResponse
	getJSON(t, ts, "/v1/evolution/watch?mode=poll", &empty)
	if len(empty.Events) != 0 || empty.LastID != 0 {
		t.Fatalf("empty poll = %+v", empty)
	}

	// A parked poll is woken by a publish.
	done := make(chan pollResponse, 1)
	go func() {
		var r pollResponse
		getJSON(t, ts, "/v1/evolution/watch?mode=poll&wait=10s", &r)
		done <- r
	}()
	// Give the poll a moment to park, then publish.
	time.Sleep(50 * time.Millisecond)
	srv.watch.publish("test_event", map[string]string{"k": "v"})
	select {
	case r := <-done:
		if len(r.Events) == 0 || r.Events[0].Event != "test_event" {
			t.Fatalf("woken poll = %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked poll never woke")
	}

	// Resume from after: only newer events.
	srv.watch.publish("test_event", map[string]string{"k": "v2"})
	var more pollResponse
	getJSON(t, ts, fmt.Sprintf("/v1/evolution/watch?mode=poll&after=%d", 1), &more)
	if len(more.Events) != 1 || more.Events[0].ID != 2 {
		t.Fatalf("after=1 poll = %+v", more)
	}
	if more.LastID != 2 {
		t.Errorf("last_id = %d, want 2", more.LastID)
	}

	// Malformed resume points are 400s.
	if status, _ := get(t, ts, "/v1/evolution/watch?mode=poll&after=x"); status != http.StatusBadRequest {
		t.Errorf("bad after = %d, want 400", status)
	}
	if status, _ := get(t, ts, "/v1/evolution/watch?mode=poll&wait=x"); status != http.StatusBadRequest {
		t.Errorf("bad wait = %d, want 400", status)
	}
}

// TestOpenAPIDocument: the generated document describes every registered
// route, marks the stream, documents cursor pagination only (no offset
// parameter, nothing deprecated), and serves under a validator like
// everything else.
func TestOpenAPIDocument(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := get(t, ts, "/v1/openapi.json")
	if status != http.StatusOK {
		t.Fatalf("openapi = %d", status)
	}
	var doc struct {
		OpenAPI string                                `json:"openapi"`
		Paths   map[string]map[string]json.RawMessage `json:"paths"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(doc.OpenAPI, "3.") {
		t.Errorf("openapi version = %q", doc.OpenAPI)
	}
	for _, rt := range srv.apiRoutes {
		ops, ok := doc.Paths["/v1"+rt.path]
		if !ok {
			t.Errorf("route %s missing from document", rt.path)
			continue
		}
		if _, ok := ops[strings.ToLower(rt.method)]; !ok {
			t.Errorf("route %s missing %s operation", rt.path, rt.method)
		}
	}
	if !bytes.Contains(body, []byte(`"x-streaming":true`)) {
		t.Error("watch route not marked x-streaming")
	}
	if bytes.Contains(body, []byte(`"name":"offset"`)) {
		t.Error("document still lists an offset parameter")
	}
	if bytes.Contains(body, []byte(`"deprecated"`)) {
		t.Error("document still marks something deprecated")
	}
	if !bytes.Contains(body, []byte(`"name":"cursor"`)) {
		t.Error("document lists no cursor parameter")
	}
}
