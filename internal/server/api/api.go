// Package api holds the response conventions of the versioned /v1 HTTP
// surface: the typed error envelope, small-object and streaming list
// encoders and the uniform pagination layer (a page size plus an opaque
// cursor). Handlers in internal/server are built on these helpers so every
// endpoint — existing or new — speaks the same dialect by construction.
package api

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Error codes of the v1 envelope. Every non-2xx response carries
// {"error": {"code": <one of these>, "message": <human text>}} so clients
// can branch on the code without parsing prose.
const (
	CodeBadRequest  = "bad_request"  // malformed parameter or body (400)
	CodeNotFound    = "not_found"    // unknown year, pair, record, household (404)
	CodeConflict    = "conflict"     // ingest of a year the series already has (409)
	CodeGone        = "gone"         // cursor minted against an earlier series version (410)
	CodeTooLarge    = "too_large"    // ingest body above the configured cap (413)
	CodeTimeout     = "timeout"      // computation exceeded its deadline (504)
	CodeUnavailable = "unavailable"  // computation cancelled / server draining (503)
	CodeOverloaded  = "overloaded"   // shed by the in-flight cap (503)
	CodeRateLimited = "rate_limited" // shed by the per-client token bucket (429)
	CodeInternal    = "internal"     // anything else (500)
)

// StatusClientClosedRequest is nginx's non-standard 499: the requester went
// away before a response was written. No body accompanies it — nobody is
// left to read one — but the code keeps client disconnects distinguishable
// from genuine 5xx in the per-endpoint response counters.
const StatusClientClosedRequest = 499

// ErrorEnvelope is the uniform error body of the v1 API.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries the machine-readable code and the human message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteJSON renders a small, non-list response body. The value is encoded
// to a buffer first, so a marshal failure becomes a clean 500 envelope —
// the status is never committed before the body is known good.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		data, _ = json.Marshal(ErrorEnvelope{Error: ErrorBody{
			Code: CodeInternal, Message: "response encoding failed: " + err.Error()}})
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// Error writes the uniform error envelope.
func Error(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: message}})
}

// Err is a ready-to-send API error: status plus envelope fields. Helpers
// that can fail in more than one way (pagination: 400 vs 410) return it so
// the handler stays a one-liner.
type Err struct {
	Status  int
	Code    string
	Message string
}

func (e *Err) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Write sends the error to the client.
func (e *Err) Write(w http.ResponseWriter) { Error(w, e.Status, e.Code, e.Message) }

// Field is one scalar member of a list response's envelope.
type Field struct {
	Name  string
	Value any
}

// WriteList streams a list-shaped response: the envelope fields are
// marshalled up front — any encoding error there still becomes a clean 500
// — then the page's items are encoded one at a time through a buffered
// writer, so the response is never materialized as one whole byte slice. An
// item that fails to encode after the header is out cannot be unsent;
// onEncodeError is called (the server counts it on /metrics) and the
// connection aborted, so the client sees a broken transfer instead of a
// clean 200 with a truncated body.
func WriteList(w http.ResponseWriter, status int, fields []Field, listName string, n int, item func(int) any, onEncodeError func()) {
	var head bytes.Buffer
	head.WriteByte('{')
	for _, f := range fields {
		data, err := json.Marshal(f.Value)
		if err != nil {
			Error(w, http.StatusInternalServerError, CodeInternal,
				fmt.Sprintf("response encoding failed on %q: %v", f.Name, err))
			return
		}
		key, _ := json.Marshal(f.Name)
		head.Write(key)
		head.WriteByte(':')
		head.Write(data)
		head.WriteByte(',')
	}
	key, _ := json.Marshal(listName)
	head.Write(key)
	head.WriteString(":[")

	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	bw := bufio.NewWriterSize(w, 16<<10)
	_, _ = bw.Write(head.Bytes())
	for i := 0; i < n; i++ {
		data, err := json.Marshal(item(i))
		if err != nil {
			if onEncodeError != nil {
				onEncodeError()
			}
			panic(http.ErrAbortHandler)
		}
		if i > 0 {
			_ = bw.WriteByte(',')
		}
		_, _ = bw.Write(data)
	}
	_, _ = bw.WriteString("]}\n")
	_ = bw.Flush() // a flush error means the client is gone; nothing to do
}

// Page describes the window a list-shaped response covers: the requested
// limit, the position of the window's first item (offset), the total number
// of items after filtering, how many of them this response carries, and the
// opaque token of the next page (absent on the last page).
type Page struct {
	Limit      int    `json:"limit"`
	Offset     int    `json:"offset"`
	Total      int    `json:"total"`
	Returned   int    `json:"returned"`
	NextCursor string `json:"next_cursor,omitempty"`
}

const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// PageParams is a parsed pagination request: the page size and the
// position of the page's first item, decoded from the cursor.
type PageParams struct {
	Limit  int
	Offset int
}

// ParsePage parses the uniform pagination parameters: ?limit= and ?cursor=,
// an opaque token minted by a previous response's page.next_cursor. An
// absent or empty cursor means the first page. basis is the resource's
// content basis (the same string later passed to PageOf): a cursor minted
// against a different basis — the series changed under the listing — fails
// with 410 gone, so clients restart from the top instead of silently
// skipping or repeating items. ?offset= is refused with 400 rather than
// ignored: a client paging by offset would otherwise get the first page
// forever.
func ParsePage(r *http.Request, basis string) (PageParams, *Err) {
	p := PageParams{Limit: defaultPageLimit}
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		n, e := strconv.Atoi(v)
		if e != nil || n < 1 || n > maxPageLimit {
			return p, &Err{http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("bad limit %q: want an integer in 1..%d", v, maxPageLimit)}
		}
		p.Limit = n
	}
	if q.Has("offset") {
		return p, &Err{http.StatusBadRequest, CodeBadRequest,
			"offset pagination is not supported: follow page.next_cursor with ?cursor="}
	}
	if cursor := q.Get("cursor"); cursor != "" {
		cb, off, err := DecodeCursor(cursor)
		if err != nil {
			return p, &Err{http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("bad cursor: %v", err)}
		}
		if cb != basis {
			return p, &Err{http.StatusGone, CodeGone,
				"cursor was minted against an earlier version of this resource; restart from the first page"}
		}
		p.Offset = off
	}
	return p, nil
}

// cursorPayload is the decoded form of the opaque token.
type cursorPayload struct {
	Basis  string `json:"b"`
	Offset int    `json:"o"`
}

// EncodeCursor mints the opaque token for position offset of a resource
// with the given content basis.
func EncodeCursor(basis string, offset int) string {
	data, _ := json.Marshal(cursorPayload{Basis: basis, Offset: offset})
	return base64.RawURLEncoding.EncodeToString(data)
}

// DecodeCursor unpacks an opaque token into its basis and offset.
func DecodeCursor(token string) (basis string, offset int, err error) {
	data, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return "", 0, fmt.Errorf("not a cursor token")
	}
	var p cursorPayload
	if err := json.Unmarshal(data, &p); err != nil || p.Offset < 0 {
		return "", 0, fmt.Errorf("not a cursor token")
	}
	return p.Basis, p.Offset, nil
}

// Window collects the [offset, offset+limit) page of a filtered sequence
// without materializing the rest: feed every passing item to Add, then read
// the Items slice and page descriptor. Only up to limit items are ever kept.
type Window[T any] struct {
	params PageParams
	total  int
	Items  []T
}

// NewWindow builds a page window for the parsed parameters.
func NewWindow[T any](p PageParams) *Window[T] {
	return &Window[T]{params: p}
}

// Add admits one item that passed the handler's filters.
func (w *Window[T]) Add(v T) {
	if w.total >= w.params.Offset && len(w.Items) < w.params.Limit {
		w.Items = append(w.Items, v)
	}
	w.total++
}

// PageOf returns the filled page descriptor. basis must be the same string
// the handler passed to ParsePage; when more items remain, the descriptor
// carries the next page's token.
func (w *Window[T]) PageOf(basis string) Page {
	p := Page{
		Limit:    w.params.Limit,
		Offset:   w.params.Offset,
		Total:    w.total,
		Returned: len(w.Items),
	}
	if next := w.params.Offset + len(w.Items); next < w.total {
		p.NextCursor = EncodeCursor(basis, next)
	}
	return p
}

// CanonicalURL renders the request path with the query parameters in sorted
// order, so ?limit=2&min_span=3 and ?min_span=3&limit=2 share one validator.
func CanonicalURL(r *http.Request) string {
	return r.URL.Path + "?" + r.URL.Query().Encode()
}

// ETagMatches implements the If-None-Match comparison of RFC 9110 §13.1.2:
// a comma-separated list of entity tags, compared weakly (a W/ prefix on
// the client's copy still matches our strong tag), or the wildcard *.
func ETagMatches(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		if c == "*" {
			return true
		}
		c = strings.TrimPrefix(c, "W/")
		if c != "" && c == etag {
			return true
		}
	}
	return false
}

// NotModified stamps the response with the resource's ETag and, when the
// request's If-None-Match matches it, short-circuits with 304 Not Modified
// and reports true — the caller sends no body. Cache-Control: no-cache
// makes intermediaries revalidate on every use: the validator of every
// resource changes when a new census year is ingested, so a revalidation
// after an ingest refetches a fresh body.
func NotModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "no-cache")
	if !ETagMatches(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}
