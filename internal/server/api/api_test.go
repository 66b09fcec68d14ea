package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	token := EncodeCursor("basis-1", 42)
	basis, off, err := DecodeCursor(token)
	if err != nil {
		t.Fatal(err)
	}
	if basis != "basis-1" || off != 42 {
		t.Fatalf("decoded (%q, %d), want (basis-1, 42)", basis, off)
	}
	if _, _, err := DecodeCursor("!!!not-base64!!!"); err == nil {
		t.Error("garbage token decoded without error")
	}
	if _, _, err := DecodeCursor(""); err == nil {
		t.Error("empty token decoded without error")
	}
}

func TestParsePage(t *testing.T) {
	get := func(query string) *http.Request {
		return httptest.NewRequest("GET", "/v1/list"+query, nil)
	}
	// Defaults.
	p, apiErr := ParsePage(get(""), "b")
	if apiErr != nil || p.Limit != defaultPageLimit || p.Offset != 0 {
		t.Fatalf("defaults: %+v, %v", p, apiErr)
	}
	// The cursor resumes at the encoded position.
	p, apiErr = ParsePage(get("?limit=5&cursor="+EncodeCursor("b", 7)), "b")
	if apiErr != nil || p.Limit != 5 || p.Offset != 7 {
		t.Fatalf("cursor form: %+v, %v", p, apiErr)
	}
	// A bare ?cursor= is the first page.
	p, apiErr = ParsePage(get("?cursor="), "b")
	if apiErr != nil || p.Offset != 0 {
		t.Fatalf("bare cursor: %+v, %v", p, apiErr)
	}
	// Offset pagination is refused, naming the cursor to follow instead.
	if _, apiErr = ParsePage(get("?limit=5&offset=10"), "b"); apiErr == nil ||
		apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, "next_cursor") {
		t.Fatalf("offset form: %v, want 400 naming page.next_cursor", apiErr)
	}
	// Stale basis: 410 gone.
	if _, apiErr = ParsePage(get("?cursor="+EncodeCursor("old-basis", 7)), "b"); apiErr == nil ||
		apiErr.Status != http.StatusGone || apiErr.Code != CodeGone {
		t.Fatalf("stale cursor: %v, want 410 gone", apiErr)
	}
	// Malformed inputs: 400.
	for _, q := range []string{"?limit=0", "?limit=9999", "?offset=", "?offset=0", "?cursor=zzz", "?offset=1&cursor=" + EncodeCursor("b", 1)} {
		if _, apiErr = ParsePage(get(q), "b"); apiErr == nil || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%s: %v, want 400", q, apiErr)
		}
	}
}

// TestWindowCursorCoverage starts from a plain first page, follows the
// cursor chain and checks the pages tile the sequence exactly: no item
// skipped, none repeated, no token on the last page.
func TestWindowCursorCoverage(t *testing.T) {
	const total, limit = 23, 5
	var got []int
	params := PageParams{Limit: limit}
	for page := 0; ; page++ {
		w := NewWindow[int](params)
		for i := 0; i < total; i++ {
			w.Add(i)
		}
		desc := w.PageOf("b")
		if desc.Total != total || desc.Offset != len(got) || desc.Returned != len(w.Items) {
			t.Fatalf("page %d: %+v after %d items, want total %d", page, desc, len(got), total)
		}
		got = append(got, w.Items...)
		if desc.NextCursor == "" {
			break
		}
		_, off, err := DecodeCursor(desc.NextCursor)
		if err != nil {
			t.Fatal(err)
		}
		params = PageParams{Limit: limit, Offset: off}
		if page > total {
			t.Fatal("cursor chain does not terminate")
		}
	}
	if len(got) != total {
		t.Fatalf("paged %d items, want %d", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d: pages skipped or repeated", i, v)
		}
	}
}

func TestWriteListStreams(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteList(rec, http.StatusOK, []Field{{"year", 1881}}, "items", 3,
		func(i int) any { return i * 10 }, nil)
	var body struct {
		Year  int   `json:"year"`
		Items []int `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad body %q: %v", rec.Body.String(), err)
	}
	if body.Year != 1881 || len(body.Items) != 3 || body.Items[2] != 20 {
		t.Fatalf("body = %+v", body)
	}
}

func TestWriteListEncodeErrorAborts(t *testing.T) {
	rec := httptest.NewRecorder()
	counted := false
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Fatalf("recover() = %v, want http.ErrAbortHandler", r)
			}
		}()
		WriteList(rec, http.StatusOK, nil, "items", 1,
			func(i int) any { return func() {} }, // unmarshalable
			func() { counted = true })
	}()
	if !counted {
		t.Error("encode-error callback not invoked")
	}
}

func TestErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	Error(rec, http.StatusConflict, CodeConflict, "year 1901 already present")
	if rec.Code != http.StatusConflict {
		t.Fatalf("status %d", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeConflict {
		t.Errorf("code %q", env.Error.Code)
	}
}
