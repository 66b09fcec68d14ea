package server

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"

	"censuslink/internal/server/api"
)

// Linkage results are immutable: every pair's output is a pure function of
// (configuration, old dataset, new dataset), which is exactly the content
// address the snapshot store files results under. That makes strong ETags
// free — hash the address plus the canonical request URL, no result bytes
// needed — and a conditional revalidation can answer 304 without even
// touching the cache, let alone recomputing the pair.
//
// Every validator additionally hashes the current series fingerprint, so
// ingesting a new census year (POST /v1/census) invalidates the whole ETag
// surface at once: after an ingest, a conditional GET on ANY endpoint —
// including a pair whose own data did not change — revalidates to a fresh
// 200 body, and clients see one consistent series version rather than a mix
// of pre- and post-ingest responses.

// etagSurface salts every ETag with the version of the JSON representation.
// Bump it whenever a response shape changes, so clients holding ETags from
// an older build revalidate to fresh bodies instead of keeping stale shapes.
const etagSurface = "v1.3"

// pairETag is the strong validator of a pair-scoped resource: the content
// address of pair i (config fingerprint + both dataset hashes), the series
// fingerprint, and the canonical request URL, so every filter/page window
// validates separately.
func (s *Server) pairETag(st *seriesState, i int, r *http.Request) string {
	pair := st.series.Pairs()[i]
	return makeETag(etagSurface, s.cfgHash, st.seriesHash,
		pair[0].ContentHash(), pair[1].ContentHash(), api.CanonicalURL(r))
}

// seriesETag is the validator of series-wide resources (years, timelines,
// lifecycles, household timelines): it covers every dataset's content hash
// through the series fingerprint, since those responses derive from the
// whole evolution graph.
func (s *Server) seriesETag(st *seriesState, r *http.Request) string {
	return makeETag(etagSurface, s.cfgHash, st.seriesHash, api.CanonicalURL(r))
}

// pairBasis is the pagination basis of a pair-scoped listing: cursors stay
// valid as long as the pair's content and the filter set are unchanged —
// they survive ingests of later years, because an append cannot alter an
// already-linked pair.
func (s *Server) pairBasis(st *seriesState, i int, r *http.Request, filters ...string) string {
	pair := st.series.Pairs()[i]
	parts := append([]string{"cursor", s.cfgHash,
		pair[0].ContentHash(), pair[1].ContentHash(), r.URL.Path}, filters...)
	return makeETag(parts...)
}

// seriesBasis is the pagination basis of a series-wide listing: an ingest
// changes the series fingerprint, so cursors minted before it fail with
// 410 gone instead of silently skipping or repeating items of the grown
// feed.
func (s *Server) seriesBasis(st *seriesState, r *http.Request, filters ...string) string {
	parts := append([]string{"cursor", s.cfgHash, st.seriesHash, r.URL.Path}, filters...)
	return makeETag(parts...)
}

// makeETag hashes the NUL-separated parts into a strong entity tag.
func makeETag(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return `"` + hex.EncodeToString(h.Sum(nil))[:32] + `"`
}
