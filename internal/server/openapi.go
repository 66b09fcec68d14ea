package server

import (
	"net/http"
	"strings"

	"censuslink/internal/server/api"
)

// GET /v1/openapi.json: the machine-readable description of this surface,
// generated from the same route registry the mux is built from — the
// document cannot drift from the handlers because both are projections of
// one table. cmd/loadgen discovers the endpoint mix from it, and new routes
// appear in the document by being registered, not by editing a spec.

// openAPIVersion is the info.version of the generated document; bump it
// with etagSurface when the response shapes change.
const openAPIVersion = "1.3.0"

func (s *Server) handleOpenAPI(w http.ResponseWriter, r *http.Request) {
	st := s.cur()
	if api.NotModified(w, r, s.seriesETag(st, r)) {
		return
	}
	type obj = map[string]any

	paths := obj{}
	for _, rt := range s.apiRoutes {
		params := make([]obj, 0, len(rt.params)+3)
		docs := rt.params
		if rt.paginated {
			docs = append(append([]paramDoc{}, docs...), pageParamDocs...)
		}
		for _, p := range docs {
			pd := obj{
				"name":        p.name,
				"in":          p.in,
				"description": p.desc,
				"schema":      obj{"type": p.typ},
			}
			if p.required || p.in == "path" {
				pd["required"] = true
			}
			params = append(params, pd)
		}
		op := obj{
			"operationId": rt.name,
			"summary":     rt.summary,
			"responses": obj{
				"default": obj{"description": "JSON body; errors use the envelope {\"error\": {\"code\", \"message\"}}"},
			},
		}
		if len(params) > 0 {
			op["parameters"] = params
		}
		if rt.streaming {
			op["x-streaming"] = true
			op["responses"] = obj{
				"200": obj{"description": "text/event-stream (SSE) by default; application/json with ?mode=poll"},
			}
		}
		if rt.paginated {
			op["x-paginated"] = true
		}
		p := "/v1" + rt.path
		ops, _ := paths[p].(obj)
		if ops == nil {
			ops = obj{}
			paths[p] = ops
		}
		ops[strings.ToLower(rt.method)] = op
	}

	doc := obj{
		"openapi": "3.0.3",
		"info": obj{
			"title":       "censuslink",
			"description": "Temporal census linkage and household evolution query service.",
			"version":     openAPIVersion,
		},
		"paths": paths,
		"x-series": obj{
			"years":      st.series.Years(),
			"generation": st.gen,
		},
	}
	api.WriteJSON(w, http.StatusOK, doc)
}
