package httpapi

import (
	"encoding/json"
	"net/http"
	"time"

	"geoblocks"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
)

// maxJoinPolygons caps one join request's polygon count (and a window's
// nx*ny tile count): the operator is built for hundreds to a few
// thousand regions per call, and the cap keeps one request's memory
// bounded the same way maxBodyBytes bounds its wire size.
const maxJoinPolygons = 10_000

// joinRequest is the POST /v1/join body. Exactly one region form must be
// set: polygons (explicit rings) or window (an nx-by-ny rectangular tile
// grid over rect — the map-tile / heatmap form, generated server-side so
// the client sends 4 floats instead of thousands of rings).
type joinRequest struct {
	Dataset string `json:"dataset"`
	// Polygons is one outer ring per join region.
	Polygons [][][2]float64 `json:"polygons,omitempty"`
	// Window tiles rect into an nx-by-ny grid of adjacent rectangles,
	// answered as one join; results are row-major from (min_x, min_y).
	Window *joinWindow `json:"window,omitempty"`
	Aggs   []aggJSON   `json:"aggs"`
	// MaxError plans the shared pyramid level for every region (0 =
	// exact), exactly as for /v1/query.
	MaxError float64 `json:"max_error,omitempty"`
	// NoCache bypasses the result cache and the per-shard caches.
	NoCache bool `json:"no_cache,omitempty"`
}

// joinWindow is the rect-grid form: rect is [minX, minY, maxX, maxY].
type joinWindow struct {
	Rect [4]float64 `json:"rect"`
	NX   int        `json:"nx"`
	NY   int        `json:"ny"`
}

// rects materialises the tile grid, row-major from the minimum corner.
func (jw *joinWindow) rects() []geom.Rect {
	r := geom.Rect{Min: geom.Pt(jw.Rect[0], jw.Rect[1]), Max: geom.Pt(jw.Rect[2], jw.Rect[3])}
	dx := (r.Max.X - r.Min.X) / float64(jw.NX)
	dy := (r.Max.Y - r.Min.Y) / float64(jw.NY)
	out := make([]geom.Rect, 0, jw.NX*jw.NY)
	for iy := 0; iy < jw.NY; iy++ {
		for ix := 0; ix < jw.NX; ix++ {
			out = append(out, geom.Rect{
				Min: geom.Pt(r.Min.X+float64(ix)*dx, r.Min.Y+float64(iy)*dy),
				Max: geom.Pt(r.Min.X+float64(ix+1)*dx, r.Min.Y+float64(iy+1)*dy),
			})
		}
	}
	return out
}

// joinStatsJSON reports one join call's plan shape and classification
// economy alongside the results.
type joinStatsJSON struct {
	Polygons int `json:"polygons"`
	// UniquePolygons counts the distinct geometries after content dedup;
	// duplicated regions are covered once and replicated positionally.
	UniquePolygons int `json:"unique_polygons"`
	Level          int `json:"level"`
	GridLevel      int `json:"grid_level"`
	// InteriorPairs were answered O(1) from whole grid cells;
	// InteriorFraction is their share of all classified pairs.
	InteriorPairs    int     `json:"interior_pairs"`
	BoundaryPairs    int     `json:"boundary_pairs"`
	InteriorFraction float64 `json:"interior_fraction"`
	Fallbacks        int     `json:"fallbacks"`
	CacheHits        int     `json:"cache_hits"`
	CacheMisses      int     `json:"cache_misses"`
}

func toJoinStatsJSON(s store.JoinStats) joinStatsJSON {
	return joinStatsJSON{
		Polygons:         s.Polygons,
		UniquePolygons:   s.UniquePolygons,
		Level:            s.Level,
		GridLevel:        s.GridLevel,
		InteriorPairs:    s.InteriorPairs,
		BoundaryPairs:    s.BoundaryPairs,
		InteriorFraction: s.InteriorFraction(),
		Fallbacks:        s.Fallbacks,
		CacheHits:        s.CacheHits,
		CacheMisses:      s.CacheMisses,
	}
}

// joinResponse is the /v1/join answer: one result per region,
// positionally aligned with the request's polygons (or row-major tiles).
type joinResponse struct {
	Dataset   string        `json:"dataset"`
	Results   []resultJSON  `json:"results"`
	Stats     joinStatsJSON `json:"stats"`
	ElapsedUS int64         `json:"elapsed_us"`
}

func (s *server) handleJoin(w http.ResponseWriter, r *http.Request) {
	s.reqJoin.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	if req.Dataset == "" {
		writeError(w, http.StatusBadRequest, "missing dataset")
		return
	}
	d, ok := s.store.Get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	if (req.Polygons != nil) == (req.Window != nil) {
		writeError(w, http.StatusBadRequest, "exactly one of polygons or window must be set")
		return
	}
	if req.Polygons != nil && len(req.Polygons) == 0 {
		writeError(w, http.StatusBadRequest, "polygons must not be empty")
		return
	}
	if len(req.Polygons) > maxJoinPolygons {
		writeError(w, http.StatusBadRequest, "join is capped at %d polygons, got %d", maxJoinPolygons, len(req.Polygons))
		return
	}
	if jw := req.Window; jw != nil {
		rc := geom.Rect{Min: geom.Pt(jw.Rect[0], jw.Rect[1]), Max: geom.Pt(jw.Rect[2], jw.Rect[3])}
		if !rc.IsValid() {
			writeError(w, http.StatusBadRequest, "window rect: min exceeds max")
			return
		}
		if jw.NX < 1 || jw.NY < 1 || jw.NX*jw.NY > maxJoinPolygons {
			writeError(w, http.StatusBadRequest, "window grid must be at least 1x1 and at most %d tiles, got %dx%d", maxJoinPolygons, jw.NX, jw.NY)
			return
		}
	}
	if len(req.Aggs) == 0 {
		writeError(w, http.StatusBadRequest, "missing aggs")
		return
	}
	reqs := make([]geoblocks.AggRequest, len(req.Aggs))
	for i, a := range req.Aggs {
		ar, err := a.toRequest()
		if err != nil {
			writeError(w, http.StatusBadRequest, "aggs[%d]: %v", i, err)
			return
		}
		reqs[i] = ar
	}
	opts, err := queryOptions(req.MaxError, req.NoCache)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if s.cfg.Coordinator && s.cfg.Cluster != nil {
		s.handleClusterJoin(w, r, req, opts, reqs)
		return
	}

	start := time.Now()
	var results []geoblocks.Result
	var stats store.JoinStats
	if req.Window != nil {
		results, stats, err = d.JoinRects(req.Window.rects(), opts, reqs...)
	} else {
		polys, perr := parseRings(req.Polygons)
		if perr != nil {
			writeError(w, http.StatusBadRequest, "%v", perr)
			return
		}
		results, stats, err = d.Join(polys, opts, reqs...)
	}
	if err != nil {
		writeError(w, queryStatus(err), "join: %v", err)
		return
	}
	resp := joinResponse{
		Dataset: req.Dataset,
		Results: make([]resultJSON, len(results)),
		Stats:   toJoinStatsJSON(stats),
	}
	for i, res := range results {
		resp.Results[i] = toResultJSON(res)
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterJoin is handleJoin's cluster-mode tail: the coordinator
// plans the shared grid once and scatters each region's covering across
// the peers. The window form joins the materialised tile outlines.
func (s *server) handleClusterJoin(w http.ResponseWriter, r *http.Request, req joinRequest, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) {
	start := time.Now()
	var polys []*geom.Polygon
	if req.Window != nil {
		rects := req.Window.rects()
		polys = make([]*geom.Polygon, len(rects))
		for i, rc := range rects {
			polys[i] = rc.Polygon()
		}
	} else {
		var err error
		if polys, err = parseRings(req.Polygons); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	results, stats, err := s.cfg.Cluster.Join(r.Context(), req.Dataset, polys, opts, reqs)
	if err != nil {
		clusterErrStatus(w, err)
		return
	}
	resp := joinResponse{
		Dataset: req.Dataset,
		Results: make([]resultJSON, len(results)),
		Stats:   toJoinStatsJSON(stats),
	}
	for i, res := range results {
		resp.Results[i] = toResultJSON(res)
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, resp)
}
