package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"geoblocks/internal/geom"
)

// opKind is the request type of one operation.
type opKind int

const (
	opQuery opKind = iota
	opJoin
	opIngest
	opCompact
)

// op is one request of a workload round: the JSON body cmd/loadgen would
// send, plus the decoded inputs the checks and the traced replay need.
type op struct {
	kind   opKind
	path   string
	body   []byte
	maxErr float64
	// Query inputs: exactly one of poly and rect is set.
	poly *geom.Polygon
	rect *geom.Rect
	// wholeBound marks live's read-your-writes count over the full bound.
	wholeBound bool
	// Join inputs: polys for the polygon form, tiles for the window form.
	polys []*geom.Polygon
	tiles []geom.Rect
	// Ingest rows.
	pts  []geom.Point
	cols [][]float64
}

// ring returns the query region's outer ring (rects as 4 corners).
func (o *op) ring() []geom.Point {
	if o.poly != nil {
		return o.poly.Outer()
	}
	return rectRing(*o.rect)
}

// aggsJSON is the aggregate list every read sends: COUNT is checked
// against the oracle, MIN/MAX bit for bit across paths, SUM within
// reassociation.
var aggsJSON = []map[string]string{
	{"func": "count"},
	{"func": "sum", "col": "fare_amount"},
	{"func": "min", "col": "fare_amount"},
	{"func": "max", "col": "fare_amount"},
}

const (
	sumIdx = 1
	minIdx = 2
	maxIdx = 3
)

func ringJSON(ring []geom.Point) [][2]float64 {
	out := make([][2]float64, len(ring))
	for i, p := range ring {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func queryPoly(p *geom.Polygon, maxErr float64) op {
	body := map[string]any{"dataset": datasetName, "polygon": ringJSON(p.Outer()), "aggs": aggsJSON}
	if maxErr > 0 {
		body["max_error"] = maxErr
	}
	return op{kind: opQuery, path: "/v1/query", body: mustJSON(body), poly: p, maxErr: maxErr}
}

func queryRect(r geom.Rect, maxErr float64) op {
	body := map[string]any{"dataset": datasetName, "rect": [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}, "aggs": aggsJSON}
	if maxErr > 0 {
		body["max_error"] = maxErr
	}
	return op{kind: opQuery, path: "/v1/query", body: mustJSON(body), rect: &r, maxErr: maxErr}
}

func joinPolys(polys []*geom.Polygon, maxErr float64) op {
	rings := make([][][2]float64, len(polys))
	for i, p := range polys {
		rings[i] = ringJSON(p.Outer())
	}
	body := map[string]any{"dataset": datasetName, "polygons": rings, "aggs": aggsJSON}
	if maxErr > 0 {
		body["max_error"] = maxErr
	}
	return op{kind: opJoin, path: "/v1/join", body: mustJSON(body), polys: polys, maxErr: maxErr}
}

// joinWindow is the heatmap form: an nx-by-ny tile grid over r, tiles
// materialised here exactly as the server does (row-major from the
// minimum corner) so each tile can be checked as a single query.
func joinWindow(r geom.Rect, nx, ny int, maxErr float64) op {
	body := map[string]any{
		"dataset": datasetName,
		"window":  map[string]any{"rect": [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}, "nx": nx, "ny": ny},
		"aggs":    aggsJSON,
	}
	if maxErr > 0 {
		body["max_error"] = maxErr
	}
	dx, dy := (r.Max.X-r.Min.X)/float64(nx), (r.Max.Y-r.Min.Y)/float64(ny)
	tiles := make([]geom.Rect, 0, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			tiles = append(tiles, geom.Rect{
				Min: geom.Pt(r.Min.X+float64(ix)*dx, r.Min.Y+float64(iy)*dy),
				Max: geom.Pt(r.Min.X+float64(ix+1)*dx, r.Min.Y+float64(iy+1)*dy),
			})
		}
	}
	return op{kind: opJoin, path: "/v1/join", body: mustJSON(body), tiles: tiles, maxErr: maxErr}
}

func ingestRows(pts []geom.Point, cols [][]float64) op {
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		row := make([]float64, 2+len(cols))
		row[0], row[1] = p.X, p.Y
		for c := range cols {
			row[2+c] = cols[c][i]
		}
		rows[i] = row
	}
	return op{kind: opIngest, path: "/v1/datasets/" + datasetName + "/rows", body: mustJSON(map[string]any{"rows": rows}), pts: pts, cols: cols}
}

func compactOp() op {
	return op{kind: opCompact, path: "/v1/datasets/" + datasetName + "/compact"}
}

// jf is a JSON number that decodes null (the server's NaN) as NaN.
type jf float64

func (f *jf) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jf(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	*f = jf(v)
	return err
}

// result is one answer as the wire carries it.
type result struct {
	Count      uint64 `json:"count"`
	Values     []jf   `json:"values"`
	Level      int    `json:"level"`
	ErrorBound jf     `json:"error_bound"`
}

// response is the part of the /v1/query, /v1/join and rows bodies this
// benchmark reads.
type response struct {
	Result    *result  `json:"result"`
	Results   []result `json:"results"`
	ElapsedUS int64    `json:"elapsed_us"`
	// Rows is the rows endpoint's acknowledged row count.
	Rows int `json:"rows"`
}

// serve sends one request through the handler in process and times
// ServeHTTP alone: request construction and response decoding stay
// outside the sample.
func serve(h http.Handler, o *op) (response, time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	dt := time.Since(t0)
	var resp response
	if rec.Code != http.StatusOK {
		return resp, dt, fmt.Errorf("%s: status %d: %s", o.path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return resp, dt, fmt.Errorf("%s: decoding response: %v", o.path, err)
	}
	return resp, dt, nil
}

// sameBits reports whether two answers agree exactly on COUNT, MIN and
// MAX (NaN equal to NaN) and on SUM up to floating-point reassociation.
func sameBits(a, b result) bool {
	if a.Count != b.Count || len(a.Values) != len(b.Values) {
		return false
	}
	eq := func(x, y jf) bool {
		return math.Float64bits(float64(x)) == math.Float64bits(float64(y)) || (math.IsNaN(float64(x)) && math.IsNaN(float64(y)))
	}
	if !eq(a.Values[minIdx], b.Values[minIdx]) || !eq(a.Values[maxIdx], b.Values[maxIdx]) {
		return false
	}
	s, t := float64(a.Values[sumIdx]), float64(b.Values[sumIdx])
	return math.Abs(s-t) <= 1e-9*math.Max(1, math.Abs(s))
}
