package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geoblocks/internal/cluster"
)

func TestJoinEndpoint(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	t.Run("polygons", func(t *testing.T) {
		body := `{"dataset":"taxi","polygons":[
			[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85],[-74.05,40.85]],
			[[-74.00,40.70],[-73.95,40.70],[-73.95,40.75],[-74.00,40.75]],
			[[-80,40],[-79,40],[-79,41],[-80,41]]
		],"aggs":[{"func":"count"},{"func":"sum","col":"fare_amount"}]}`
		resp, data := postJSON(t, ts, "/v1/join", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var jr joinResponse
		if err := json.Unmarshal(data, &jr); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if len(jr.Results) != 3 {
			t.Fatalf("want 3 results, got %s", data)
		}
		if jr.Results[0].Count == 0 || jr.Results[1].Count == 0 {
			t.Fatalf("NYC polygons found nothing: %s", data)
		}
		if jr.Results[2].Count != 0 {
			t.Errorf("out-of-city polygon counted %d rows", jr.Results[2].Count)
		}
		if jr.Stats.Polygons != 3 {
			t.Errorf("stats report %d polygons, want 3: %s", jr.Stats.Polygons, data)
		}
		if jr.Stats.InteriorPairs+jr.Stats.BoundaryPairs == 0 && jr.Stats.Fallbacks == 0 {
			t.Errorf("join classified nothing: %s", data)
		}
		// The join must agree with the batch query form element by
		// element (the body is valid for both endpoints).
		qResp, qData := postJSON(t, ts, "/v1/query", body)
		if qResp.StatusCode != http.StatusOK {
			t.Fatalf("batch query status %d: %s", qResp.StatusCode, qData)
		}
		var qr queryResponse
		if err := json.Unmarshal(qData, &qr); err != nil {
			t.Fatalf("unmarshal batch: %v", err)
		}
		for i := range qr.Results {
			if jr.Results[i].Count != qr.Results[i].Count {
				t.Errorf("result %d: join count %d, batch count %d", i, jr.Results[i].Count, qr.Results[i].Count)
			}
		}
	})

	t.Run("window", func(t *testing.T) {
		body := `{"dataset":"taxi","window":{"rect":[-74.05,40.60,-73.85,40.85],"nx":4,"ny":3},"aggs":[{"func":"count"}],"max_error":0.002}`
		resp, data := postJSON(t, ts, "/v1/join", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var jr joinResponse
		if err := json.Unmarshal(data, &jr); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if len(jr.Results) != 12 {
			t.Fatalf("4x3 window returned %d results: %s", len(jr.Results), data)
		}
		var total uint64
		for _, res := range jr.Results {
			total += res.Count
		}
		if total == 0 {
			t.Fatalf("window join found nothing: %s", data)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp, data := getJSON(t, ts, "/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		text := string(data)
		for _, want := range []string{
			`geoblocksd_requests_total{endpoint="join"}`,
			`geoblocks_join_polygons_total{dataset="taxi"}`,
			`geoblocks_join_interior_pairs_total{dataset="taxi"}`,
			`geoblocks_join_boundary_pairs_total{dataset="taxi"}`,
		} {
			if !strings.Contains(text, want) {
				t.Errorf("metrics missing %s", want)
			}
		}
		// The polygon and window joins above pushed 15 regions through,
		// and the /v1/query batch twin of the polygon join 3 more: the
		// batch form is answered by the join operator.
		if !strings.Contains(text, `geoblocks_join_polygons_total{dataset="taxi"} 18`) {
			t.Errorf("join polygon counter not cumulative: %s",
				text[strings.Index(text, "geoblocks_join_"):])
		}
	})
}

// TestQueryBatchMatchesJoin pins that the /v1/query "polygons" form is
// the join: for the same rings, aggregates and options its results equal
// the /v1/join results byte for byte (values, level and error_bound),
// on a single node and through the cluster coordinator.
func TestQueryBatchMatchesJoin(t *testing.T) {
	const rings = `[
		[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85],[-74.05,40.85]],
		[[-74.00,40.70],[-73.95,40.70],[-73.95,40.75],[-74.00,40.75]],
		[[-73.99,40.72],[-73.90,40.71],[-73.93,40.80]],
		[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85],[-74.05,40.85]],
		[[-80,40],[-79,40],[-79,41],[-80,41]]
	]`
	const aggs = `[{"func":"count"},{"func":"sum","col":"fare_amount"},{"func":"min","col":"fare_amount"},` +
		`{"func":"max","col":"trip_distance"},{"func":"avg","col":"fare_amount"}]`

	st := testStore(t)
	co, err := cluster.New(st, &cluster.Config{Epoch: 1, Nodes: []cluster.Node{{Name: "self", Addr: "127.0.0.1:1"}}}, "self")
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"single node", Config{}},
		{"coordinator", Config{Cluster: co, Coordinator: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(NewHandler(st, tc.cfg))
			defer ts.Close()
			for _, opt := range []string{``, `,"max_error":0.002`, `,"no_cache":true`} {
				body := `{"dataset":"taxi","polygons":` + rings + `,"aggs":` + aggs + opt + `}`
				var jr, qr struct {
					Results json.RawMessage `json:"results"`
				}
				for _, ep := range []struct {
					path string
					into any
				}{{"/v1/join", &jr}, {"/v1/query", &qr}} {
					resp, data := postJSON(t, ts, ep.path, body)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s%s: status %d: %s", ep.path, opt, resp.StatusCode, data)
					}
					if err := json.Unmarshal(data, ep.into); err != nil {
						t.Fatalf("%s%s: unmarshal: %v", ep.path, opt, err)
					}
				}
				if !bytes.Equal(qr.Results, jr.Results) {
					t.Fatalf("options %q: /v1/query results\n%s\ndiffer from /v1/join\n%s", opt, qr.Results, jr.Results)
				}
				var results []resultJSON
				if err := json.Unmarshal(qr.Results, &results); err != nil {
					t.Fatalf("decode results: %v", err)
				}
				if len(results) != 5 || results[0].Count == 0 || results[4].Count != 0 {
					t.Fatalf("options %q: implausible results %s", opt, qr.Results)
				}
			}
		})
	}
}

func TestJoinEndpointErrors(t *testing.T) {
	_, h := newServer(testStore(t), Config{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	cases := []struct {
		name, body string
		status     int
	}{
		{"missing dataset", `{"polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"nope","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}]}`, http.StatusNotFound},
		{"both forms", `{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1]]],"window":{"rect":[0,0,1,1],"nx":1,"ny":1},"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"neither form", `{"dataset":"taxi","aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"empty polygons", `{"dataset":"taxi","polygons":[],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"missing aggs", `{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1]]]}`, http.StatusBadRequest},
		{"bad agg", `{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"median","col":"fare_amount"}]}`, http.StatusBadRequest},
		{"unknown column", `{"dataset":"taxi","polygons":[[[-74.05,40.60],[-73.85,40.60],[-73.85,40.85]]],"aggs":[{"func":"sum","col":"nope"}]}`, http.StatusBadRequest},
		{"degenerate ring", `{"dataset":"taxi","polygons":[[[0,0],[1,0]]],"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"inverted window", `{"dataset":"taxi","window":{"rect":[1,1,0,0],"nx":1,"ny":1},"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"zero window grid", `{"dataset":"taxi","window":{"rect":[0,0,1,1],"nx":0,"ny":3},"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"oversized window grid", `{"dataset":"taxi","window":{"rect":[0,0,1,1],"nx":200,"ny":200},"aggs":[{"func":"count"}]}`, http.StatusBadRequest},
		{"negative max_error", `{"dataset":"taxi","polygons":[[[0,0],[1,0],[1,1]]],"aggs":[{"func":"count"}],"max_error":-2}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts, "/v1/join", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
		})
	}

	// An oversized explicit polygon list trips the cap too.
	var sb strings.Builder
	sb.WriteString(`{"dataset":"taxi","polygons":[`)
	for i := 0; i <= maxJoinPolygons; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `[[0,0],[1,0],[1,1]]`)
	}
	sb.WriteString(`],"aggs":[{"func":"count"}]}`)
	resp, data := postJSON(t, ts, "/v1/join", sb.String())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized join status %d: %s", resp.StatusCode, data)
	}
}
