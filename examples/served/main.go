// Served: run a geoblocksd serving daemon on a local port and hit it as
// an HTTP/JSON client — list datasets, send a batch polygon query, read
// the stats, shut down gracefully. This is the end-to-end path a
// dashboard backend takes against a deployed daemon (docs/OPERATIONS.md
// documents every endpoint).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"geoblocks/internal/httpapi"
	"geoblocks/internal/store"
)

func main() {
	// Build the daemon side: a store with one spatially sharded taxi
	// dataset (4^2 = up to 16 shards, per-shard query caches), served on
	// an ephemeral local port. In production this half is just
	// `geoblocksd -load taxi:200000`.
	st := store.New()
	ds, err := httpapi.BuildSynthetic("taxi", "taxi", 200_000, 1, store.Options{
		Level:            13,
		ShardLevel:       2,
		CacheThreshold:   0.10,
		CacheAutoRefresh: 25,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := st.Add(ds); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: httpapi.NewHandler(st, httpapi.Config{})}
	go func() {
		if err := srv.Serve(l); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	base := "http://" + l.Addr().String()
	fmt.Printf("geoblocksd serving on %s\n\n", base)

	// Client side: plain HTTP/JSON.
	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	post := func(path string, body any) []byte {
		data, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("POST %s: %s\n%s", path, resp.Status, out)
		}
		return out
	}

	// 1. Discover what is being served.
	var dl struct {
		Datasets []store.DatasetStats `json:"datasets"`
	}
	if err := json.Unmarshal(get("/v1/datasets"), &dl); err != nil {
		log.Fatal(err)
	}
	for _, d := range dl.Datasets {
		fmt.Printf("dataset %q: %d tuples in %d shards (block level %d, error bound %.4g)\n",
			d.Name, d.Tuples, d.NumShards, d.Level, d.ErrorBound)
	}

	// 2. A batch polygon query: three Manhattan-ish quadrilaterals in one
	// request. The daemon answers the batch with its join operator: one
	// shared covering pass, then one pass per shard the polygons touch.
	rings := [][][2]float64{
		{{-74.02, 40.70}, {-73.97, 40.70}, {-73.97, 40.77}, {-74.02, 40.77}},
		{{-73.99, 40.73}, {-73.94, 40.73}, {-73.94, 40.80}, {-73.99, 40.80}},
		{{-73.96, 40.76}, {-73.91, 40.76}, {-73.91, 40.83}, {-73.96, 40.83}},
	}
	aggs := []map[string]string{
		{"func": "count"},
		{"func": "sum", "col": "fare_amount"},
		{"func": "avg", "col": "tip_amount"},
	}
	batch := map[string]any{"dataset": "taxi", "polygons": rings, "aggs": aggs}
	var qr struct {
		Results []struct {
			Count  uint64     `json:"count"`
			Values []*float64 `json:"values"`
		} `json:"results"`
		ElapsedUS int64 `json:"elapsed_us"`
	}
	if err := json.Unmarshal(post("/v1/query", batch), &qr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch of %d polygons answered in %dµs:\n", len(qr.Results), qr.ElapsedUS)
	for i, res := range qr.Results {
		fv := func(j int) float64 {
			if res.Values[j] == nil {
				return 0
			}
			return *res.Values[j]
		}
		fmt.Printf("  polygon %d: %7d trips, fares $%.0f, avg tip $%.2f\n",
			i, res.Count, fv(1), fv(2))
	}

	// 3. Cache effectiveness after some repeated single-polygon traffic
	// (the per-shard query caches serve single queries; joins read the
	// aggregate arrays directly).
	for i := 0; i < 50; i++ {
		for _, ring := range rings {
			post("/v1/query", map[string]any{"dataset": "taxi", "polygon": ring, "aggs": aggs})
		}
	}
	var stats store.DatasetStats
	if err := json.Unmarshal(get("/v1/stats?dataset=taxi"), &stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter 1 batch + 150 single queries: %d queries served, cache probes=%d full hits=%d\n",
		stats.Queries, stats.Cache.Probes, stats.Cache.FullHits)

	// 4. Graceful shutdown: in-flight requests drain before exit.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("daemon shut down cleanly")
}
