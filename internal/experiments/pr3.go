package experiments

// PR3 is the perf snapshot for the sharded serving tier (internal/store):
// on the clustered taxi workload it builds the same rows as one unsharded
// block and as spatially sharded datasets (shard levels 1 and 2 — 4 and
// up to 16 shards), then measures aggregate query throughput at
// 1..GOMAXPROCS client goroutines through the store router against the
// raw single-block kernel, over a mixed shard-local / cross-shard polygon
// workload, plus the per-query latency of the batch form (one Join over
// every workload polygon, covering included). The shard-level-0 rows
// quantify the router's own overhead: a one-shard store pays one
// covering split and no merge. cmd/geobench serialises the points to
// BENCH_PR3.json via -perf-json -sharded.

import (
	"fmt"
	"runtime"
	"time"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/cover"
	"geoblocks/internal/dataset"
	"geoblocks/internal/store"
	"geoblocks/internal/workload"
)

// PR3Point is one (shard level, goroutines) measurement of the snapshot.
type PR3Point struct {
	ShardLevel int `json:"shard_level"`
	Shards     int `json:"shards"`
	Goroutines int `json:"goroutines"`
	// QPSBlock is the raw single-block SelectCovering throughput over the
	// same coverings — the no-router baseline; QPSStore goes through the
	// store's covering split, fan-out and partial merge.
	QPSBlock float64 `json:"qps_block"`
	QPSStore float64 `json:"qps_store"`
	// StoreVsBlock is QPSStore/QPSBlock at this goroutine count.
	StoreVsBlock float64 `json:"store_vs_block"`
	// ScalingVs1G is QPSStore relative to the 1-goroutine store run.
	ScalingVs1G float64 `json:"scaling_vs_1g"`
	// BatchPerQueryNS is the per-query latency of answering the whole
	// workload's polygons through one Join call. Unlike the throughput
	// columns it includes the covering; BENCH_PR3.json predates that and
	// measured pre-computed coverings.
	BatchPerQueryNS int64 `json:"batch_per_query_ns"`
}

// pr3Level is the block grid level of the sweep: the mid-range serving
// level between the pr1/pr2 sweep points.
const pr3Level = 14

// pr3ShardLevels are the shard prefix levels compared; 0 is the unsharded
// (single-block store) reference.
var pr3ShardLevels = []int{0, 1, 2}

// PR3Perf runs the snapshot and returns both the rendered table and the
// raw points for JSON serialisation.
func PR3Perf(cfg Config) ([]*Table, []PR3Point) {
	raw := dataset.Generate(dataset.NYCTaxi(), cfg.TaxiRows, cfg.Seed)
	base, _, err := raw.Extract(-1)
	if err != nil {
		panic(err)
	}
	blk, err := core.Build(base, core.BuildOptions{Level: pr3Level})
	if err != nil {
		panic(err)
	}
	clean := raw.CleanRule()

	// Mixed serving workload: shard-local polygons (single-shard routing)
	// plus cross-shard polygons (fan-out and merge on every query). The
	// coverings are computed once and shared by every variant.
	bound := raw.Spec.Bound
	polys := append(workload.ShardLocal(bound, 2, 64, cfg.Seed+10),
		workload.CrossShard(bound, 1, 32, cfg.Seed+11)...)
	c := cover.MustCoverer(raw.Domain(), cover.DefaultOptions(pr3Level))
	covs := make([][]cellid.ID, len(polys))
	for i, p := range polys {
		covs[i] = c.Cover(p).Cells
	}
	specs := []core.AggSpec{{Col: 0, Func: core.AggSum}}
	reqs := []geoblocks.AggRequest{geoblocks.Sum("fare_amount")}

	gs := pr2Goroutines()
	const measureFor = 60 * time.Millisecond

	tbl := &Table{
		ID:    "pr3",
		Title: "Sharded store: queries/sec vs goroutines, router vs raw block (mixed local/cross-shard taxi workload)",
		Note: fmt.Sprintf("GOMAXPROCS=%d; block level %d; store = covering split + fan-out + partial merge, block = raw SelectCovering",
			runtime.GOMAXPROCS(0), pr3Level),
		Header: []string{"shard lvl", "shards", "g", "qps block", "qps store", "store/block", "scale vs 1g", "batch us/q"},
	}
	var points []PR3Point
	for _, shardLevel := range pr3ShardLevels {
		ds, err := store.Build("taxi", bound, raw.Spec.Schema, raw.Points, raw.Cols,
			store.Options{Level: pr3Level, ShardLevel: shardLevel, Clean: &clean})
		if err != nil {
			panic(err)
		}

		batchNS := measure(func() {
			if _, _, err := ds.Join(polys, geoblocks.QueryOptions{}, reqs...); err != nil {
				panic(err)
			}
		})
		batchPerQuery := batchNS.Nanoseconds() / int64(len(polys))

		var qps1 float64
		for _, g := range gs {
			qpsBlock := throughput(g, measureFor, func(i int) {
				if _, err := blk.SelectCovering(covs[i%len(covs)], specs); err != nil {
					panic(err)
				}
			})
			qpsStore := throughput(g, measureFor, func(i int) {
				if _, err := ds.QueryCovering(covs[i%len(covs)], reqs...); err != nil {
					panic(err)
				}
			})
			if g == gs[0] {
				qps1 = qpsStore
			}
			p := PR3Point{
				ShardLevel:      shardLevel,
				Shards:          ds.NumShards(),
				Goroutines:      g,
				QPSBlock:        qpsBlock,
				QPSStore:        qpsStore,
				StoreVsBlock:    qpsStore / qpsBlock,
				ScalingVs1G:     qpsStore / qps1,
				BatchPerQueryNS: batchPerQuery,
			}
			points = append(points, p)
			tbl.AddRow(
				fmt.Sprintf("%d", shardLevel),
				fmt.Sprintf("%d", p.Shards),
				fmt.Sprintf("%d", g),
				fmt.Sprintf("%.0f", qpsBlock),
				fmt.Sprintf("%.0f", qpsStore),
				fmt.Sprintf("%.2fx", p.StoreVsBlock),
				fmt.Sprintf("%.2fx", p.ScalingVs1G),
				fmt.Sprintf("%.0f", float64(batchPerQuery)/1000),
			)
		}
	}
	return []*Table{tbl}, points
}

// PR3 is the Runner entry point.
func PR3(cfg Config) []*Table {
	tables, _ := PR3Perf(cfg)
	return tables
}
