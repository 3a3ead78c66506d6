package experiments

// PR2 is the perf snapshot for the concurrent serving core: on the same
// level-sweep workload as PR1 it measures aggregate query throughput
// (queries/sec) with 1..GOMAXPROCS worker goroutines hammering one block —
// plain and through the lock-light BlockQC cache. The serial
// SelectCovering latency is re-measured per level so the snapshot can be
// diffed against BENCH_PR1.json to confirm the single-threaded path is
// unchanged. cmd/geobench serialises the points via -perf-json -parallel.
// The committed BENCH_PR2.json predates the removal of the intra-block
// parallel kernel and still carries its parallel_select_ns and
// speedup_parallel_vs_serial columns as a historical record.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"geoblocks/internal/aggtrie"
	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/cover"
	"geoblocks/internal/dataset"
	"geoblocks/internal/workload"
)

// PR2Point is one (level, goroutines) measurement of the snapshot.
type PR2Point struct {
	Level      int `json:"level"`
	Goroutines int `json:"goroutines"`
	// QPSPlain is queries/sec over the mixed covering workload without a
	// cache; QPSCached is the same workload through a warm CachedBlock
	// (sharded statistics recording on every query).
	QPSPlain  float64 `json:"qps_plain"`
	QPSCached float64 `json:"qps_cached"`
	// SerialSelectNS is the single-threaded big-covering SELECT latency
	// (same measurement as PR1's select_prefix_ns).
	SerialSelectNS int64   `json:"serial_select_ns"`
	ScalingPlain   float64 `json:"scaling_plain_vs_1g"`
}

// pr2Goroutines returns the goroutine counts of the sweep: powers of two
// from 1 through GOMAXPROCS, always including GOMAXPROCS, and at least
// {1,2,4} so single-core snapshots still exercise (and race-test)
// oversubscribed serving.
func pr2Goroutines() []int {
	maxProcs := runtime.GOMAXPROCS(0)
	var gs []int
	for g := 1; g < maxProcs; g *= 2 {
		gs = append(gs, g)
	}
	gs = append(gs, maxProcs)
	for len(gs) < 3 {
		gs = append(gs, gs[len(gs)-1]*2)
	}
	return gs
}

// throughput runs query(i) from g goroutines for roughly dur and returns
// completed queries per second.
func throughput(g int, dur time.Duration, query func(i int)) float64 {
	var ops atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i += g {
				query(i)
				ops.Add(1)
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	return float64(ops.Load()) / elapsed.Seconds()
}

// pr2Levels matches the pr1 level sweep so the serial latencies line up
// point for point.
var pr2Levels = pr1Levels

// PR2Perf runs the snapshot and returns both the rendered table and the
// raw points for JSON serialisation.
func PR2Perf(cfg Config) ([]*Table, []PR2Point) {
	raw := dataset.Generate(dataset.NYCTaxi(), cfg.TaxiRows, cfg.Seed)
	base, _, err := raw.Extract(-1)
	if err != nil {
		panic(err)
	}
	specs := []core.AggSpec{{Col: 0, Func: core.AggSum}}
	gs := pr2Goroutines()
	const measureFor = 60 * time.Millisecond

	tbl := &Table{
		ID:    "pr2",
		Title: "Concurrent serving: queries/sec vs goroutines (clustered taxi workload)",
		Note: fmt.Sprintf("GOMAXPROCS=%d; qps over the neighborhood covering mix, serial latency over the 50%%-selectivity covering",
			runtime.GOMAXPROCS(0)),
		Header: []string{"level", "g", "qps plain", "qps cached", "serial us", "scale vs 1g"},
	}
	var points []PR2Point
	for _, level := range pr2Levels {
		blk, err := core.Build(base, core.BuildOptions{Level: level})
		if err != nil {
			panic(err)
		}
		c := cover.MustCoverer(raw.Domain(), cover.DefaultOptions(level))

		// Mixed workload: the neighborhood polygons drive throughput; the
		// 50%-selectivity rectangle drives the serial latency (same
		// covering as PR1).
		polys := workload.Neighborhoods(raw.Spec.Bound, 7)
		covs := make([][]cellid.ID, len(polys))
		for i, p := range polys {
			covs[i] = c.Cover(p).Cells
		}
		bigCov := c.CoverRect(workload.SelectivityRect(base.Table, raw.Domain(), 0.5)).Cells

		// Warm cache shared by all cached-throughput runs at this level.
		qc, err := aggtrie.NewWithThreshold(blk, 0.10)
		if err != nil {
			panic(err)
		}
		for _, cov := range covs {
			if _, err := qc.Select(cov, specs); err != nil {
				panic(err)
			}
		}
		qc.Refresh()

		var sink core.Result
		serialNS := measure(func() { sink, _ = blk.SelectCovering(bigCov, specs) })
		_ = sink

		var qps1 float64
		for _, g := range gs {
			qpsPlain := throughput(g, measureFor, func(i int) {
				if _, err := blk.SelectCovering(covs[i%len(covs)], specs); err != nil {
					panic(err)
				}
			})
			qpsCached := throughput(g, measureFor, func(i int) {
				if _, err := qc.Select(covs[i%len(covs)], specs); err != nil {
					panic(err)
				}
			})
			if g == gs[0] {
				qps1 = qpsPlain
			}

			p := PR2Point{
				Level:          level,
				Goroutines:     g,
				QPSPlain:       qpsPlain,
				QPSCached:      qpsCached,
				SerialSelectNS: serialNS.Nanoseconds(),
				ScalingPlain:   qpsPlain / qps1,
			}
			points = append(points, p)
			tbl.AddRow(
				fmt.Sprintf("%d", level),
				fmt.Sprintf("%d", g),
				fmt.Sprintf("%.0f", qpsPlain),
				fmt.Sprintf("%.0f", qpsCached),
				us(serialNS),
				fmt.Sprintf("%.2fx", p.ScalingPlain),
			)
		}
	}
	return []*Table{tbl}, points
}

// PR2 is the Runner entry point.
func PR2(cfg Config) []*Table {
	tables, _ := PR2Perf(cfg)
	return tables
}
