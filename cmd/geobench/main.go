// Command geobench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	geobench [-quick] [-taxi-rows N] [-tweet-rows N] [-osm-rows N]
//	         [-seed N] [-o FILE] [-perf-json FILE] [-parallel] [experiment ...]
//
// With no experiment arguments every experiment runs in paper order. Each
// experiment prints an aligned text table with the same rows/series the
// paper reports; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// -perf-json runs the pr1 perf snapshot (prefix-sum SELECT fast path vs
// the preserved scan ablation across block levels) and writes the raw
// measurements to FILE; the committed BENCH_PR1.json is produced this way.
// With -parallel it instead runs the pr2 concurrent-serving bench mode —
// queries/sec at 1..GOMAXPROCS goroutines with and without the query
// cache — the sweep behind the committed BENCH_PR2.json (whose parallel
// SELECT columns record a kernel since removed).
// With -sharded it runs the pr3 sharded-store bench mode — store-routed
// queries/sec at shard levels 0..2 against the raw single-block kernel —
// producing the committed BENCH_PR3.json. With -snapshot it runs the pr4
// durability bench mode — snapshot save/restore wall time and MB/s
// against rebuild-from-rows at shard levels 0..2 — producing the
// committed BENCH_PR4.json. With -maxerror it runs the pr5 query-planner
// bench mode — latency/qps and cells visited across a MaxError sweep over
// the block pyramid, with every approximate answer checked against its
// guaranteed error bound — producing the committed BENCH_PR5.json. With
// -resultcache it runs the pr6 result-cache bench mode — a Zipfian
// hot-region stream served cache-off, cache-cold and cache-warm, with
// every cached answer checked against the uncached twin — producing the
// committed BENCH_PR6.json. With -mmapserve it runs the pr7 mapped-serving
// bench mode — format-v3 mmap restore vs eager v2 restore measured in
// fresh child processes (startup-to-first-answer, VmRSS, cold/warm
// latency, budget-forced eviction), with every answer asserted
// bit-identical in-run — producing the committed BENCH_PR7.json. With
// -ingest it runs the pr8 streaming-ingest bench mode — the same Zipfian
// read stream measured read-only and again while background ingesters
// append batches and the compactor folds them, with the final row count
// checked against the acknowledged rows — producing the committed
// BENCH_PR8.json. With -join it runs the pr10 join bench mode — the
// shared-grid join against N sequential queries (bit-identity and the
// 5x speedup floor asserted in-run) plus a closed-loop HTTP percentile
// baseline at 8 workers — producing the committed BENCH_PR10.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"geoblocks/internal/experiments"
)

func main() {
	// The pr7 bench re-executes this binary as a serving child process so
	// its RSS and startup numbers are unpolluted by the parent's build
	// heap; the env var routes the child before any flag parsing.
	if os.Getenv("GEOBENCH_PR7_CHILD") != "" {
		experiments.PR7ChildMain()
		return
	}
	var (
		quick     = flag.Bool("quick", false, "run at reduced dataset sizes")
		taxiRows  = flag.Int("taxi-rows", 0, "override taxi dataset rows")
		tweetRows = flag.Int("tweet-rows", 0, "override tweets dataset rows")
		osmRows   = flag.Int("osm-rows", 0, "override OSM dataset rows")
		seed      = flag.Int64("seed", 1, "generation seed")
		out       = flag.String("o", "", "also write results to this file")
		list      = flag.Bool("list", false, "list experiments and exit")
		perfJSON  = flag.String("perf-json", "", "run the pr1 perf snapshot and write JSON to this file")
		parallel  = flag.Bool("parallel", false, "with -perf-json: run the pr2 parallel bench mode (queries/sec at 1..GOMAXPROCS goroutines) instead of pr1")
		sharded   = flag.Bool("sharded", false, "with -perf-json: run the pr3 sharded-store bench mode (store routing vs raw block) instead of pr1")
		snapMode  = flag.Bool("snapshot", false, "with -perf-json: run the pr4 durability bench mode (snapshot save/restore vs rebuild) instead of pr1")
		maxErr    = flag.Bool("maxerror", false, "with -perf-json: run the pr5 query-planner bench mode (latency/qps and covering work vs error bound) instead of pr1")
		resCache  = flag.Bool("resultcache", false, "with -perf-json: run the pr6 result-cache bench mode (Zipfian hot-region stream, cached vs uncached) instead of pr1")
		mmapServe = flag.Bool("mmapserve", false, "with -perf-json: run the pr7 mapped-serving bench mode (v3 mmap restore vs eager v2, child-process RSS) instead of pr1")
		ingest    = flag.Bool("ingest", false, "with -perf-json: run the pr8 streaming-ingest bench mode (read p50/p99 while ingesting + compacting vs read-only) instead of pr1")
		joinMode  = flag.Bool("join", false, "with -perf-json: run the pr10 join bench mode (shared-grid join vs N sequential queries + closed-loop HTTP percentiles) instead of pr1")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: geobench [flags] [experiment ...]\n\nexperiments:\n")
		for _, r := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", r.ID, r.Desc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Desc)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *taxiRows > 0 {
		cfg.TaxiRows = *taxiRows
	}
	if *tweetRows > 0 {
		cfg.TweetRows = *tweetRows
	}
	if *osmRows > 0 {
		cfg.OSMRows = *osmRows
	}
	cfg.Seed = *seed

	if *perfJSON != "" {
		write := writePerfSnapshot
		modes := 0
		for _, m := range []bool{*parallel, *sharded, *snapMode, *maxErr, *resCache, *mmapServe, *ingest, *joinMode} {
			if m {
				modes++
			}
		}
		switch {
		case modes > 1:
			fmt.Fprintf(os.Stderr, "geobench: -parallel, -sharded, -snapshot, -maxerror, -resultcache, -mmapserve, -ingest and -join are mutually exclusive\n")
			os.Exit(2)
		case *parallel:
			write = writeParallelSnapshot
		case *sharded:
			write = writeShardedSnapshot
		case *snapMode:
			write = writeDurabilitySnapshot
		case *maxErr:
			write = writePlannerSnapshot
		case *resCache:
			write = writeResultCacheSnapshot
		case *mmapServe:
			write = writeMmapServeSnapshot
		case *ingest:
			write = writeIngestSnapshot
		case *joinMode:
			write = writeJoinSnapshot
		}
		if err := write(cfg, *perfJSON); err != nil {
			fmt.Fprintf(os.Stderr, "geobench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var runners []experiments.Runner
	if flag.NArg() == 0 {
		runners = experiments.All()
	} else {
		for _, id := range flag.Args() {
			r, ok := experiments.Find(strings.ToLower(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "geobench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geobench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "geobench: taxi=%d tweets=%d osm=%d seed=%d\n\n",
		cfg.TaxiRows, cfg.TweetRows, cfg.OSMRows, cfg.Seed)
	total := time.Now()
	for _, r := range runners {
		start := time.Now()
		tables := r.Run(cfg)
		for _, t := range tables {
			t.Render(w)
		}
		fmt.Fprintf(w, "[%s finished in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "geobench: all done in %v\n", time.Since(total).Round(time.Millisecond))
}

// perfSnapshot is the BENCH_PR1.json document: the raw pr1 measurements
// plus enough context to interpret them across machines.
type perfSnapshot struct {
	Experiment string                  `json:"experiment"`
	GoVersion  string                  `json:"go_version"`
	GOARCH     string                  `json:"goarch"`
	TaxiRows   int                     `json:"taxi_rows"`
	Seed       int64                   `json:"seed"`
	Points     []experiments.PerfPoint `json:"points"`
}

// parallelSnapshot is the BENCH_PR2.json document: the raw pr2
// measurements plus the machine context needed to read the scaling
// columns (GOMAXPROCS caps the attainable speedup).
type parallelSnapshot struct {
	Experiment string                 `json:"experiment"`
	GoVersion  string                 `json:"go_version"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	TaxiRows   int                    `json:"taxi_rows"`
	Seed       int64                  `json:"seed"`
	Points     []experiments.PR2Point `json:"points"`
}

// shardedSnapshot is the BENCH_PR3.json document: the raw pr3
// measurements plus the machine context needed to read the scaling
// columns.
type shardedSnapshot struct {
	Experiment string                 `json:"experiment"`
	GoVersion  string                 `json:"go_version"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	TaxiRows   int                    `json:"taxi_rows"`
	Seed       int64                  `json:"seed"`
	Points     []experiments.PR3Point `json:"points"`
}

// durabilitySnapshot is the BENCH_PR4.json document: the raw pr4
// measurements plus the machine context needed to read the throughput
// columns (disk and core counts dominate them).
type durabilitySnapshot struct {
	Experiment string                 `json:"experiment"`
	GoVersion  string                 `json:"go_version"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	TaxiRows   int                    `json:"taxi_rows"`
	Seed       int64                  `json:"seed"`
	Points     []experiments.PR4Point `json:"points"`
}

// plannerSnapshot is the BENCH_PR5.json document: the raw pr5
// measurements plus the machine context needed to read the latency and
// throughput columns.
type plannerSnapshot struct {
	Experiment string                 `json:"experiment"`
	GoVersion  string                 `json:"go_version"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	TaxiRows   int                    `json:"taxi_rows"`
	Seed       int64                  `json:"seed"`
	Points     []experiments.PR5Point `json:"points"`
}

// resultCacheSnapshot is the BENCH_PR6.json document: the raw pr6
// measurements plus the machine context needed to read the throughput
// and speedup columns.
type resultCacheSnapshot struct {
	Experiment string                 `json:"experiment"`
	GoVersion  string                 `json:"go_version"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	TaxiRows   int                    `json:"taxi_rows"`
	Seed       int64                  `json:"seed"`
	Points     []experiments.PR6Point `json:"points"`
}

// mmapServeSnapshot is the BENCH_PR7.json document: the raw pr7
// measurements plus the machine context needed to read the startup and
// RSS columns (disk and memory pressure dominate them).
type mmapServeSnapshot struct {
	Experiment string                 `json:"experiment"`
	GoVersion  string                 `json:"go_version"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	TaxiRows   int                    `json:"taxi_rows"`
	Seed       int64                  `json:"seed"`
	Points     []experiments.PR7Point `json:"points"`
}

// ingestSnapshot is the BENCH_PR8.json document: the raw pr8
// measurements plus the machine context needed to read the latency and
// throughput columns (core count governs how much the write path steals
// from the readers).
type ingestSnapshot struct {
	Experiment string                 `json:"experiment"`
	GoVersion  string                 `json:"go_version"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	TaxiRows   int                    `json:"taxi_rows"`
	Seed       int64                  `json:"seed"`
	Points     []experiments.PR8Point `json:"points"`
}

// joinSnapshot is the BENCH_PR10.json document: the join-vs-sequential
// measurements, the closed-loop HTTP percentile baseline, and the
// machine context needed to read both (concurrency columns saturate at
// GOMAXPROCS).
type joinSnapshot struct {
	Experiment string                      `json:"experiment"`
	GoVersion  string                      `json:"go_version"`
	GOARCH     string                      `json:"goarch"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	NumCPU     int                         `json:"num_cpu"`
	TaxiRows   int                         `json:"taxi_rows"`
	Seed       int64                       `json:"seed"`
	JoinPoints []experiments.PR10JoinPoint `json:"join_points"`
	LoadPoints []experiments.PR10LoadPoint `json:"load_points"`
}

// writeJoinSnapshot runs the pr10 bench, prints its tables and writes
// the raw points as indented JSON.
func writeJoinSnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, joinPoints, loadPoints := experiments.PR10Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := joinSnapshot{
		Experiment: "pr10",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		JoinPoints: joinPoints,
		LoadPoints: loadPoints,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("join snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeIngestSnapshot runs the pr8 bench, prints its table and writes
// the raw points as indented JSON.
func writeIngestSnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, points := experiments.PR8Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := ingestSnapshot{
		Experiment: "pr8",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		Points:     points,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("streaming-ingest snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeMmapServeSnapshot runs the pr7 bench, prints its table and writes
// the raw points as indented JSON.
func writeMmapServeSnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, points := experiments.PR7Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := mmapServeSnapshot{
		Experiment: "pr7",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		Points:     points,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("mmap-serving snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeResultCacheSnapshot runs the pr6 bench, prints its table and
// writes the raw points as indented JSON.
func writeResultCacheSnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, points := experiments.PR6Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := resultCacheSnapshot{
		Experiment: "pr6",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		Points:     points,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result-cache snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// writePlannerSnapshot runs the pr5 sweep, prints its table and writes
// the raw points as indented JSON.
func writePlannerSnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, points := experiments.PR5Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := plannerSnapshot{
		Experiment: "pr5",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		Points:     points,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("planner snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeDurabilitySnapshot runs the pr4 sweep, prints its table and
// writes the raw points as indented JSON.
func writeDurabilitySnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, points := experiments.PR4Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := durabilitySnapshot{
		Experiment: "pr4",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		Points:     points,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("durability snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeShardedSnapshot runs the pr3 sweep, prints its table and writes
// the raw points as indented JSON.
func writeShardedSnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, points := experiments.PR3Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := shardedSnapshot{
		Experiment: "pr3",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		Points:     points,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("sharded snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// writeParallelSnapshot runs the pr2 sweep, prints its table and writes
// the raw points as indented JSON.
func writeParallelSnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, points := experiments.PR2Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := parallelSnapshot{
		Experiment: "pr2",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		Points:     points,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("parallel snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}

// writePerfSnapshot runs the pr1 sweep, prints its table and writes the
// raw points as indented JSON.
func writePerfSnapshot(cfg experiments.Config, path string) error {
	start := time.Now()
	tables, points := experiments.PR1Perf(cfg)
	for _, t := range tables {
		t.Render(os.Stdout)
	}
	snap := perfSnapshot{
		Experiment: "pr1",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		TaxiRows:   cfg.TaxiRows,
		Seed:       cfg.Seed,
		Points:     points,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("perf snapshot written to %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return nil
}
