// Command perfbench is geoblocksd's end-to-end and per-layer benchmark.
// It builds the serving stack in process (store + httpapi handler,
// configured as `geoblocksd -load taxi`), drives one closed-loop client
// through httpapi's ServeHTTP with the JSON bodies cmd/loadgen sends,
// checks every sampled answer against a brute-force oracle and the
// program's own alternative paths, and prints one JSON result line.
//
//	perfbench --workload explore|dashboard|live --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced, then replays the same rounds decomposed into the layers'
// public calls and reports the per-layer metrics and the tracing
// overhead. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"geoblocks/internal/dataset"
)

var setups = map[string]func(*env, *dataset.Raw) error{
	"explore":   setupExplore,
	"dashboard": setupDashboard,
	"live":      setupLive,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: explore, dashboard or live")
		seed    = flag.Int64("seed", 1, "input seed: rows, regions and streams derive from it")
		seconds = flag.Float64("seconds", 15, "measured window per phase, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch data and trace files")
	)
	flag.Parse()
	setup, ok := setups[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	code, err := run(*name, *seed, *seconds, *trace == 1, *outDir, setup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(name string, seed int64, seconds float64, traced bool, outDir string, setup func(*env, *dataset.Raw) error) (int, error) {
	e, raw, err := newEnv(name, seed, filepath.Join(outDir, "work"))
	if err != nil {
		return 0, err
	}
	defer e.close()
	if err := setup(e, raw); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	raw = nil
	// Warm-up rounds run untimed; the measured window starts after them.
	for r := 0; r < e.warm; r++ {
		ops := e.round(r)
		for i := range ops {
			if _, _, err := e.exec(&ops[i]); err != nil {
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	settle()
	window := time.Duration(seconds * float64(time.Second))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph := measure(e, e.warm, window, nil)
	runtime.ReadMemStats(&ms1)
	ph.runChecks()

	rep := &report{}
	rep.add("setup_s", median(e.setup), "s", len(e.setup))
	ph.endToEnd(rep)
	var tr *tracer
	if traced {
		settle()
		tr = newTracer(e)
		// The traced phase continues the round stream where the untraced
		// window stopped: replaying the same rounds would find them all in
		// the result cache.
		// Twice the window: the decomposition roughly doubles each
		// request's cost, and the tail percentiles need their samples.
		tph := measure(e, e.warm+ph.rounds, 2*window, tr)
		tph.runChecks()
		ph.failed += tph.failed
		ph.attempted += tph.attempted
		ph.problems = append(ph.problems, tph.problems...)
		rep.section("per-layer (traced phase)")
		tr.perLayer(rep, ph, tph, ms0, ms1)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return 0, err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	rep.section("checks made (a failure fails its operation)")
	kinds := make([]string, 0, len(e.checked))
	for k := range e.checked {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		rep.add("checks."+k, float64(e.checked[k]), "count", 0)
	}
	rep.print()
	for _, p := range ph.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", p)
	}
	keys := endToEndKeys
	if traced {
		keys = perLayerKeys
	}
	metrics, err := rep.json(keys)
	if err != nil {
		return 0, err
	}
	out := map[string]any{
		"correct":   ph.failed == 0,
		"attempted": ph.attempted,
		"failed":    ph.failed,
		"metrics":   metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(b))
	if ph.failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// endToEndKeys are the metrics BENCHMARK.json gates: every workload
// reports them and their run-to-run spread stays within a bound on a
// noisy box. The report also prints ops_per_s, the tail percentiles and
// the workload-specific metrics; README.md gives their measured spreads.
var endToEndKeys = []string{"setup_s", "query_p50_ms", "join_p50_ms", "rss_peak_mb"}

// perLayerKeys are the per-layer metrics every workload's traced run
// reports (BENCHMARK.json per_layer).
var perLayerKeys = []string{
	"httpapi.self_us_p50",
	"store.plan_us_p50", "store.route_us_p50", "store.merge_us_p50", "store.shards_per_query",
	"resultcache.hit_ratio", "resultcache.stale_misses", "resultcache.evictions", "resultcache.bytes_mb",
	"cover.us_p50", "cover.us_p99", "cover.cells_p50", "cover.interior_frac", "cover.bound_unmet",
	"core.select_us_p50", "core.select_us_p99", "core.delta_rows_mean",
	"aggtrie.probes", "aggtrie.full_hit_ratio",
	"join.plan_us_p50", "join.interior_frac", "join.fallbacks",
	"residency.faults", "residency.evictions",
	"runtime.alloc_kb_per_op", "runtime.gc_cycles",
	"trace.overhead_pct",
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind it (0 = a count or ratio)
}

type report struct {
	lines []any // metric or section title
	byKey map[string]metric
}

func (r *report) add(name string, v float64, unit string, n int) {
	if r.byKey == nil {
		r.byKey = map[string]metric{}
	}
	m := metric{name, v, unit, n}
	r.byKey[name] = m
	r.lines = append(r.lines, m)
}

func (r *report) section(title string) { r.lines = append(r.lines, title) }

// pct adds a latency percentile if the samples support it: at least 10
// samples beyond it, and only the median below 40 samples.
func (r *report) pct(name string, ns []int64, q float64, unit string, scale float64) {
	if v, ok := percentile(ns, q); ok {
		r.add(name, v/scale, unit, len(ns))
	}
}

func (r *report) print() {
	for _, l := range r.lines {
		switch l := l.(type) {
		case string:
			fmt.Printf("-- %s\n", l)
		case metric:
			n := ""
			if l.n > 0 {
				n = fmt.Sprintf("  (n=%d)", l.n)
			}
			fmt.Printf("%-26s %14s %-6s%s\n", l.name, strconv.FormatFloat(l.value, 'g', 6, 64), l.unit, n)
		}
	}
}

// json returns the named metrics. A metric the run could not measure is
// an error of the benchmark itself, reported rather than invented.
func (r *report) json(keys []string) (map[string]any, error) {
	out := make(map[string]any, len(keys))
	var missing []string
	for _, k := range keys {
		m, ok := r.byKey[k]
		if !ok {
			missing = append(missing, k)
			continue
		}
		out[k] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("too few samples for %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// percentile is the nearest-rank percentile of ns (sorted in place),
// reported only with at least 10 samples beyond it, and only for the
// median below 40 samples.
func percentile(ns []int64, q float64) (float64, bool) {
	n := len(ns)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || n-rank < 10 || (n < 40 && q != 0.5) {
		return 0, false
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return float64(ns[rank-1]), true
}

// rssBytes reads the process's resident set size.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}
