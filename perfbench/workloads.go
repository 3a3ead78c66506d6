package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"geoblocks"
	"geoblocks/internal/core"
	"geoblocks/internal/dataset"
	"geoblocks/internal/geom"
	"geoblocks/internal/httpapi"
	"geoblocks/internal/resultcache"
	"geoblocks/internal/store"
	"geoblocks/internal/workload"
)

const (
	datasetName = "taxi"
	// numRows synthetic taxi rows per workload (before the clean rule
	// drops the ~1.5% dirty ones).
	numRows = 1_000_000
	// setupRepeats is how often set-up runs per process; setup_s is the
	// median.
	setupRepeats = 3
)

// Workload shape. README.md explains each choice.
const (
	// explore: a round is exploreJoins steps; each step sends new
	// polygons and rects (half exact, half error-bounded) and one join
	// over a new tract tessellation. One join per round is exact, the
	// rest error-bounded (README: an even split would put the join median
	// between two modes an order of magnitude apart).
	explorePolys       = 16
	exploreRects       = 8
	exploreJoins       = 4
	exploreJoinMinSide = 10 // tract grid is nx x ny, each in [10, 14]
	exploreJoinMaxSide = 14

	// maxError admits pyramid level 11 on the taxi domain (level 14 cell
	// diagonal ~5.2e-5, level 11 ~4.2e-4).
	maxError = 0.0005

	// dashboard: a Zipfian stream over a fixed pool plus heatmap joins.
	dashPool        = 20_000
	dashZipfS       = 1.3
	dashQueries     = 31 // polygon queries per round, then one window join
	dashWindows     = 8
	dashWindowTiles = 8 // nx = ny
	dashWarmRounds  = 60
	// dashBudgetFrac is the resident budget as a share of the resident
	// cost with every shard faulted in.
	dashBudgetFrac = 0.995

	// live: per step one batch, one whole-bound count, hot reads and a
	// heatmap join; a round is liveCompactEvery steps and a compaction.
	liveBatch        = 500
	liveReads        = 6
	liveHotPolys     = 32
	liveWindows      = 4
	liveCompactEvery = 100
)

// env is one workload's serving stack plus what the checks need.
type env struct {
	name    string
	seed    int64
	rule    core.CleanRule
	bound   geom.Rect
	kept    []geom.Point // rows the clean rule admits, in generation order
	orc     *oracle
	st      *store.Store
	d       *store.Dataset
	h       http.Handler
	setup   []float64 // seconds per set-up repeat
	workDir string
	// round returns the operations of round r; the same (seed, r) always
	// gives the same operations.
	round func(r int) []op
	// warm rounds run untimed before measuring.
	warm int
	// checked counts the correctness checks made, by kind.
	checked map[string]int
}

// loadOptions mirrors `geoblocksd -load taxi` (level 14, shard level 2,
// -cache 0.10, 4 pyramid levels, 64 MiB result cache).
func loadOptions(rule *core.CleanRule) store.Options {
	return store.Options{
		Level:              httpapi.DefaultLevel,
		ShardLevel:         2,
		CacheThreshold:     0.10,
		CacheAutoRefresh:   2000,
		PyramidLevels:      4,
		ResultCacheBytes:   64 << 20,
		ResultCacheMinHits: resultcache.DefaultMinHits,
		Clean:              rule,
	}
}

// ingestConfig mirrors geoblocksd's defaults with the background
// compaction interval off, so runs repeat.
func ingestConfig(walDir string) store.IngestConfig {
	return store.IngestConfig{WALDir: walDir, DeltaMaxRows: 2_000_000}
}

func newEnv(name string, seed int64, workRoot string) (*env, *dataset.Raw, error) {
	raw := dataset.Generate(dataset.NYCTaxi(), numRows, seed)
	e := &env{name: name, seed: seed, rule: raw.CleanRule(), bound: raw.Spec.Bound, checked: map[string]int{}}
	for i, p := range raw.Points {
		if keepRow(e.rule, p, raw.Cols, i) {
			e.kept = append(e.kept, p)
		}
	}
	e.orc = newOracle(e.bound, e.kept)
	e.workDir = filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	return e, raw, nil
}

func (e *env) close() {
	if e.st != nil {
		e.st.Close()
	}
	os.RemoveAll(e.workDir)
}

// settle returns set-up garbage to the OS so the measured window starts
// from the same heap state in every run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// buildStack times store.Build from the generated rows setupRepeats
// times (the set-up a `geoblocksd -load` start pays) and serves the last.
func (e *env) buildStack(raw *dataset.Raw, walDir string) error {
	rule := e.rule
	for k := 0; k < setupRepeats; k++ {
		if e.st != nil {
			e.st.Close()
			e.st, e.d, e.h = nil, nil, nil
			if walDir != "" {
				os.RemoveAll(walDir)
				if err := os.MkdirAll(walDir, 0o755); err != nil {
					return err
				}
			}
			settle()
		}
		t0 := time.Now()
		st := store.New()
		st.EnableIngest(ingestConfig(walDir))
		d, err := store.Build(datasetName, raw.Spec.Bound, raw.Spec.Schema, raw.Points, raw.Cols, loadOptions(&rule))
		if err != nil {
			return err
		}
		if err := st.Add(d); err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(t0).Seconds())
		e.st, e.d = st, d
		e.h = httpapi.NewHandler(st, httpapi.Config{DataDir: walDir})
	}
	return nil
}

// hotPoint draws a location with the data's density: a random kept row.
func (e *env) hotPoint(rng *rand.Rand) geom.Point { return e.kept[rng.Intn(len(e.kept))] }

// starPolygon draws a new star-shaped polygon of nv vertices and radius
// r around c (one vertex per angular sector, radii jittered 60-100%).
func starPolygon(rng *rand.Rand, c geom.Point, r float64, nv int) *geom.Polygon {
	base := rng.Float64() * 2 * math.Pi
	ring := make([]geom.Point, nv)
	for k := range ring {
		a := base + 2*math.Pi*(float64(k)+0.8*rng.Float64())/float64(nv)
		rr := r * (0.6 + 0.4*rng.Float64())
		ring[k] = geom.Pt(c.X+rr*math.Cos(a), c.Y+rr*math.Sin(a))
	}
	p, err := geom.TryPolygon(ring)
	if err != nil {
		return geom.RegularPolygon(c, r, nv)
	}
	return p
}

func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

func roundRNG(seed int64, stream, r int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919_000 + int64(r)))
}

// setupExplore builds the in-memory dataset; every round's regions are new.
func setupExplore(e *env, raw *dataset.Raw) error {
	if err := e.buildStack(raw, ""); err != nil {
		return err
	}
	e.round = func(r int) []op {
		var ops []op
		for j := 0; j < exploreJoins; j++ {
			ops = append(ops, e.exploreStep(roundRNG(e.seed, 1, r*exploreJoins+j), j == 0)...)
		}
		return ops
	}
	return nil
}

// exploreStep is one analyst step: new polygons and rects, half exact
// and half error-bounded, and one join over a new tract tessellation,
// interleaved in a seed-determined order.
func (e *env) exploreStep(rng *rand.Rand, exactJoin bool) []op {
	var ops []op
	for i := 0; i < explorePolys; i++ {
		p := starPolygon(rng, e.hotPoint(rng), uniform(rng, 0.002, 0.015), 5+rng.Intn(8))
		ops = append(ops, queryPoly(p, float64(i%2)*maxError))
	}
	for i := 0; i < exploreRects; i++ {
		c := e.hotPoint(rng)
		hw, hh := uniform(rng, 0.002, 0.02), uniform(rng, 0.002, 0.02)
		ops = append(ops, queryRect(geom.RectFromCenter(c, hw, hh), float64(i%2)*maxError))
	}
	c := e.hotPoint(rng)
	side := uniform(rng, 0.03, 0.05)
	nx := exploreJoinMinSide + rng.Intn(exploreJoinMaxSide-exploreJoinMinSide+1)
	ny := exploreJoinMinSide + rng.Intn(exploreJoinMaxSide-exploreJoinMinSide+1)
	tracts := workload.Tessellation(geom.RectFromCenter(c, side/2, side/2), nx, ny, rng.Int63())
	me := maxError
	if exactJoin {
		me = 0
	}
	ops = append(ops, joinPolys(tracts, me))
	at := rng.Intn(len(ops))
	ops[at], ops[len(ops)-1] = ops[len(ops)-1], ops[at]
	return ops
}

// setupDashboard builds once, writes a format-v3 snapshot, then times
// restore-to-first-answer setupRepeats times the way `geoblocksd -mmap
// -data-dir` restores, under a resident budget just below the cost of
// every shard faulted in.
func setupDashboard(e *env, raw *dataset.Raw) error {
	rule := e.rule
	d, err := store.Build(datasetName, raw.Spec.Bound, raw.Spec.Schema, raw.Points, raw.Cols, loadOptions(&rule))
	if err != nil {
		return err
	}
	snapDir := filepath.Join(e.workDir, datasetName)
	if _, err := d.SnapshotV3(snapDir); err != nil {
		return err
	}
	d = nil
	settle()
	// A shard's resident cost is its mapped bytes plus the pyramid levels
	// derived when it faults in (~3.7x the mapped bytes on this data), so
	// the budget is set against the fully faulted cost: one whole-bound
	// COUNT with an unlimited budget faults every shard in.
	probe := store.New()
	probe.EnableMmap(0)
	pd, err := store.OpenMapped(snapDir, datasetName, probe.Residency())
	if err != nil {
		return err
	}
	if _, err := pd.QueryRectOpts(e.bound, geoblocks.QueryOptions{DisableCache: true}, geoblocks.Count()); err != nil {
		return err
	}
	full := probe.Residency().Stats().ResidentBytes
	pd, probe = nil, nil
	settle()
	budget := int64(float64(full) * dashBudgetFrac)

	// Pool rank k is a fixed polygon: 70% centred with the data's
	// density, 30% uniformly over the bound (the cold tail that faults
	// other shards in).
	pool := make(map[int]*geom.Polygon)
	polyAt := func(k int) *geom.Polygon {
		if p, ok := pool[k]; ok {
			return p
		}
		rng := roundRNG(e.seed, 2, k)
		c := e.hotPoint(rng)
		if rng.Float64() < 0.3 {
			c = geom.Pt(uniform(rng, e.bound.Min.X, e.bound.Max.X), uniform(rng, e.bound.Min.Y, e.bound.Max.Y))
		}
		p := starPolygon(rng, c, uniform(rng, 0.003, 0.015), 5+rng.Intn(5))
		pool[k] = p
		return p
	}
	windows := make([]geom.Rect, dashWindows)
	wrng := roundRNG(e.seed, 3, 0)
	for i := range windows {
		windows[i] = geom.RectFromCenter(e.hotPoint(wrng), 0.02, 0.02)
	}
	// One Zipf stream, consumed round by round in order.
	zrng := rand.New(rand.NewSource(e.seed))
	zipf := rand.NewZipf(zrng, dashZipfS, 1, dashPool-1)
	var drawn [][]int
	ranksFor := func(r int) []int {
		for len(drawn) <= r {
			ks := make([]int, dashQueries)
			for i := range ks {
				ks[i] = int(zipf.Uint64())
			}
			drawn = append(drawn, ks)
		}
		return drawn[r]
	}
	e.round = func(r int) []op {
		ops := make([]op, 0, dashQueries+1)
		for _, k := range ranksFor(r) {
			ops = append(ops, queryPoly(polyAt(k), 0))
		}
		return append(ops, joinWindow(windows[r%dashWindows], dashWindowTiles, dashWindowTiles, maxError))
	}
	e.warm = dashWarmRounds

	// Restore-to-first-answer ends with a whole-bound COUNT: it faults
	// every shard in under the budget, the same work for every seed.
	first := queryRect(e.bound, 0)
	for k := 0; k < setupRepeats; k++ {
		if e.st != nil {
			e.st.Close()
			e.st, e.d, e.h = nil, nil, nil
			settle()
		}
		t0 := time.Now()
		st := store.New()
		st.EnableIngest(ingestConfig(""))
		st.EnableMmap(budget)
		ds, err := store.OpenMapped(snapDir, datasetName, st.Residency())
		if err != nil {
			return err
		}
		if err := st.Add(ds); err != nil {
			return err
		}
		h := httpapi.NewHandler(st, httpapi.Config{DataDir: e.workDir, SnapshotV3: true})
		if _, _, err := serve(h, &first); err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(t0).Seconds())
		e.st, e.d, e.h = st, ds, h
	}
	return nil
}

// setupLive builds the dataset with the WAL on; rounds write, read and
// compact.
func setupLive(e *env, raw *dataset.Raw) error {
	walDir := filepath.Join(e.workDir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	if err := e.buildStack(raw, walDir); err != nil {
		return err
	}
	// The hot regions sit on the taxi spec's population centres, so
	// their cost does not hinge on where a seed happens to draw them:
	// liveHotPolys polygons jittered around the centres in turn, and
	// liveWindows heatmap windows on the densest centres.
	spec := dataset.NYCTaxi()
	hrng := roundRNG(e.seed, 4, 0)
	hot := make([]*geom.Polygon, liveHotPolys)
	for i := range hot {
		h := spec.Hotspots[i%len(spec.Hotspots)]
		c := geom.Pt(h.Center.X+0.3*h.SigmaX*hrng.NormFloat64(), h.Center.Y+0.3*h.SigmaY*hrng.NormFloat64())
		hot[i] = starPolygon(hrng, c, uniform(hrng, 0.003, 0.012), 5+hrng.Intn(5))
	}
	windows := make([]geom.Rect, liveWindows)
	for i := range windows {
		windows[i] = geom.RectFromCenter(spec.Hotspots[i].Center, 0.02, 0.02)
	}
	whole := queryRect(e.bound, 0)
	whole.wholeBound = true
	// A round is one compaction cycle: liveCompactEvery steps, then a
	// fold, so every round carries the same work.
	e.round = func(r int) []op {
		var ops []op
		for k := 0; k < liveCompactEvery; k++ {
			step := r*liveCompactEvery + k
			ops = append(ops, e.ingestBatch(spec, step), whole)
			for i := 0; i < liveReads; i++ {
				ops = append(ops, queryPoly(hot[(step*liveReads+i)%liveHotPolys], 0))
			}
			ops = append(ops, joinWindow(windows[step%liveWindows], dashWindowTiles, dashWindowTiles, maxError))
		}
		return append(ops, compactOp())
	}
	return nil
}

// ingestBatch is a fixed-size batch of new clean rows: a few spare rows
// are generated and the first liveBatch the clean rule admits are sent.
func (e *env) ingestBatch(spec dataset.Spec, step int) op {
	batch := dataset.Generate(spec, liveBatch+liveBatch/5, e.seed*7_919+int64(step)+1)
	pts := make([]geom.Point, 0, liveBatch)
	cols := make([][]float64, len(batch.Cols))
	for i, p := range batch.Points {
		if len(pts) == liveBatch {
			break
		}
		if keepRow(e.rule, p, batch.Cols, i) {
			pts = append(pts, p)
			for c := range cols {
				cols[c] = append(cols[c], batch.Cols[c][i])
			}
		}
	}
	return ingestRows(pts, cols)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
