package store

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"geoblocks"
	"geoblocks/internal/core"
	"geoblocks/internal/geom"
)

// cacheTestReqs includes a float-column SUM on top of the shared request
// set: the result cache must replay even the reassociation-sensitive
// aggregate bit-identically, because cached answers come from the same
// deterministic serial-merge path as recomputation.
var cacheTestReqs = append(append([]geoblocks.AggRequest{}, testReqs...), geoblocks.Sum("fval"))

// TestResultCacheEquivalence is the randomized equivalence suite for the
// result cache: a cache-on dataset must answer every query bit-identically
// to a cache-off twin — on cold misses, on hits, through the batch path,
// and immediately after an Update invalidation.
func TestResultCacheEquivalence(t *testing.T) {
	const rows = 15_000
	plain := buildDataset(t, "plain", rows, 9, Options{Level: 12, ShardLevel: 2, PyramidLevels: 3})
	cached := buildDataset(t, "cached", rows, 9, Options{
		Level: 12, ShardLevel: 2, PyramidLevels: 3,
		ResultCacheBytes: 4 << 20,
	})

	rng := rand.New(rand.NewSource(77))
	var polys []*geom.Polygon
	for i := 0; i < 30; i++ {
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		polys = append(polys, geoblocks.RegularPolygon(c, 2+rng.Float64()*25, 3+rng.Intn(8)))
	}
	rects := make([]geom.Rect, 10)
	for i := range rects {
		rects[i] = geom.RectFromCenter(
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
			1+rng.Float64()*30, 1+rng.Float64()*30)
	}

	check := func(label string, maxError float64) {
		opts := geoblocks.QueryOptions{MaxError: maxError}
		// Three passes: miss, hit, hit — every answer must match the
		// uncached twin exactly, and the planner metadata must survive
		// the cache round-trip.
		for pass := 0; pass < 3; pass++ {
			for i, poly := range polys {
				want, err := plain.QueryOpts(poly, opts, cacheTestReqs...)
				if err != nil {
					t.Fatalf("%s plain query %d: %v", label, i, err)
				}
				got, err := cached.QueryOpts(poly, opts, cacheTestReqs...)
				if err != nil {
					t.Fatalf("%s cached query %d: %v", label, i, err)
				}
				assertEquivalent(t, got, want, label)
				if got.Level != want.Level || got.ErrorBound != want.ErrorBound {
					t.Fatalf("%s pass %d: level/bound (%d, %v), want (%d, %v)",
						label, pass, got.Level, got.ErrorBound, want.Level, want.ErrorBound)
				}
			}
			for i, r := range rects {
				want, err := plain.QueryRectOpts(r, opts, cacheTestReqs...)
				if err != nil {
					t.Fatalf("%s plain rect %d: %v", label, i, err)
				}
				got, err := cached.QueryRectOpts(r, opts, cacheTestReqs...)
				if err != nil {
					t.Fatalf("%s cached rect %d: %v", label, i, err)
				}
				assertEquivalent(t, got, want, label)
			}
		}
		// Batch form (a join): hits come from the single-query entries —
		// they must agree with the twin.
		batch, _, err := cached.Join(polys, opts, cacheTestReqs...)
		if err != nil {
			t.Fatalf("%s batch: %v", label, err)
		}
		for i, poly := range polys {
			want, err := plain.QueryOpts(poly, opts, cacheTestReqs...)
			if err != nil {
				t.Fatalf("%s plain query %d: %v", label, i, err)
			}
			assertEquivalent(t, batch[i], want, label+" batch")
		}
	}

	check("exact", 0)
	check("approx", 3.0)

	st := cached.Stats()
	if st.ResultCache == nil {
		t.Fatal("stats missing result cache")
	}
	if st.ResultCache.Hits == 0 || st.ResultCache.Entries == 0 {
		t.Fatalf("result cache never hit: %+v", *st.ResultCache)
	}

	// Update both twins identically: the invalidation must be precise and
	// immediate — the very next queries (a mix of stale entries and
	// memoized coverings on the cached twin) must match the plain twin.
	// Update rows reuse coordinates of existing rows (new column values),
	// so every tuple lands in an already-aggregated cell.
	allPts, _ := testRows(rows, 9)
	var upPts []geom.Point
	for _, pt := range allPts {
		// Out-of-bound rows were dropped at build time, so their cells may
		// be unaggregated; reuse only rows that were kept.
		if testBound.ContainsPoint(pt) {
			upPts = append(upPts, pt)
			if len(upPts) == 200 {
				break
			}
		}
	}
	upCols := [][]float64{make([]float64, len(upPts)), make([]float64, len(upPts))}
	for i := range upPts {
		upCols[0][i] = float64(i % 50)
		upCols[1][i] = float64(i)*0.25 - 20
	}
	batch := &geoblocks.UpdateBatch{Points: upPts, Cols: upCols}
	genBefore := cached.Generation()
	if err := plain.Update(batch); err != nil {
		t.Fatalf("plain update: %v", err)
	}
	if err := cached.Update(batch); err != nil {
		t.Fatalf("cached update: %v", err)
	}
	if got := cached.Generation(); got != genBefore+1 {
		t.Fatalf("generation %d after update, want %d", got, genBefore+1)
	}
	check("post-update exact", 0)
	check("post-update approx", 3.0)

	after := cached.Stats()
	if after.ResultCache.StaleMisses == 0 {
		t.Fatal("update invalidation never detected a stale entry")
	}
}

// TestResultCacheServesHotFootprints pins the serving behaviour: repeats
// of one query hit, stats expose hotness, and summaries stay lean.
func TestResultCacheServesHotFootprints(t *testing.T) {
	d := buildDataset(t, "hot", 8_000, 21, Options{
		Level: 12, ShardLevel: 2,
		ResultCacheBytes:   1 << 20,
		ResultCacheMinHits: 2,
	})
	poly := geoblocks.RegularPolygon(geom.Pt(30, 60), 12, 6)

	var first geoblocks.Result
	for i := 0; i < 10; i++ {
		res, err := d.Query(poly, cacheTestReqs...)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if i == 0 {
			first = res
		} else {
			assertEquivalent(t, res, first, "repeat")
		}
	}

	st := d.Stats()
	rc := st.ResultCache
	if rc == nil {
		t.Fatal("no result cache stats")
	}
	// MinHits 2: misses at scores 1 and 2 (the second admits), hits after.
	if rc.Hits < 7 || rc.Misses < 2 || rc.Admissions != 1 {
		t.Fatalf("counters %+v", *rc)
	}
	if rc.MinHits != 2 || rc.MaxBytes != 1<<20 {
		t.Fatalf("config not reported: %+v", *rc)
	}
	if len(st.HotFootprints) != 1 || st.HotFootprints[0].Hits < 7 {
		t.Fatalf("hot footprints %+v", st.HotFootprints)
	}
	if sum := d.StatsSummary(); sum.HotFootprints != nil {
		t.Fatal("summary should omit footprints")
	}
	if sum := d.StatsSummary(); sum.ResultCache == nil {
		t.Fatal("summary should keep result cache counters")
	}

	// DisableCache bypasses the result cache without touching its state.
	before := d.ResultCacheStats()
	res, err := d.QueryOpts(poly, geoblocks.QueryOptions{DisableCache: true}, cacheTestReqs...)
	if err != nil {
		t.Fatalf("nocache query: %v", err)
	}
	assertEquivalent(t, res, first, "nocache")
	after := d.ResultCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("DisableCache touched the result cache: %+v", *after)
	}
}

// TestUpdateRebuildRequired pins the unbuilt-shard contract: rows landing
// in a shard that was never built reject the whole batch up front.
func TestUpdateRebuildRequired(t *testing.T) {
	// All rows in the lower-left quadrant: level-2 shards elsewhere are
	// never built.
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 2_000)
	cols := [][]float64{make([]float64, len(pts)), make([]float64, len(pts))}
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*40, rng.Float64()*40)
		cols[0][i] = 1
		cols[1][i] = rng.Float64()
	}
	d, err := Build("corner", testBound, geoblocks.NewSchema("ival", "fval"), pts, cols, Options{
		Level: 10, ShardLevel: 2, ResultCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	gen := d.Generation()
	err = d.Update(&geoblocks.UpdateBatch{
		Points: []geom.Point{geom.Pt(90, 90)},
		Cols:   [][]float64{{1}, {0.5}},
	})
	if !errors.Is(err, core.ErrRebuildRequired) {
		t.Fatalf("err = %v, want ErrRebuildRequired", err)
	}
	// Even the failed update bumps the generation (documented: no stale
	// answer may survive a partial mutation).
	if got := d.Generation(); got != gen+1 {
		t.Fatalf("generation %d after failed update, want %d", got, gen+1)
	}
}

// TestUpdateRaggedBatchRejected pins the upfront validation contract: a
// batch whose column slices are shorter than its point slice must fail
// with an error before any row is partitioned — previously it panicked
// with an index out of range while holding the dataset write lock.
func TestUpdateRaggedBatchRejected(t *testing.T) {
	d := buildDataset(t, "ragged", 3_000, 17, Options{
		Level: 10, ShardLevel: 1, ResultCacheBytes: 1 << 20,
	})
	gen := d.Generation()
	err := d.Update(&geoblocks.UpdateBatch{
		Points: []geom.Point{geom.Pt(30, 30), geom.Pt(40, 40)},
		Cols:   [][]float64{{1, 1}, {0.5}}, // second column one row short
	})
	if err == nil {
		t.Fatal("ragged batch accepted")
	}
	// Nothing was touched, so nothing is invalidated — and the dataset
	// still serves queries.
	if got := d.Generation(); got != gen {
		t.Fatalf("generation %d after rejected batch, want %d", got, gen)
	}
	if _, err := d.Query(geoblocks.RegularPolygon(geom.Pt(50, 50), 15, 6), geoblocks.Count()); err != nil {
		t.Fatalf("query after rejected batch: %v", err)
	}
}

// TestResultCacheConfigPersists pins the snapshot round-trip: the
// configuration travels through the manifest; contents do not.
func TestResultCacheConfigPersists(t *testing.T) {
	d := buildDataset(t, "persist", 5_000, 13, Options{
		Level: 10, ShardLevel: 1,
		ResultCacheBytes:   2 << 20,
		ResultCacheMinHits: 3,
	})
	poly := geoblocks.RegularPolygon(geom.Pt(50, 50), 20, 6)
	for i := 0; i < 6; i++ {
		if _, err := d.Query(poly, testReqs...); err != nil {
			t.Fatalf("warm query: %v", err)
		}
	}
	dir := filepath.Join(t.TempDir(), "snap")
	m, err := d.Snapshot(dir)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if m.ResultCacheBytes != 2<<20 || m.ResultCacheMinHits != 3 {
		t.Fatalf("manifest config %d/%d", m.ResultCacheBytes, m.ResultCacheMinHits)
	}
	r, err := Open(dir, "")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rc := r.ResultCacheStats()
	if rc == nil {
		t.Fatal("restored dataset lost its result cache")
	}
	if rc.MaxBytes != 2<<20 || rc.MinHits != 3 {
		t.Fatalf("restored config %+v", *rc)
	}
	if rc.Entries != 0 || rc.Hits != 0 || rc.Generation != 0 {
		t.Fatalf("restored cache not cold: %+v", *rc)
	}
	want, err := d.Query(poly, testReqs...)
	if err != nil {
		t.Fatalf("query original: %v", err)
	}
	got, err := r.Query(poly, testReqs...)
	if err != nil {
		t.Fatalf("query restored: %v", err)
	}
	assertEquivalent(t, got, want, "restored")
}

// TestEnableResultCacheLifecycle covers runtime attach/detach and the
// validation surface.
func TestEnableResultCacheLifecycle(t *testing.T) {
	d := buildDataset(t, "life", 4_000, 17, Options{Level: 10, ShardLevel: 1})
	if d.ResultCacheStats() != nil {
		t.Fatal("cache present before enabling")
	}
	if err := d.EnableResultCache(-1, 0); err == nil {
		t.Fatal("want error for negative budget")
	}
	if err := d.EnableResultCache(1<<20, -1); err == nil {
		t.Fatal("want error for negative min hits")
	}
	if err := d.EnableResultCache(1<<20, 1); err != nil {
		t.Fatalf("enable: %v", err)
	}
	poly := geoblocks.RegularPolygon(geom.Pt(40, 40), 15, 5)
	for i := 0; i < 4; i++ {
		if _, err := d.Query(poly, testReqs...); err != nil {
			t.Fatalf("query: %v", err)
		}
	}
	if rc := d.ResultCacheStats(); rc == nil || rc.Hits == 0 {
		t.Fatalf("enabled cache never hit: %+v", rc)
	}
	if err := d.EnableResultCache(0, 0); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if d.ResultCacheStats() != nil {
		t.Fatal("cache still attached after detach")
	}
	if st := d.Stats(); st.ResultCache != nil || st.Generation != 0 {
		t.Fatalf("stats still report a cache: %+v", st.ResultCache)
	}
}

// TestDropInvalidatesResultCache pins the registry contract: dropping a
// dataset bumps its generation, so a stale handle can never serve cached
// results as current again.
func TestDropInvalidatesResultCache(t *testing.T) {
	s := New()
	d := buildDataset(t, "dropme", 4_000, 19, Options{Level: 10, ResultCacheBytes: 1 << 20})
	if err := s.Add(d); err != nil {
		t.Fatalf("Add: %v", err)
	}
	gen := d.Generation()
	if !s.Drop("dropme") {
		t.Fatal("Drop reported missing dataset")
	}
	if got := d.Generation(); got != gen+1 {
		t.Fatalf("generation %d after drop, want %d", got, gen+1)
	}
}

// TestResultCacheInvalidationRace is the serving-tier smoke CI runs under
// the race detector: readers hammer a hot footprint while a writer folds
// updates in, a snapshotter walks the shards, and the registry drops and
// re-adds the dataset. No reader may ever observe a count older than the
// last completed update — that would be a stale cached result served
// across a generation bump.
func TestResultCacheInvalidationRace(t *testing.T) {
	const (
		readers   = 4
		updates   = 30
		readIters = 300
	)
	s := New()
	d := buildDataset(t, "race", 10_000, 23, Options{
		Level: 12, ShardLevel: 2, PyramidLevels: 2, ResultCacheBytes: 1 << 20,
	})
	if err := s.Add(d); err != nil {
		t.Fatalf("Add: %v", err)
	}

	// The hot footprint: a polygon around the data cluster at (25, 70).
	// The fixed update point reuses an existing row's coordinates inside
	// the polygon, so its cell is guaranteed to be aggregated.
	poly := geoblocks.RegularPolygon(geom.Pt(25, 70), 10, 8)
	allPts, _ := testRows(10_000, 23)
	var updatePt geom.Point
	found := false
	for _, p := range allPts {
		if poly.ContainsPoint(p) && testBound.ContainsPoint(p) {
			updatePt, found = p, true
			break
		}
	}
	if !found {
		t.Fatal("no data point inside the hot polygon")
	}
	base, err := d.Query(poly, testReqs...)
	if err != nil {
		t.Fatalf("base query: %v", err)
	}

	// completed is the number of updates whose Update call has returned:
	// any query STARTED afterwards must observe at least that many extra
	// rows. Readers load it before querying, so a lagging (stale cached)
	// answer is detected deterministically.
	var completed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers+3)

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(stop)
		for i := 0; i < updates; i++ {
			err := d.Update(&geoblocks.UpdateBatch{
				Points: []geom.Point{updatePt},
				Cols:   [][]float64{{1}, {0}},
			})
			if err != nil {
				errc <- err
				return
			}
			completed.Add(1)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readIters; i++ {
				minRows := completed.Load()
				res, err := d.Query(poly, testReqs...)
				if err != nil {
					errc <- err
					return
				}
				if res.Count < base.Count+uint64(minRows) {
					errc <- fmt.Errorf("stale result served: count %d < %d", res.Count, base.Count+uint64(minRows))
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() { // snapshotter
		defer wg.Done()
		dir := t.TempDir()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.Snapshot(filepath.Join(dir, "snap")); err != nil {
				errc <- err
				return
			}
			i++
		}
	}()

	wg.Add(1)
	go func() { // registry churn: drop + re-add (each drop invalidates)
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Drop("race")
			if err := s.Add(d); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("race smoke: %v", err)
	}

	// The writer's updates must all be visible now, cache on.
	final, err := d.Query(poly, testReqs...)
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	if final.Count != base.Count+updates {
		t.Fatalf("final count %d, want %d", final.Count, base.Count+updates)
	}
}
