package store

import (
	"math"
	"math/rand"
	"testing"

	"geoblocks"
	"geoblocks/internal/geom"
)

// joinPolys generates a mixed join workload: hotspot-clustered irregular
// polygons plus uniform ones, sizes spanning sub-cell to tens of cells.
func joinPolys(rng *rand.Rand, n int) []*geom.Polygon {
	polys := make([]*geom.Polygon, n)
	for i := range polys {
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if i%3 == 0 {
			c = geom.Pt(25+rng.NormFloat64()*8, 70+rng.NormFloat64()*8)
		}
		polys[i] = geoblocks.RegularPolygon(c, 0.5+rng.Float64()*18, 3+rng.Intn(8))
	}
	return polys
}

// assertBitIdentical demands full bitwise equality — Count, every
// value's float bits (SUM included), Level and ErrorBound. Valid when
// both sides ran serial kernels over aggtrie-free shards, which is
// exactly the join's single-node contract.
func assertBitIdentical(t *testing.T, label string, got, want geoblocks.Result) {
	t.Helper()
	if got.Count != want.Count {
		t.Fatalf("%s: count %d, sequential %d", label, got.Count, want.Count)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d values, sequential %d", label, len(got.Values), len(want.Values))
	}
	for k := range want.Values {
		if math.Float64bits(got.Values[k]) != math.Float64bits(want.Values[k]) {
			t.Fatalf("%s: value[%d] = %v, sequential %v (bits differ)",
				label, k, got.Values[k], want.Values[k])
		}
	}
	if got.Level != want.Level {
		t.Fatalf("%s: level %d, sequential %d", label, got.Level, want.Level)
	}
	if got.ErrorBound != want.ErrorBound {
		t.Fatalf("%s: error bound %v, sequential %v", label, got.ErrorBound, want.ErrorBound)
	}
}

// TestJoinEquivalence is the join's randomized property suite: across
// shard levels, max_error settings and cached/uncached datasets, Join
// must return exactly what N sequential QueryOpts calls return — bit for
// bit, SUM included (the datasets carry no aggtrie, so both sides run
// the serial kernel over the same ranges in the same order).
func TestJoinEquivalence(t *testing.T) {
	const rows = 20_000
	for _, shardLevel := range []int{1, 2, 3} {
		for _, cached := range []bool{false, true} {
			d := buildDataset(t, "join", rows, 7, Options{Level: 12, ShardLevel: shardLevel, PyramidLevels: 4})
			if cached {
				if err := d.EnableResultCache(1<<20, 0); err != nil {
					t.Fatalf("enable result cache: %v", err)
				}
			}
			rng := rand.New(rand.NewSource(int64(40 + shardLevel)))
			polys := joinPolys(rng, 60)
			for _, maxErr := range []float64{0, 0.2, 3.0} {
				opts := geoblocks.QueryOptions{MaxError: maxErr}
				got, stats, err := d.Join(polys, opts, testReqs...)
				if err != nil {
					t.Fatalf("join (shard %d, err %v, cached %v): %v", shardLevel, maxErr, cached, err)
				}
				if len(got) != len(polys) {
					t.Fatalf("join returned %d results for %d polygons", len(got), len(polys))
				}
				if stats.Polygons != len(polys) {
					t.Fatalf("stats report %d polygons, want %d", stats.Polygons, len(polys))
				}
				if stats.InteriorPairs+stats.BoundaryPairs == 0 && stats.Fallbacks == 0 && stats.CacheHits == 0 {
					t.Fatalf("join classified nothing: %+v", stats)
				}
				for i, poly := range polys {
					want, err := d.QueryOpts(poly, opts, testReqs...)
					if err != nil {
						t.Fatalf("sequential query %d: %v", i, err)
					}
					assertBitIdentical(t, "join result", got[i], want)
				}
				// Second pass: on cached datasets the join must now be
				// served entirely from the result cache (the sequential
				// queries above stored every footprint) and still agree.
				again, stats2, err := d.Join(polys, opts, testReqs...)
				if err != nil {
					t.Fatalf("second join: %v", err)
				}
				for i := range polys {
					assertBitIdentical(t, "warm join result", again[i], got[i])
				}
				if cached && stats2.CacheHits != len(polys) {
					t.Fatalf("warm join hit cache %d/%d times", stats2.CacheHits, len(polys))
				}
				if !cached && (stats2.CacheHits != 0 || stats2.CacheMisses != 0) {
					t.Fatalf("uncached dataset reported cache traffic: %+v", stats2)
				}
			}
		}
	}
}

// TestJoinRectsEquivalence covers the rectangle (window/tile-grid) form
// against sequential QueryRectOpts, including an adjacent tile grid —
// the shared-edge case the closed-rectangle predicates make adversarial.
func TestJoinRectsEquivalence(t *testing.T) {
	d := buildDataset(t, "joinrect", 15_000, 9, Options{Level: 11, ShardLevel: 2, PyramidLevels: 3})
	rng := rand.New(rand.NewSource(21))
	var rects []geom.Rect
	for i := 0; i < 20; i++ {
		rects = append(rects, geom.RectFromCenter(
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
			1+rng.Float64()*25, 1+rng.Float64()*25))
	}
	// An 5x4 window grid: adjacent tiles sharing edges.
	const nx, ny = 5, 4
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			rects = append(rects, geom.Rect{
				Min: geom.Pt(10+float64(ix)*12, 20+float64(iy)*12),
				Max: geom.Pt(10+float64(ix+1)*12, 20+float64(iy+1)*12),
			})
		}
	}
	for _, maxErr := range []float64{0, 0.2} {
		opts := geoblocks.QueryOptions{MaxError: maxErr}
		got, stats, err := d.JoinRects(rects, opts, testReqs...)
		if err != nil {
			t.Fatalf("join rects: %v", err)
		}
		if stats.Polygons != len(rects) {
			t.Fatalf("stats count %d, want %d", stats.Polygons, len(rects))
		}
		for i, r := range rects {
			want, err := d.QueryRectOpts(r, opts, testReqs...)
			if err != nil {
				t.Fatalf("sequential rect %d: %v", i, err)
			}
			assertBitIdentical(t, "join rect", got[i], want)
		}
	}
}

// TestJoinThroughDelta pins the join against the streaming write path:
// pending delta rows must fold into join answers exactly as they do for
// sequential queries (base first, delta second, per shard).
func TestJoinThroughDelta(t *testing.T) {
	d := buildDataset(t, "joindelta", 8_000, 13, Options{Level: 11, ShardLevel: 2})
	pts, cols := testRows(2_000, 99)
	if _, err := d.Ingest(pts, cols); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	polys := joinPolys(rng, 30)
	got, _, err := d.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	for i, poly := range polys {
		want, err := d.Query(poly, testReqs...)
		if err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
		assertBitIdentical(t, "delta join", got[i], want)
	}
}

// TestJoinEdgeCases: empty input, invalid options, unknown columns, and
// polygons entirely outside the domain (identity result, NaN extrema).
func TestJoinEdgeCases(t *testing.T) {
	d := buildDataset(t, "joinedge", 2_000, 17, Options{Level: 10, ShardLevel: 1})
	res, stats, err := d.Join(nil, geoblocks.QueryOptions{}, testReqs...)
	if err != nil || len(res) != 0 || stats.Polygons != 0 {
		t.Fatalf("empty join: %v, %d results, %+v", err, len(res), stats)
	}
	if _, _, err := d.Join(nil, geoblocks.QueryOptions{MaxError: -1}, testReqs...); err == nil {
		t.Fatal("negative max error accepted")
	}
	outside := geoblocks.RegularPolygon(geom.Pt(900, 900), 5, 6)
	inside := geoblocks.RegularPolygon(geom.Pt(50, 50), 10, 6)
	if _, _, err := d.Join([]*geom.Polygon{inside}, geoblocks.QueryOptions{}, geoblocks.Sum("nope")); err == nil {
		t.Fatal("unknown column accepted")
	}
	res, _, err = d.Join([]*geom.Polygon{outside, inside}, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	want, err := d.Query(outside, testReqs...)
	if err != nil {
		t.Fatalf("sequential outside: %v", err)
	}
	assertBitIdentical(t, "outside polygon", res[0], want)
	if res[0].Count != 0 {
		t.Fatalf("outside polygon counted %d rows", res[0].Count)
	}
	want, err = d.Query(inside, testReqs...)
	if err != nil {
		t.Fatalf("sequential inside: %v", err)
	}
	assertBitIdentical(t, "inside polygon", res[1], want)
}

// TestJoinDuplicatePolygons pins the fan-in dedup: repeated polygons —
// whether literally the same object or content-equal clones, as the
// HTTP path produces — are planned and aggregated once, replicated
// positionally, and still bit-identical to querying each occurrence
// independently.
func TestJoinDuplicatePolygons(t *testing.T) {
	d := buildDataset(t, "joindup", 10_000, 47, Options{Level: 11, ShardLevel: 2, PyramidLevels: 3})
	if err := d.EnableResultCache(1<<20, 0); err != nil {
		t.Fatalf("enable result cache: %v", err)
	}
	rng := rand.New(rand.NewSource(53))
	base := joinPolys(rng, 12)
	clone := func(p *geom.Polygon) *geom.Polygon {
		return geom.NewPolygon(append([]geom.Point(nil), p.Outer()...))
	}
	// 12 unique geometries across 30 slots: same-pointer repeats,
	// content-equal clones, and a Zipfian-style pileup on base[0].
	polys := make([]*geom.Polygon, 0, 30)
	for i := 0; i < 30; i++ {
		p := base[i%len(base)]
		if i%2 == 1 {
			p = clone(p)
		}
		if i >= 24 {
			p = base[0]
		}
		polys = append(polys, p)
	}
	for _, opts := range []geoblocks.QueryOptions{{DisableCache: true}, {MaxError: 0.2}} {
		got, stats, err := d.Join(polys, opts, testReqs...)
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		if stats.Polygons != len(polys) || stats.UniquePolygons != len(base) {
			t.Fatalf("stats report %d/%d polygons, want %d/%d unique",
				stats.Polygons, stats.UniquePolygons, len(polys), len(base))
		}
		for i, poly := range polys {
			want, err := d.QueryOpts(poly, opts, testReqs...)
			if err != nil {
				t.Fatalf("sequential query %d: %v", i, err)
			}
			assertBitIdentical(t, "dedup join", got[i], want)
		}
	}
	// Warm pass over the cached dataset: one hit per unique geometry.
	_, stats, err := d.Join(polys, geoblocks.QueryOptions{MaxError: 0.2}, testReqs...)
	if err != nil {
		t.Fatalf("warm join: %v", err)
	}
	if stats.CacheHits != len(base) || stats.CacheMisses != 0 {
		t.Fatalf("warm dedup join: %d hits, %d misses, want %d/0",
			stats.CacheHits, stats.CacheMisses, len(base))
	}
}

// TestJoinStatsCounters pins the dataset-level join counters surfaced in
// DatasetStats.
func TestJoinStatsCounters(t *testing.T) {
	d := buildDataset(t, "joinstats", 5_000, 23, Options{Level: 11, ShardLevel: 1})
	if d.Stats().Join != nil {
		t.Fatal("join counters present before any join")
	}
	rng := rand.New(rand.NewSource(41))
	polys := joinPolys(rng, 25)
	_, stats, err := d.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	jc := d.Stats().Join
	if jc == nil {
		t.Fatal("no join counters after a join")
	}
	if jc.Joins != 1 || jc.Polygons != uint64(len(polys)) {
		t.Fatalf("counters %+v after one %d-polygon join", jc, len(polys))
	}
	if jc.InteriorPairs != uint64(stats.InteriorPairs) || jc.BoundaryPairs != uint64(stats.BoundaryPairs) {
		t.Fatalf("counters %+v disagree with call stats %+v", jc, stats)
	}
}

// TestBatchAndJoinCacheCountedPerElement pins the result-cache contract
// of the batch form (a join) and of single queries: both route through
// the result cache per element — every polygon counts one hit or one
// miss, never one per call — and share footprints.
func TestBatchAndJoinCacheCountedPerElement(t *testing.T) {
	d := buildDataset(t, "joincache", 6_000, 29, Options{Level: 11, ShardLevel: 2})
	if err := d.EnableResultCache(1<<20, 0); err != nil {
		t.Fatalf("enable result cache: %v", err)
	}
	rng := rand.New(rand.NewSource(43))
	polys := joinPolys(rng, 20)

	_, jstats, err := d.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("cold join: %v", err)
	}
	st := d.Stats().ResultCache
	if st.Misses != uint64(len(polys)) || st.Hits != 0 {
		t.Fatalf("cold join: %d misses, %d hits, want %d/0", st.Misses, st.Hits, len(polys))
	}
	if jstats.CacheMisses != len(polys) || jstats.CacheHits != 0 {
		t.Fatalf("cold join stats: %d misses, %d hits, want %d/0", jstats.CacheMisses, jstats.CacheHits, len(polys))
	}

	// Single queries share the footprints: each hits the entry the join
	// stored.
	for i, p := range polys {
		if _, err := d.QueryOpts(p, geoblocks.QueryOptions{}, testReqs...); err != nil {
			t.Fatalf("warm query %d: %v", i, err)
		}
	}
	st = d.Stats().ResultCache
	if st.Hits != uint64(len(polys)) {
		t.Fatalf("warm queries: %d hits, want %d", st.Hits, len(polys))
	}

	_, jstats, err = d.Join(polys, geoblocks.QueryOptions{}, testReqs...)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if jstats.CacheHits != len(polys) || jstats.CacheMisses != 0 {
		t.Fatalf("join over warm cache: %d hits, %d misses, want %d/0",
			jstats.CacheHits, jstats.CacheMisses, len(polys))
	}
	st = d.Stats().ResultCache
	if st.Hits != uint64(2*len(polys)) {
		t.Fatalf("cache hits %d after warm queries + join, want %d", st.Hits, 2*len(polys))
	}

	// DisableCache bypasses the result cache per element too.
	_, jstats, err = d.Join(polys, geoblocks.QueryOptions{DisableCache: true}, testReqs...)
	if err != nil {
		t.Fatalf("bypass join: %v", err)
	}
	if jstats.CacheHits != 0 || jstats.CacheMisses != 0 {
		t.Fatalf("DisableCache join recorded cache traffic: %+v", jstats)
	}
}
