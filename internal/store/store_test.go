package store

import (
	"math"
	"math/rand"
	"testing"

	"geoblocks"
	"geoblocks/internal/geom"
)

var testBound = geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}

// testRows generates clustered points with one integer-valued column
// (exact float sums) and one continuous column.
func testRows(n int, seed int64) ([]geom.Point, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	ints := make([]float64, n)
	floats := make([]float64, n)
	for i := range pts {
		if i%3 == 0 {
			pts[i] = geom.Pt(25+rng.NormFloat64()*8, 70+rng.NormFloat64()*8)
		} else {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		ints[i] = math.Floor(rng.Float64() * 1000)
		floats[i] = rng.NormFloat64() * 42
	}
	return pts, [][]float64{ints, floats}
}

func buildDataset(t testing.TB, name string, n int, seed int64, opts Options) *Dataset {
	t.Helper()
	pts, cols := testRows(n, seed)
	d, err := Build(name, testBound, geoblocks.NewSchema("ival", "fval"), pts, cols, opts)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return d
}

var testReqs = []geoblocks.AggRequest{
	geoblocks.Count(),
	geoblocks.Sum("ival"),
	geoblocks.Min("fval"),
	geoblocks.Max("fval"),
	geoblocks.Avg("ival"),
}

// assertEquivalent checks the sharded result against the single-block
// reference: COUNT/MIN/MAX bit-identical, SUM/AVG exact here because the
// summed column is integer-valued (DESIGN.md Sec. 6).
func assertEquivalent(t *testing.T, got, want geoblocks.Result, label string) {
	t.Helper()
	if got.Count != want.Count {
		t.Errorf("%s: count = %d, want %d", label, got.Count, want.Count)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d values, want %d", label, len(got.Values), len(want.Values))
	}
	for i, v := range got.Values {
		w := want.Values[i]
		if math.IsNaN(v) && math.IsNaN(w) {
			continue
		}
		if v != w {
			t.Errorf("%s: value[%d] = %v, want %v", label, i, v, w)
		}
	}
}

// TestShardedEquivalence is the randomized equivalence suite: a sharded
// dataset must answer polygon, rectangle and batch queries identically to
// a single unsharded block over the same rows.
func TestShardedEquivalence(t *testing.T) {
	const rows = 20_000
	for _, shardLevel := range []int{1, 2, 3} {
		single := buildDataset(t, "single", rows, 7, Options{Level: 12})
		sharded := buildDataset(t, "sharded", rows, 7, Options{Level: 12, ShardLevel: shardLevel})
		if sharded.NumShards() < 2 {
			t.Fatalf("shard level %d produced %d shards, want >= 2", shardLevel, sharded.NumShards())
		}

		rng := rand.New(rand.NewSource(int64(100 + shardLevel)))
		var polys []*geom.Polygon
		for i := 0; i < 40; i++ {
			c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			r := 1 + rng.Float64()*30
			polys = append(polys, geoblocks.RegularPolygon(c, r, 3+rng.Intn(8)))
		}
		for i, poly := range polys {
			want, err := single.Query(poly, testReqs...)
			if err != nil {
				t.Fatalf("single query %d: %v", i, err)
			}
			got, err := sharded.Query(poly, testReqs...)
			if err != nil {
				t.Fatalf("sharded query %d: %v", i, err)
			}
			assertEquivalent(t, got, want, "poly query")
		}

		for i := 0; i < 40; i++ {
			r := geom.RectFromCenter(
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
				1+rng.Float64()*40, 1+rng.Float64()*40)
			want, err := single.QueryRect(r, testReqs...)
			if err != nil {
				t.Fatalf("single rect %d: %v", i, err)
			}
			got, err := sharded.QueryRect(r, testReqs...)
			if err != nil {
				t.Fatalf("sharded rect %d: %v", i, err)
			}
			assertEquivalent(t, got, want, "rect query")
		}

		// Batch answers (the join operator) must align positionally and
		// agree with the one-at-a-time path.
		batch, _, err := sharded.Join(polys, geoblocks.QueryOptions{}, testReqs...)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		if len(batch) != len(polys) {
			t.Fatalf("batch returned %d results, want %d", len(batch), len(polys))
		}
		for i, poly := range polys {
			want, err := single.Query(poly, testReqs...)
			if err != nil {
				t.Fatalf("single query %d: %v", i, err)
			}
			assertEquivalent(t, batch[i], want, "batch query")
		}
	}
}

// TestShardedEquivalenceCached runs the equivalence check with per-shard
// query caches enabled and warmed, so the cached partial path is covered.
func TestShardedEquivalenceCached(t *testing.T) {
	const rows = 10_000
	single := buildDataset(t, "single", rows, 3, Options{Level: 12})
	sharded := buildDataset(t, "sharded", rows, 3, Options{Level: 12, ShardLevel: 2, CacheThreshold: 0.2})

	rng := rand.New(rand.NewSource(5))
	var polys []*geom.Polygon
	for i := 0; i < 25; i++ {
		c := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		polys = append(polys, geoblocks.RegularPolygon(c, 5+rng.Float64()*25, 6))
	}
	// Warm: query (sequentially — the join bypasses the per-shard
	// caches and records no statistics), refresh caches, then re-check
	// equivalence through the now-populated tries.
	for i, poly := range polys {
		if _, err := sharded.QueryOpts(poly, geoblocks.QueryOptions{}, testReqs...); err != nil {
			t.Fatalf("warm query %d: %v", i, err)
		}
	}
	sharded.RefreshCaches()
	st := sharded.Stats()
	if !st.CacheEnabled {
		t.Fatalf("stats report cache disabled")
	}
	for i, poly := range polys {
		want, err := single.Query(poly, testReqs...)
		if err != nil {
			t.Fatalf("single query %d: %v", i, err)
		}
		got, err := sharded.Query(poly, testReqs...)
		if err != nil {
			t.Fatalf("sharded query %d: %v", i, err)
		}
		assertEquivalent(t, got, want, "cached query")
	}
	if after := sharded.Stats(); after.Cache.Probes == 0 {
		t.Errorf("cached queries recorded no probes")
	}
}

// TestRouterEdgeCases pins the covering-split routing: empty coverings,
// single-shard coverings, and coverings straddling every shard.
func TestRouterEdgeCases(t *testing.T) {
	d := buildDataset(t, "edge", 8_000, 11, Options{Level: 10, ShardLevel: 1})
	if d.NumShards() != 4 {
		t.Fatalf("level-1 sharding of uniform data gave %d shards, want 4", d.NumShards())
	}

	t.Run("empty covering", func(t *testing.T) {
		if parts := d.route(nil); len(parts) != 0 {
			t.Fatalf("empty covering routed to %d shards", len(parts))
		}
		res, err := d.QueryCovering(nil, testReqs...)
		if err != nil {
			t.Fatalf("empty covering query: %v", err)
		}
		if res.Count != 0 {
			t.Errorf("empty covering count = %d, want 0", res.Count)
		}
		if !math.IsNaN(res.Values[2]) || !math.IsNaN(res.Values[3]) {
			t.Errorf("empty covering min/max = %v/%v, want NaN", res.Values[2], res.Values[3])
		}
		// A polygon outside every shard behaves the same.
		far := geoblocks.RegularPolygon(geom.Pt(-500, -500), 10, 5)
		res, err = d.Query(far, testReqs...)
		if err != nil {
			t.Fatalf("far query: %v", err)
		}
		if res.Count != 0 {
			t.Errorf("far polygon count = %d, want 0", res.Count)
		}
	})

	t.Run("single shard", func(t *testing.T) {
		// A small region strictly inside the lower-left quadrant covers
		// only one shard.
		poly := geoblocks.RegularPolygon(geom.Pt(20, 20), 8, 8)
		cov := d.Cover(poly)
		parts := d.route(cov)
		if len(parts) != 1 {
			t.Fatalf("quadrant-local covering routed to %d shards, want 1", len(parts))
		}
		if got := len(parts[0].sub); got != len(cov) {
			t.Errorf("single-shard split kept %d of %d cells", got, len(cov))
		}
		res, err := d.Query(poly, testReqs...)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if res.Count == 0 {
			t.Errorf("quadrant query found no rows")
		}
	})

	t.Run("all shards", func(t *testing.T) {
		// A polygon around the domain centre spans all four level-1
		// quadrants.
		poly := geoblocks.RegularPolygon(geom.Pt(50, 50), 30, 12)
		parts := d.route(d.Cover(poly))
		if len(parts) != 4 {
			t.Fatalf("centre polygon routed to %d shards, want 4", len(parts))
		}
		single := buildDataset(t, "edge-single", 8_000, 11, Options{Level: 10})
		want, err := single.Query(poly, testReqs...)
		if err != nil {
			t.Fatalf("single: %v", err)
		}
		got, err := d.Query(poly, testReqs...)
		if err != nil {
			t.Fatalf("sharded: %v", err)
		}
		assertEquivalent(t, got, want, "all-shard query")
	})

	t.Run("whole domain", func(t *testing.T) {
		res, err := d.QueryRect(testBound, testReqs...)
		if err != nil {
			t.Fatalf("whole-domain rect: %v", err)
		}
		st := d.Stats()
		if res.Count != st.Tuples {
			t.Errorf("whole-domain count = %d, want all %d tuples", res.Count, st.Tuples)
		}
	})
}

// TestSplitCoveringSharing pins that splits are sub-slices of the one
// covering (no per-shard covering recomputation or copying).
func TestSplitCoveringSharing(t *testing.T) {
	d := buildDataset(t, "split", 4_000, 2, Options{Level: 10, ShardLevel: 1})
	cov := d.CoverRect(geom.RectFromCenter(geom.Pt(50, 50), 35, 35))
	total := 0
	for i := range d.shards {
		sub := geoblocks.SplitCovering(cov, d.shards[i].cell)
		total += len(sub)
		for j := 1; j < len(sub); j++ {
			if sub[j] <= sub[j-1] {
				t.Fatalf("split %d not ascending", i)
			}
		}
	}
	// Every covering cell lands in >= 1 shard; cells coarser than the
	// shard level may appear in several.
	if total < len(cov) {
		t.Errorf("splits cover %d cells, covering has %d", total, len(cov))
	}
}

func TestBuildValidation(t *testing.T) {
	pts, cols := testRows(100, 1)
	schema := geoblocks.NewSchema("ival", "fval")
	cases := []struct {
		name string
		opts Options
	}{
		{"negative level", Options{Level: -1}},
		{"shard > block level", Options{Level: 2, ShardLevel: 3}},
		{"shard level beyond max", Options{Level: 20, ShardLevel: MaxShardLevel + 1}},
		{"negative threshold", Options{Level: 10, CacheThreshold: -0.5}},
		{"negative refresh", Options{Level: 10, CacheThreshold: 0.1, CacheAutoRefresh: -1}},
	}
	for _, tc := range cases {
		if _, err := Build("x", testBound, schema, pts, cols, tc.opts); err == nil {
			t.Errorf("%s: Build accepted invalid options", tc.name)
		}
	}
	if _, err := Build("", testBound, schema, pts, cols, Options{Level: 10}); err == nil {
		t.Errorf("empty name accepted")
	}
	if _, err := Build("x", testBound, schema, pts, cols[:1], Options{Level: 10}); err == nil {
		t.Errorf("column count mismatch accepted")
	}
}

func TestEmptyDataset(t *testing.T) {
	d, err := Build("empty", testBound, geoblocks.NewSchema("v"), nil, [][]float64{nil}, Options{Level: 10, ShardLevel: 2})
	if err != nil {
		t.Fatalf("Build(empty): %v", err)
	}
	if d.NumShards() != 1 {
		t.Fatalf("empty dataset has %d shards, want 1 placeholder", d.NumShards())
	}
	res, err := d.QueryRect(testBound, geoblocks.Count(), geoblocks.Min("v"))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Count != 0 || !math.IsNaN(res.Values[1]) {
		t.Errorf("empty dataset returned count=%d min=%v", res.Count, res.Values[1])
	}
}

func TestUnknownColumn(t *testing.T) {
	d := buildDataset(t, "cols", 1_000, 1, Options{Level: 10, ShardLevel: 1})
	if _, err := d.QueryRect(testBound, geoblocks.Sum("nope")); err == nil {
		t.Fatalf("unknown column accepted")
	}
	if _, _, err := d.Join([]*geom.Polygon{geoblocks.RegularPolygon(geom.Pt(50, 50), 30, 6)}, geoblocks.QueryOptions{}, geoblocks.Sum("nope")); err == nil {
		t.Fatalf("unknown column accepted in batch")
	}
}

func TestStoreRegistry(t *testing.T) {
	s := New()
	a := buildDataset(t, "alpha", 500, 1, Options{Level: 8})
	b := buildDataset(t, "beta", 500, 2, Options{Level: 8, ShardLevel: 1})
	if err := s.Add(a); err != nil {
		t.Fatalf("Add(alpha): %v", err)
	}
	if err := s.Add(b); err != nil {
		t.Fatalf("Add(beta): %v", err)
	}
	if err := s.Add(a); err == nil {
		t.Fatalf("duplicate Add accepted")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("Names() = %v", names)
	}
	if _, ok := s.Get("alpha"); !ok {
		t.Fatalf("Get(alpha) missing")
	}
	if _, ok := s.Get("gamma"); ok {
		t.Fatalf("Get(gamma) found")
	}
	stats := s.Stats()
	if len(stats) != 2 || stats[0].Name != "alpha" {
		t.Fatalf("Stats() = %+v", stats)
	}
	if !s.Drop("alpha") {
		t.Fatalf("Drop(alpha) reported missing")
	}
	if s.Drop("alpha") {
		t.Fatalf("second Drop(alpha) reported present")
	}
	if got := s.Names(); len(got) != 1 || got[0] != "beta" {
		t.Fatalf("Names() after drop = %v", got)
	}
}

func TestDatasetStats(t *testing.T) {
	d := buildDataset(t, "stats", 5_000, 9, Options{Level: 11, ShardLevel: 1})
	st := d.Stats()
	if st.Name != "stats" || st.Level != 11 || st.ShardLevel != 1 {
		t.Fatalf("stats header = %+v", st)
	}
	if st.NumShards != len(st.Shards) {
		t.Fatalf("NumShards %d != len(Shards) %d", st.NumShards, len(st.Shards))
	}
	var cells int
	var tuples uint64
	for _, sh := range st.Shards {
		cells += sh.Cells
		tuples += sh.Tuples
	}
	if cells != st.Cells || tuples != st.Tuples {
		t.Fatalf("shard totals %d/%d != dataset totals %d/%d", cells, tuples, st.Cells, st.Tuples)
	}
	if st.Tuples == 0 || st.SizeBytes == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	if st.Queries != 0 {
		t.Fatalf("fresh dataset reports %d queries", st.Queries)
	}
	if _, err := d.QueryRect(testBound, geoblocks.Count()); err != nil {
		t.Fatalf("query: %v", err)
	}
	if got := d.Stats().Queries; got != 1 {
		t.Fatalf("queries counter = %d, want 1", got)
	}
}
