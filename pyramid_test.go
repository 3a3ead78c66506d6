package geoblocks_test

// Pyramid / query-planner suite: the exact-vs-approx bound-respecting
// equivalence tests of the multi-resolution refactor. The planner's
// contract is property-tested against brute force over the raw points:
// for every approximate answer with reported guaranteed bound e,
//
//	count(poly) <= approx.Count <= count(dilate(poly, e))
//
// (and the analogue for SUM over a non-negative column), across
// randomized datasets, sharded and unsharded stores, cold and warmed
// caches, single and batch forms. MaxError = 0 must be bit-identical to
// the exact path.

import (
	"math"
	"math/rand"
	"testing"

	"geoblocks"
	"geoblocks/internal/baseline"
	"geoblocks/internal/cellid"
	"geoblocks/internal/geom"
	"geoblocks/internal/store"
	"geoblocks/internal/workload"
)

// pyramidTestData is one randomized dataset: raw points (all strictly
// inside testBound, so extraction drops nothing) plus two value columns —
// "val" non-negative (SUM envelope testable), "signed" mixed.
type pyramidTestData struct {
	pts  []geoblocks.Point
	cols [][]float64
}

func genPyramidData(n int, seed int64) pyramidTestData {
	rng := rand.New(rand.NewSource(seed))
	d := pyramidTestData{
		pts:  make([]geoblocks.Point, n),
		cols: [][]float64{make([]float64, n), make([]float64, n)},
	}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			d.pts[i] = geoblocks.Pt(rng.Float64()*100, rng.Float64()*100)
		} else {
			// Clustered mass so coarse cells hold real weight.
			x := 30 + rng.NormFloat64()*12
			y := 60 + rng.NormFloat64()*10
			d.pts[i] = geoblocks.Pt(clamp(x, 0.001, 99.999), clamp(y, 0.001, 99.999))
		}
		d.cols[0][i] = rng.Float64() * 10
		d.cols[1][i] = rng.Float64()*10 - 5
	}
	return d
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// bruteEnvelope computes the exact in-polygon count/sum and the dilated
// count/sum over the raw points — the two ends of the planner's
// guarantee.
func bruteEnvelope(d pyramidTestData, poly *geoblocks.Polygon, margin float64) (loCount, hiCount uint64, loSum, hiSum float64) {
	for i, p := range d.pts {
		dist := baseline.DistanceToPolygon(p, poly)
		if dist == 0 {
			loCount++
			loSum += d.cols[0][i]
		}
		if dist <= margin {
			hiCount++
			hiSum += d.cols[0][i]
		}
	}
	return
}

// checkEnvelope asserts one result against the brute-force guarantee.
func checkEnvelope(t *testing.T, d pyramidTestData, poly *geoblocks.Polygon, res geoblocks.Result, label string) {
	t.Helper()
	// Tiny relative slack absorbs float rounding in the distance
	// computation; the geometric guarantee itself is not approximate.
	margin := res.ErrorBound*(1+1e-9) + 1e-12
	loC, hiC, loS, hiS := bruteEnvelope(d, poly, margin)
	if res.Count < loC || res.Count > hiC {
		t.Fatalf("%s: count %d outside guaranteed envelope [%d, %d] (bound %g, level %d)",
			label, res.Count, loC, hiC, res.ErrorBound, res.Level)
	}
	sum := res.Values[1]
	const sumSlack = 1e-6
	if sum < loS-sumSlack || sum > hiS+sumSlack {
		t.Fatalf("%s: sum %g outside guaranteed envelope [%g, %g] (bound %g, level %d)",
			label, sum, loS, hiS, res.ErrorBound, res.Level)
	}
}

func sameResult(a, b geoblocks.Result) bool {
	if a.Count != b.Count || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// equivalentResults compares two answers of the same query under the
// cache-equivalence contract: COUNT/MIN/MAX bit-identical, SUM/AVG equal
// up to the floating-point reassociation a cache hit's pre-combined
// records introduce (DESIGN.md Sec. 6).
func equivalentResults(a, b geoblocks.Result, reqs []geoblocks.AggRequest) bool {
	if a.Count != b.Count || len(a.Values) != len(b.Values) || len(a.Values) != len(reqs) {
		return false
	}
	for i := range a.Values {
		x, y := a.Values[i], b.Values[i]
		if sumLike[i] {
			diff := math.Abs(x - y)
			scale := math.Max(math.Abs(x), math.Abs(y))
			if diff > 1e-9*math.Max(scale, 1) {
				return false
			}
		} else if math.Float64bits(x) != math.Float64bits(y) {
			return false
		}
	}
	return true
}

// sumLike marks which of the suite's aggregate requests are SUM/AVG
// (reassociation-tolerant); positions align with the reqs slice used by
// TestPyramidBoundGuarantee.
var sumLike = []bool{false, true, false, false}

// testPolys builds a small mixed workload over testBound: tessellation
// cells plus approximately circular regions of different scales.
func testPolys(t *testing.T, seed int64) []*geoblocks.Polygon {
	t.Helper()
	polys := workload.Tessellation(testBound, 4, 3, seed)[:6]
	for _, rp := range []struct {
		cx, cy, r float64
		n         int
	}{
		{30, 60, 18, 12},
		{70, 30, 7, 8},
		{50, 50, 45, 16},
	} {
		polys = append(polys, geoblocks.RegularPolygon(geoblocks.Pt(rp.cx, rp.cy), rp.r, rp.n))
	}
	return polys
}

// TestPyramidBoundGuarantee is the exact-vs-approx equivalence suite over
// the sharded store: randomized datasets × shard levels × cache
// configurations × cold/warm passes × single/batch forms, each answer
// checked against the brute-force envelope of its own reported bound.
func TestPyramidBoundGuarantee(t *testing.T) {
	const blockLevel = 12
	schema := geoblocks.NewSchema("val", "signed")
	dom := cellid.MustDomain(testBound)
	maxErrs := []float64{
		0,
		dom.CellDiagonal(11),
		dom.CellDiagonal(9),
		dom.CellDiagonal(7) * 1.3,
		25,
		1e6, // far coarser than the coarsest pyramid level: clamps
	}
	reqs := []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("val"), geoblocks.Min("signed"), geoblocks.Max("signed")}

	for _, seed := range []int64{1, 7} {
		d := genPyramidData(6000, seed)
		polys := testPolys(t, seed+100)
		for _, cfg := range []struct {
			name string
			opts store.Options
		}{
			{"unsharded", store.Options{Level: blockLevel, PyramidLevels: 6}},
			{"sharded", store.Options{Level: blockLevel, ShardLevel: 2, PyramidLevels: 6}},
			{"sharded-cached", store.Options{Level: blockLevel, ShardLevel: 2, PyramidLevels: 6, CacheThreshold: 0.25}},
		} {
			ds, err := store.Build("t", testBound, schema, d.pts, d.cols, cfg.opts)
			if err != nil {
				t.Fatalf("seed %d %s: Build: %v", seed, cfg.name, err)
			}
			cold := make(map[float64][]geoblocks.Result)
			for pass := 0; pass < 2; pass++ {
				if pass == 1 {
					// Second pass runs against warmed per-level caches:
					// cached answers must stay inside the same envelope
					// and bit-identical to the cold pass.
					ds.RefreshCaches()
				}
				for _, me := range maxErrs {
					opts := geoblocks.QueryOptions{MaxError: me}
					var single []geoblocks.Result
					for pi, poly := range polys {
						res, err := ds.QueryOpts(poly, opts, reqs...)
						if err != nil {
							t.Fatalf("seed %d %s pass %d: QueryOpts: %v", seed, cfg.name, pass, err)
						}
						if me == 0 {
							if res.Level != blockLevel {
								t.Fatalf("exact query answered at level %d", res.Level)
							}
							ex, err := ds.Query(poly, reqs...)
							if err != nil {
								t.Fatal(err)
							}
							if !sameResult(res, ex) {
								t.Fatalf("seed %d %s: MaxError=0 not bit-identical to Query: %+v vs %+v", seed, cfg.name, res, ex)
							}
						}
						if pass == 0 {
							checkEnvelope(t, d, poly, res, cfg.name)
						} else if !equivalentResults(res, cold[me][pi], reqs) {
							// COUNT/MIN/MAX must match the cold pass bit for
							// bit; cached SUM records re-associate additions
							// (DESIGN.md Sec. 6), so SUM/AVG get a relative
							// tolerance.
							t.Fatalf("seed %d %s max_error %g: warm-cache answer differs from cold for polygon %d: %+v vs %+v",
								seed, cfg.name, me, pi, res, cold[me][pi])
						}
						single = append(single, res)
					}
					if pass == 0 {
						cold[me] = single
					}
					// The batch form is the join operator: bit-identical
					// to the single queries on cache-free shards; against
					// cached single answers SUM/AVG may re-associate.
					batch, _, err := ds.Join(polys, opts, reqs...)
					if err != nil {
						t.Fatalf("Join: %v", err)
					}
					for i := range batch {
						same := sameResult(batch[i], single[i])
						if cfg.opts.CacheThreshold > 0 {
							same = equivalentResults(batch[i], single[i], reqs)
						}
						if !same {
							t.Fatalf("seed %d %s max_error %g: batch result %d differs from single", seed, cfg.name, me, i)
						}
						if batch[i].Level != single[i].Level || batch[i].ErrorBound != single[i].ErrorBound {
							t.Fatalf("batch result %d level/bound differ from single", i)
						}
					}
				}
			}
		}
	}
}

// TestPyramidBoundGuaranteePublicBlock runs the envelope property on the
// public single-block API: QueryOpts / QueryRectOpts on a GeoBlock with a
// pyramid, cached and uncached, plus the MaxError=0 bit-identity.
func TestPyramidBoundGuaranteePublicBlock(t *testing.T) {
	const blockLevel = 12
	d := genPyramidData(5000, 3)
	schema := geoblocks.NewSchema("val", "signed")
	b, err := geoblocks.NewBuilder(testBound, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRows(d.pts, d.cols); err != nil {
		t.Fatal(err)
	}
	blk, err := b.Build(blockLevel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := blk.BuildPyramid(6); err != nil {
		t.Fatal(err)
	}
	dom := cellid.MustDomain(testBound)
	reqs := []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("val")}
	polys := testPolys(t, 11)

	for _, cached := range []bool{false, true} {
		if cached {
			if err := blk.EnableCache(0.25, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, me := range []float64{0, dom.CellDiagonal(10), dom.CellDiagonal(8), 40} {
			opts := geoblocks.QueryOptions{MaxError: me}
			for _, poly := range polys {
				res, err := blk.QueryOpts(poly, opts, reqs...)
				if err != nil {
					t.Fatal(err)
				}
				if me == 0 {
					ex, err := blk.Query(poly, reqs...)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(res, ex) {
						t.Fatalf("MaxError=0 not bit-identical (cached=%v)", cached)
					}
				}
				checkEnvelope(t, d, poly, res, "public block")
			}
			// Rect form: the envelope for rectangles via their polygon.
			r := geoblocks.Rect{Min: geoblocks.Pt(20, 45), Max: geoblocks.Pt(55, 80)}
			res, err := blk.QueryRectOpts(r, opts, reqs...)
			if err != nil {
				t.Fatal(err)
			}
			checkEnvelope(t, d, r.Polygon(), res, "rect")
		}
	}
}

// TestPlannerLevelSelection pins the planner's level arithmetic.
func TestPlannerLevelSelection(t *testing.T) {
	const blockLevel = 10
	d := genPyramidData(2000, 5)
	schema := geoblocks.NewSchema("val", "signed")
	b, err := geoblocks.NewBuilder(testBound, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRows(d.pts, d.cols); err != nil {
		t.Fatal(err)
	}
	blk, err := b.Build(blockLevel, nil)
	if err != nil {
		t.Fatal(err)
	}
	dom := cellid.MustDomain(testBound)

	// Without a pyramid every error bound resolves to the base level.
	if got := blk.LevelFor(1e9); got != blockLevel {
		t.Fatalf("LevelFor without pyramid = %d, want %d", got, blockLevel)
	}
	if err := blk.BuildPyramid(4); err != nil {
		t.Fatal(err)
	}
	if got := blk.PyramidLevels(); len(got) != 4 || got[0] != 9 || got[3] != 6 {
		t.Fatalf("PyramidLevels = %v", got)
	}
	if blk.PyramidBytes() <= 0 {
		t.Fatal("PyramidBytes = 0 with a pyramid built")
	}
	cases := []struct {
		maxError float64
		want     int
	}{
		{0, blockLevel},                           // exact
		{dom.CellDiagonal(blockLevel) / 2, 10},    // tighter than base: base
		{dom.CellDiagonal(9), 9},                  // exactly one level coarser
		{dom.CellDiagonal(8) * 1.01, 8},           // between levels: coarser one
		{dom.CellDiagonal(6), 6},                  // coarsest pyramid level
		{1e12, 6},                                 // beyond the pyramid: clamps
		{dom.CellDiagonal(9) * 0.999, blockLevel}, // just under level 9's diagonal
	}
	for _, tc := range cases {
		if got := blk.LevelFor(tc.maxError); got != tc.want {
			t.Errorf("LevelFor(%g) = %d, want %d", tc.maxError, got, tc.want)
		}
	}

	// AtLevel resolves base and pyramid levels, and nothing else.
	if lb, ok := blk.AtLevel(blockLevel); !ok || lb != blk {
		t.Fatal("AtLevel(base) did not return the block itself")
	}
	if lb, ok := blk.AtLevel(7); !ok || lb.Level() != 7 {
		t.Fatal("AtLevel(7) missing")
	}
	if _, ok := blk.AtLevel(5); ok {
		t.Fatal("AtLevel(5) exists below the pyramid")
	}
	if _, ok := blk.AtLevel(blockLevel + 1); ok {
		t.Fatal("AtLevel above the base level exists")
	}

	// BuildPyramid clamps at level 0 and BuildPyramid(0) removes.
	if err := blk.BuildPyramid(99); err != nil {
		t.Fatal(err)
	}
	if got := blk.PyramidLevels(); len(got) != blockLevel || got[len(got)-1] != 0 {
		t.Fatalf("clamped pyramid levels = %v", got)
	}
	if err := blk.BuildPyramid(0); err != nil {
		t.Fatal(err)
	}
	if len(blk.PyramidLevels()) != 0 {
		t.Fatal("BuildPyramid(0) left a pyramid behind")
	}
}

// TestQueryOptionsValidation pins the rejection of malformed options at
// both API layers.
func TestQueryOptionsValidation(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (geoblocks.QueryOptions{MaxError: bad}).Validate(); err == nil {
			t.Errorf("Validate accepted MaxError %v", bad)
		}
	}

	d := genPyramidData(500, 9)
	schema := geoblocks.NewSchema("val", "signed")
	ds, err := store.Build("t", testBound, schema, d.pts, d.cols, store.Options{Level: 8, PyramidLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	poly := geoblocks.RegularPolygon(geoblocks.Pt(50, 50), 10, 8)
	if _, err := ds.QueryOpts(poly, geoblocks.QueryOptions{MaxError: math.NaN()}, geoblocks.Count()); err == nil {
		t.Error("store QueryOpts accepted NaN MaxError")
	}
	if _, _, err := ds.Join([]*geom.Polygon{poly}, geoblocks.QueryOptions{MaxError: -2}, geoblocks.Count()); err == nil {
		t.Error("store Join accepted negative MaxError")
	}
}

// TestPyramidCacheAndUpdate pins cache propagation across pyramid levels
// and the pyramid rebuild on Update.
func TestPyramidCacheAndUpdate(t *testing.T) {
	const blockLevel = 8
	d := genPyramidData(3000, 13)
	schema := geoblocks.NewSchema("val", "signed")
	b, err := geoblocks.NewBuilder(testBound, schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRows(d.pts, d.cols); err != nil {
		t.Fatal(err)
	}
	blk, err := b.Build(blockLevel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := blk.EnableCache(0.5, 0); err != nil {
		t.Fatal(err)
	}
	if err := blk.BuildPyramid(3); err != nil {
		t.Fatal(err)
	}
	dom := cellid.MustDomain(testBound)
	poly := geoblocks.RegularPolygon(geoblocks.Pt(30, 60), 20, 10)
	coarse := geoblocks.QueryOptions{MaxError: dom.CellDiagonal(6)}

	before := blk.CacheMetrics().Probes
	if _, err := blk.QueryOpts(poly, coarse, geoblocks.Count()); err != nil {
		t.Fatal(err)
	}
	if blk.CacheMetrics().Probes == before {
		t.Fatal("approximate query did not probe the pyramid level's cache")
	}

	// Update must re-derive the pyramid so coarse answers see new tuples.
	exact0, err := blk.Query(poly, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	coarse0, err := blk.QueryOpts(poly, coarse, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate existing in-polygon points: they are guaranteed to land in
	// aggregated cells (no rebuild) and inside both levels' coverings, so
	// both counts must grow by exactly the batch size.
	batch := &geoblocks.UpdateBatch{Cols: [][]float64{nil, nil}}
	for i, p := range d.pts {
		if len(batch.Points) == 200 {
			break
		}
		if poly.ContainsPoint(p) {
			batch.Points = append(batch.Points, p)
			batch.Cols[0] = append(batch.Cols[0], d.cols[0][i])
			batch.Cols[1] = append(batch.Cols[1], d.cols[1][i])
		}
	}
	n := len(batch.Points)
	if n == 0 {
		t.Fatal("no in-polygon points to update with")
	}
	if err := blk.Update(batch); err != nil {
		t.Fatal(err)
	}
	exact1, err := blk.Query(poly, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	coarse1, err := blk.QueryOpts(poly, coarse, geoblocks.Count())
	if err != nil {
		t.Fatal(err)
	}
	if exact1.Count != exact0.Count+uint64(n) {
		t.Fatalf("exact count after update = %d, want %d", exact1.Count, exact0.Count+uint64(n))
	}
	if coarse1.Count != coarse0.Count+uint64(n) {
		t.Fatalf("coarse count after update = %d, want %d (stale pyramid?)", coarse1.Count, coarse0.Count+uint64(n))
	}

	// DisableCache reaches the pyramid levels too.
	blk.DisableCache()
	if blk.CacheSizeBytes() != 0 {
		t.Fatal("DisableCache left pyramid cache arenas")
	}
	probes := blk.CacheMetrics().Probes
	if _, err := blk.QueryOpts(poly, coarse, geoblocks.Count()); err != nil {
		t.Fatal(err)
	}
	if blk.CacheMetrics().Probes != probes {
		t.Fatal("query probed a disabled cache")
	}
}

// TestSnapshotRestoresPyramid pins that a snapshot round-trip re-derives
// the pyramid from the recorded configuration: planned levels, stats and
// approximate answers survive a restore bit-identically.
func TestSnapshotRestoresPyramid(t *testing.T) {
	d := genPyramidData(4000, 21)
	schema := geoblocks.NewSchema("val", "signed")
	ds, err := store.Build("pyr", testBound, schema, d.pts, d.cols,
		store.Options{Level: 11, ShardLevel: 1, PyramidLevels: 5, CacheThreshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/snap"
	if _, err := ds.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	rd, err := store.Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rd.Stats().PyramidLevels, 5; got != want {
		t.Fatalf("restored pyramid levels = %d, want %d", got, want)
	}
	if rd.Stats().PyramidBytes != ds.Stats().PyramidBytes {
		t.Fatalf("restored pyramid bytes = %d, want %d", rd.Stats().PyramidBytes, ds.Stats().PyramidBytes)
	}
	dom := cellid.MustDomain(testBound)
	reqs := []geoblocks.AggRequest{geoblocks.Count(), geoblocks.Sum("val")}
	for _, me := range []float64{0, dom.CellDiagonal(9), dom.CellDiagonal(7)} {
		opts := geoblocks.QueryOptions{MaxError: me}
		for _, poly := range testPolys(t, 23)[:5] {
			want, err := ds.QueryOpts(poly, opts, reqs...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rd.QueryOpts(poly, opts, reqs...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) || got.Level != want.Level || got.ErrorBound != want.ErrorBound {
				t.Fatalf("restored answer differs at max_error %g: %+v vs %+v", me, got, want)
			}
		}
	}
}
