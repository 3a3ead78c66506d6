package store

import (
	"encoding/binary"
	"math"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
	"geoblocks/internal/resultcache"
)

// This file is the approximate geospatial join operator: K polygons,
// per-polygon aggregates, one pass over the dataset. The plan is shared
// — one pyramid level for the whole join, one shared-grid covering pass
// (cover.CoverShared) classifying (polygon, grid cell) pairs interior or
// boundary — and the execution fans out per *shard*, not per polygon:
// each involved shard runs the multi-accumulator kernel
// (SelectCoveringMulti) once over all polygons routed to it, then
// per-polygon partials merge in ascending shard order, base before
// delta, exactly the order the sequential Query path uses. Answers are
// therefore bit-identical to N sequential Query calls for COUNT/MIN/MAX
// (and on the uncached path for SUM too — the multi kernel combines
// each polygon's ranges in the same sequence); SUM stays within the
// documented reassociation bound whenever the sequential path
// re-associates (per-shard block caches). join_test.go pins the
// equivalence with a randomized property suite.

// JoinStats describes one join call: the shared plan's shape and the
// classification economy (interior pairs cost zero geometry tests).
type JoinStats struct {
	// Polygons is the number of join inputs.
	Polygons int `json:"polygons"`
	// UniquePolygons is the number of distinct join inputs after exact
	// content deduplication. Fan-in requests repeat geometries (dashboard
	// tiles over a hot tract set); repeats are answered once and the
	// result replicated, which is exact because the pipeline is
	// deterministic.
	UniquePolygons int `json:"unique_polygons"`
	// Level is the pyramid level the join was planned at.
	Level int `json:"level"`
	// GridLevel is the shared coarse grid's level (0 when every input
	// was served from the result cache).
	GridLevel int `json:"grid_level"`
	// InteriorPairs / BoundaryPairs count (polygon, grid cell)
	// classifications: interior pairs were answered wholesale from the
	// grid cell with no boundary refinement.
	InteriorPairs int `json:"interior_pairs"`
	BoundaryPairs int `json:"boundary_pairs"`
	// Fallbacks counts polygons covered by the single-region coverer
	// (oversized coverings near the cell budget).
	Fallbacks int `json:"fallbacks"`
	// CacheHits / CacheMisses count per-polygon result-cache outcomes
	// (both zero when the dataset has no result cache or the options
	// bypass it).
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
}

// InteriorFraction returns the share of classified pairs that were
// interior — the join metric served at /metrics.
func (s JoinStats) InteriorFraction() float64 {
	total := s.InteriorPairs + s.BoundaryPairs
	if total == 0 {
		return 0
	}
	return float64(s.InteriorPairs) / float64(total)
}

// Join answers one aggregate query per polygon in a single pass: plan
// once, cover against the shared grid, fan out per shard through the
// multi-accumulator kernel, merge per-polygon partials in shard order.
// Results align positionally with polys. opts.MaxError plans the shared
// level and opts.DisableCache bypasses the result cache.
func (d *Dataset) Join(polys []*geom.Polygon, opts geoblocks.QueryOptions, reqs ...geoblocks.AggRequest) ([]geoblocks.Result, JoinStats, error) {
	// Deduplicate repeated polygons by exact ring content: each distinct
	// geometry is planned, covered and aggregated once, and its result is
	// replicated to every occurrence — identical to querying each
	// occurrence independently, because the whole pipeline is
	// deterministic in the polygon's content.
	uniq := make([]*geom.Polygon, 0, len(polys))
	back := make([]int, len(polys))
	seen := make(map[string]int, len(polys))
	for i, p := range polys {
		k := polygonContentKey(p)
		if j, ok := seen[k]; ok {
			back[i] = j
			continue
		}
		seen[k] = len(uniq)
		back[i] = len(uniq)
		uniq = append(uniq, p)
	}
	regions := make([]cover.Region, len(uniq))
	for i, p := range uniq {
		regions[i] = p
	}
	res, stats, err := d.join(regions, len(polys), opts, reqs, func(i, lvl int, tag string) resultcache.Key {
		return resultcache.PolygonKey(uniq[i], lvl, opts.MaxError, tag)
	})
	if err != nil || len(uniq) == len(polys) {
		return res, stats, err
	}
	out := make([]geoblocks.Result, len(polys))
	for i, j := range back {
		out[i] = res[j]
	}
	return out, stats, nil
}

// polygonContentKey is an exact byte-string of the polygon's rings, used
// to recognise repeated polygons within one join request. Unlike the
// result cache's hashed key, equality here is exact, so deduplication
// can never alias two distinct polygons.
func polygonContentKey(p *geom.Polygon) string {
	n := len(p.Outer()) * 16
	for _, h := range p.Holes() {
		n += len(h)*16 + 1
	}
	b := make([]byte, 0, n)
	for _, v := range p.Outer() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Y))
	}
	for _, h := range p.Holes() {
		b = append(b, 0xb1) // ring separator
		for _, v := range h {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.X))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Y))
		}
	}
	return string(b)
}

// JoinRects is Join over rectangles — the window/grid fast path (a batch
// of map tiles or a rect-grid aggregation window).
func (d *Dataset) JoinRects(rects []geom.Rect, opts geoblocks.QueryOptions, reqs ...geoblocks.AggRequest) ([]geoblocks.Result, JoinStats, error) {
	regions := make([]cover.Region, len(rects))
	for i, r := range rects {
		regions[i] = cover.RectRegion(r)
	}
	return d.join(regions, len(rects), opts, reqs, func(i, lvl int, tag string) resultcache.Key {
		return resultcache.RectKey(rects[i], lvl, opts.MaxError, tag)
	})
}

// PlanJoin plans a join for the cluster coordinator: one shared pyramid
// level, one shared-grid covering pass, one Plan per polygon. Every
// replica holding the same build derives the identical plans, so a
// coordinator can scatter each polygon's sub-coverings through the
// existing partial wire and inherit the single-node merge contract.
func (d *Dataset) PlanJoin(polys []*geom.Polygon, maxError float64) ([]Plan, JoinStats) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	lvl := d.PlanLevel(maxError)
	c := d.covererAt(lvl)
	regions := make([]cover.Region, len(polys))
	for i, p := range polys {
		regions[i] = p
	}
	sc := c.CoverShared(regions)
	plans := make([]Plan, len(polys))
	for i := range polys {
		plans[i] = Plan{Level: lvl, Cover: sc.Covers[i].Cells, ErrorBound: sc.Bounds[i]}
	}
	stats := JoinStats{
		Polygons:       len(polys),
		UniquePolygons: len(polys),
		Level:          lvl,
		GridLevel:      sc.GridLevel,
		InteriorPairs:  sc.InteriorPairs,
		BoundaryPairs:  sc.BoundaryPairs,
		Fallbacks:      sc.Fallbacks,
	}
	d.noteJoin(stats)
	return plans, stats
}

// noteJoin folds one join's stats into the dataset's cumulative
// counters.
func (d *Dataset) noteJoin(s JoinStats) {
	d.joins.Add(1)
	d.joinPolygons.Add(uint64(s.Polygons))
	d.joinInterior.Add(uint64(s.InteriorPairs))
	d.joinBoundary.Add(uint64(s.BoundaryPairs))
	d.joinFallbacks.Add(uint64(s.Fallbacks))
	d.joinCacheHits.Add(uint64(s.CacheHits))
	d.joinCacheMisses.Add(uint64(s.CacheMisses))
}

func (d *Dataset) join(regions []cover.Region, total int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest, keyAt func(i, lvl int, tag string) resultcache.Key) ([]geoblocks.Result, JoinStats, error) {
	if err := opts.Validate(); err != nil {
		return nil, JoinStats{}, err
	}
	d.queries.Add(uint64(total))
	d.mu.RLock()
	defer d.mu.RUnlock()

	lvl := d.PlanLevel(opts.MaxError)
	stats := JoinStats{Polygons: total, UniquePolygons: len(regions), Level: lvl}
	results := make([]geoblocks.Result, len(regions))
	covs := make([][]cellid.ID, len(regions))
	bounds := make([]float64, len(regions))
	served := make([]bool, len(regions)) // result-cache hits, already final

	// Per-polygon result-cache resolution: hits are final, memoized
	// coverings skip classification, cold misses go through the shared
	// grid. Hit/miss counters bump per element inside Lookup.
	useCache := d.results != nil && !opts.DisableCache
	var gen uint64
	var tag string
	var keys []resultcache.Key
	toCover := make([]int, 0, len(regions))
	if useCache {
		tag = aggsTag(reqs)
		gen = d.results.Generation()
		keys = make([]resultcache.Key, len(regions))
		for i := range regions {
			keys[i] = keyAt(i, lvl, tag)
			res, cells, bound, outcome := d.results.Lookup(keys[i], gen)
			switch outcome {
			case resultcache.Hit:
				results[i] = res
				served[i] = true
				stats.CacheHits++
			case resultcache.MissCovered:
				covs[i], bounds[i] = cells, bound
				stats.CacheMisses++
			default:
				toCover = append(toCover, i)
				stats.CacheMisses++
			}
		}
	} else {
		for i := range regions {
			toCover = append(toCover, i)
		}
	}

	// One shared-grid pass covers every polygon that still needs a
	// covering; each result is identical to the single-region Cover, so
	// cached coverings and shared-grid coverings are interchangeable.
	if len(toCover) > 0 {
		c := d.covererAt(lvl)
		sub := make([]cover.Region, len(toCover))
		for j, i := range toCover {
			sub[j] = regions[i]
		}
		sc := c.CoverShared(sub)
		stats.GridLevel = sc.GridLevel
		stats.InteriorPairs = sc.InteriorPairs
		stats.BoundaryPairs = sc.BoundaryPairs
		stats.Fallbacks = sc.Fallbacks
		for j, i := range toCover {
			covs[i], bounds[i] = sc.Covers[j].Cells, sc.Bounds[j]
		}
	}

	// Shard fan-out: walk the shards in ascending cell order once; each
	// shard answers every polygon routed to it in one multi-kernel pass
	// (base), then per-polygon delta partials merge base-then-delta.
	// Accumulating in shard order as we go reproduces the sequential
	// query's merge tree exactly.
	totals := make([]*geoblocks.Accumulator, len(regions))
	for si := range d.shards {
		sh := &d.shards[si]
		var idx []int
		var subs [][]cellid.ID
		for i := range regions {
			if served[i] {
				continue
			}
			if sub := geoblocks.SplitCovering(covs[i], sh.cell); len(sub) > 0 {
				idx = append(idx, i)
				subs = append(subs, sub)
			}
		}
		if len(idx) == 0 {
			continue
		}
		blk, release, err := sh.acquire()
		if err != nil {
			return nil, stats, err
		}
		accs, err := levelBlock(blk, lvl).QueryCoveringMultiPartial(subs, reqs...)
		if err != nil {
			release()
			return nil, stats, err
		}
		if sh.delta != nil {
			if leaves, cols := sh.delta.view(); len(leaves) > 0 {
				for j := range idx {
					dacc, err := blk.QueryRowsPartial(subs[j], leaves, cols, reqs...)
					if err != nil {
						release()
						return nil, stats, err
					}
					if err := accs[j].MergeFrom(dacc); err != nil {
						release()
						return nil, stats, err
					}
				}
			}
		}
		release()
		for j, i := range idx {
			if totals[i] == nil {
				totals[i] = accs[j]
				continue
			}
			if err := totals[i].MergeFrom(accs[j]); err != nil {
				return nil, stats, err
			}
		}
	}

	// Finalise: routed polygons from their merged partials, unrouted
	// ones from the identity partial (zero count, NaN extrema).
	var identity *geoblocks.Accumulator
	for i := range regions {
		if served[i] {
			continue
		}
		acc := totals[i]
		if acc == nil {
			if identity == nil {
				var err error
				identity, err = shardPartial(&d.shards[0], nil, lvl, opts, reqs)
				if err != nil {
					return nil, stats, err
				}
			}
			acc = identity
		}
		res := acc.Result()
		res.Level = lvl
		res.ErrorBound = bounds[i]
		results[i] = res
		if useCache {
			d.results.Store(keys[i], covs[i], bounds[i], res, gen)
		}
	}
	d.noteJoin(stats)
	return results, stats, nil
}
