package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"geoblocks"
	"geoblocks/internal/cellid"
	"geoblocks/internal/core"
	"geoblocks/internal/cover"
	"geoblocks/internal/geom"
	"geoblocks/internal/resultcache"
	"geoblocks/internal/snapshot"
)

// MaxShardLevel bounds the shard prefix level: level 6 already yields up
// to 4096 shards, far beyond what a single process usefully fans out to.
const MaxShardLevel = 6

// Options configure a dataset build.
type Options struct {
	// Level is the block grid level of every shard (the spatial error
	// bound, as for a single GeoBlock).
	Level int
	// ShardLevel is the cell level of the spatial partition: each
	// non-empty cell at this level becomes one shard. 0 builds a single
	// unsharded block. Must not exceed Level (a shard must be at least
	// one grid cell) nor MaxShardLevel.
	ShardLevel int
	// CacheThreshold, when positive, enables a per-shard query cache with
	// that aggregate-threshold budget fraction (geoblocks.EnableCache).
	CacheThreshold float64
	// CacheAutoRefresh is the per-shard auto-refresh cadence in queries
	// (0 = manual refresh), forwarded to EnableCache.
	CacheAutoRefresh int
	// PyramidLevels is the number of coarser pyramid levels each shard
	// derives below the block level (geoblocks.BuildPyramid): the levels
	// the query planner can answer error-bounded queries at. 0 disables
	// the pyramid — every query answers at full resolution.
	PyramidLevels int
	// Clean overrides the extract phase's outlier rule. Nil keeps the
	// builder default (drop points outside the dataset bound).
	Clean *core.CleanRule
	// ResultCacheBytes, when positive, enables the dataset-level result
	// cache (internal/resultcache) with that byte budget: repeated
	// queries over hot regions are answered from their canonical
	// footprint instead of re-running covering, fan-out and merge.
	ResultCacheBytes int64
	// ResultCacheMinHits is the result cache's admission floor: how often
	// a query footprint must repeat before its result is cached. 0 admits
	// on first miss. Ignored unless ResultCacheBytes is positive.
	ResultCacheMinHits int
	// DeltaMaxRows caps the dataset's pending (unfolded) ingest delta
	// rows: an ingest that would exceed it is rejected with
	// ErrBackpressure, and half the cap kicks the background compactor.
	// 0 disables the cap. Runtime-only — not persisted in snapshots; the
	// daemon re-applies its flag on restore.
	DeltaMaxRows int64
}

func (o Options) validate() error {
	if o.Level < 0 || o.Level > geoblocks.MaxLevel {
		return fmt.Errorf("store: block level %d out of range [0,%d]", o.Level, geoblocks.MaxLevel)
	}
	if o.ShardLevel < 0 || o.ShardLevel > MaxShardLevel {
		return fmt.Errorf("store: shard level %d out of range [0,%d]", o.ShardLevel, MaxShardLevel)
	}
	if o.ShardLevel > o.Level {
		return fmt.Errorf("store: shard level %d exceeds block level %d", o.ShardLevel, o.Level)
	}
	if o.CacheThreshold < 0 {
		return fmt.Errorf("store: cache threshold must be >= 0, got %v", o.CacheThreshold)
	}
	if o.PyramidLevels < 0 {
		return fmt.Errorf("store: pyramid levels must be >= 0, got %d", o.PyramidLevels)
	}
	if o.ResultCacheBytes < 0 {
		return fmt.Errorf("store: result cache bytes must be >= 0, got %d", o.ResultCacheBytes)
	}
	if o.ResultCacheMinHits < 0 {
		return fmt.Errorf("store: result cache min hits must be >= 0, got %d", o.ResultCacheMinHits)
	}
	if o.DeltaMaxRows < 0 {
		return fmt.Errorf("store: delta max rows must be >= 0, got %d", o.DeltaMaxRows)
	}
	return nil
}

// shard is one spatial partition: the cell at the shard level whose leaf
// range the shard owns, and the GeoBlock holding exactly that range's
// rows. Shards are sorted by cell, i.e. by the contiguous, disjoint
// cell-id ranges they own.
//
// An eagerly-restored (or built) shard holds its block directly. A shard
// of a mapped dataset (OpenMapped) holds a lazyShard instead: the block
// materialises from the snapshot file on first query and may be evicted
// by the residency manager, so all access goes through acquire.
type shard struct {
	cell  cellid.ID
	block *geoblocks.GeoBlock
	lazy  *lazyShard
	// delta is the shard's mutable ingest tail (ingest.go), merged after
	// the base on every query and folded into a replacement base block by
	// compaction. Nil on mapped (read-only) datasets.
	delta *delta
}

// noopRelease is the release func of eagerly-held blocks, shared to keep
// the hot path allocation-free.
var noopRelease = func() {}

// acquire returns the shard's block pinned for the duration of one
// query; the caller must invoke the release func when done with it.
// Eager shards return their block directly; lazy shards fault it in (or
// wait out a concurrent fault) via the residency manager — this is where
// a data-region corruption deferred by the lazy open surfaces, as a
// typed query-time error.
func (sh *shard) acquire() (*geoblocks.GeoBlock, func(), error) {
	if sh.lazy == nil {
		return sh.block, noopRelease, nil
	}
	return sh.lazy.acquire()
}

// Dataset is one named, spatially sharded dataset: a set of GeoBlocks over
// a common domain, partitioned by top-level cell prefix, plus the coverer
// shared by all queries. Queries, snapshots and stats may run from any
// number of goroutines; Update (and the other structural mutations) are
// serialised against them by the dataset's reader/writer lock, so live
// serving keeps working through a data mutation.
type Dataset struct {
	name    string
	opts    Options
	dom     cellid.Domain
	schema  geoblocks.Schema
	coverer *cover.Coverer
	shards  []shard

	// srcDir is the absolute snapshot directory a mapped dataset serves
	// from ("" for built / eagerly-restored datasets). Snapshotting a
	// mapped dataset clones this directory byte for byte instead of
	// faulting every shard in to re-encode it.
	srcDir string
	// residency is the manager budgeting this dataset's materialised
	// shards; nil for eager datasets. Non-nil also marks the dataset
	// read-only (Update is rejected — the aggregate arrays are views of
	// a read-only mapping).
	residency *Residency
	// restored marks a dataset loaded from a snapshot (Open/OpenMapped)
	// rather than built fresh: only restored datasets may replay an
	// existing WAL (store.attachIngest) — a fresh build of the same name
	// supersedes any stale log.
	restored bool

	// mu orders queries (read side) against structural mutations —
	// Update, EnableResultCache, RefreshCaches (write side). The shard
	// slice itself never changes; the lock protects the block internals
	// the mutations patch.
	mu sync.RWMutex

	// coverers holds one coverer per servable grid level — the block level
	// plus every pyramid level — so the router computes each planned
	// query's covering at the level the shards will execute it at. Built
	// once at Build/Open time, read-only afterwards.
	coverers map[int]*cover.Coverer

	// results is the dataset-level result cache, nil when disabled. It
	// fronts the router: hot repeated queries are served from their
	// canonical footprint, verified against the cache's generation
	// counter (bumped by Update/Drop — see Invalidate).
	results *resultcache.Cache

	// queries counts routed queries (each join region counts once).
	queries atomic.Uint64

	// Streaming write path (ingest.go, compact.go). ingestMu serialises
	// batch application so per-shard delta rows land in sequence order —
	// a length prefix is then a consistent cut; compactMu serialises
	// folds against each other and against Update (which mutates base
	// arrays in place — a fold racing it would discard the mutation at
	// swap time). Lock order: compactMu → d.mu → ingestMu.
	ingestMu  sync.Mutex
	compactMu sync.Mutex
	// wal is the attached write-ahead log, nil until EnableWAL. Guarded
	// by d.mu for attach/detach; the WAL serialises its own appends.
	wal *snapshot.WAL
	// ingestSeq is the highest acknowledged batch sequence; foldedSeq the
	// highest sequence folded into the base blocks. foldedSeq advances
	// only under d.mu write lock (the fold swap), so a read-locked holder
	// sees it consistent with the blocks.
	ingestSeq atomic.Uint64
	foldedSeq atomic.Uint64
	// deltaRows tracks pending rows across all shard deltas, against the
	// deltaMaxRows backpressure cap.
	deltaRows    atomic.Int64
	deltaMaxRows atomic.Int64
	// assignEpoch is the cluster assignment epoch this dataset last
	// served under (0 outside cluster mode). Stamped by the store when a
	// coordinator loads or reloads its assignment, persisted in the
	// snapshot manifest for operator forensics.
	assignEpoch atomic.Uint64
	// compactKick, when set, nudges the attached background compactor.
	compactKick atomic.Pointer[func()]

	ingestBatches     atomic.Uint64
	ingestRowsTotal   atomic.Uint64
	replayedRows      atomic.Uint64
	backpressured     atomic.Uint64
	compactions       atomic.Uint64
	compactedRows     atomic.Uint64
	lastCompactMicros atomic.Int64

	// Join counters (join.go): cumulative over every Join/JoinRects/
	// PlanJoin call, surfaced in DatasetStats and at /metrics.
	joins           atomic.Uint64
	joinPolygons    atomic.Uint64
	joinInterior    atomic.Uint64
	joinBoundary    atomic.Uint64
	joinFallbacks   atomic.Uint64
	joinCacheHits   atomic.Uint64
	joinCacheMisses atomic.Uint64
}

// Build partitions the raw rows by shard-level cell prefix and builds one
// GeoBlock per non-empty shard, all over the same domain so cell ids and
// coverings are comparable across shards. Rows outside bound are dropped
// by the extract phase of the shard they clamp into (or by opts.Clean).
// A dataset with no surviving rows still gets one empty shard so queries
// resolve and return identity results.
func Build(name string, bound geom.Rect, schema geoblocks.Schema, pts []geom.Point, cols [][]float64, opts Options) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("store: dataset name must not be empty")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	dom, err := cellid.NewDomain(bound)
	if err != nil {
		return nil, err
	}
	cov, err := cover.NewCoverer(dom, cover.DefaultOptions(opts.Level))
	if err != nil {
		return nil, err
	}
	if len(cols) != schema.NumCols() {
		return nil, fmt.Errorf("store: got %d columns, schema has %d", len(cols), schema.NumCols())
	}
	for c := range cols {
		if len(cols[c]) != len(pts) {
			return nil, fmt.Errorf("store: column %d has %d rows, want %d", c, len(cols[c]), len(pts))
		}
	}

	// Partition row indices by shard cell. Points outside the bound clamp
	// into an edge shard and are dropped there by the clean rule.
	byCell := make(map[cellid.ID][]int)
	for i, p := range pts {
		cell := dom.CellAt(p, opts.ShardLevel)
		byCell[cell] = append(byCell[cell], i)
	}
	cells := make([]cellid.ID, 0, len(byCell))
	for cell := range byCell {
		cells = append(cells, cell)
	}
	if len(cells) == 0 {
		// Keep one empty shard so queries can resolve aggregate specs.
		cells = append(cells, cellid.Begin(opts.ShardLevel))
	}
	slices.Sort(cells)

	d := &Dataset{
		name:    name,
		opts:    opts,
		dom:     dom,
		schema:  schema,
		coverer: cov,
		shards:  make([]shard, 0, len(cells)),
	}
	rowPts := make([]geom.Point, 0)
	rowCols := make([][]float64, schema.NumCols())
	for _, cell := range cells {
		idxs := byCell[cell]
		rowPts = rowPts[:0]
		for c := range rowCols {
			rowCols[c] = rowCols[c][:0]
		}
		for _, i := range idxs {
			rowPts = append(rowPts, pts[i])
			for c := range rowCols {
				rowCols[c] = append(rowCols[c], cols[c][i])
			}
		}
		b, err := geoblocks.NewBuilder(bound, schema)
		if err != nil {
			return nil, err
		}
		if opts.Clean != nil {
			b.SetCleanRule(*opts.Clean)
		}
		if err := b.AddRows(rowPts, rowCols); err != nil {
			return nil, err
		}
		blk, err := b.Build(opts.Level, nil)
		if err != nil {
			return nil, fmt.Errorf("store: building shard %v: %w", cell, err)
		}
		if opts.CacheThreshold > 0 {
			if err := blk.EnableCache(opts.CacheThreshold, opts.CacheAutoRefresh); err != nil {
				return nil, err
			}
		}
		if err := blk.BuildPyramid(opts.PyramidLevels); err != nil {
			return nil, fmt.Errorf("store: pyramid of shard %v: %w", cell, err)
		}
		d.shards = append(d.shards, shard{cell: cell, block: blk, delta: newDelta(schema.NumCols())})
	}
	d.deltaMaxRows.Store(opts.DeltaMaxRows)
	if err := d.initCoverers(); err != nil {
		return nil, err
	}
	if err := d.initResultCache(); err != nil {
		return nil, err
	}
	return d, nil
}

// initResultCache creates the dataset-level result cache when the options
// ask for one.
func (d *Dataset) initResultCache() error {
	if d.opts.ResultCacheBytes <= 0 {
		d.results = nil
		return nil
	}
	rc, err := resultcache.New(resultcache.Config{
		Dataset:  d.name,
		MaxBytes: d.opts.ResultCacheBytes,
		MinHits:  d.opts.ResultCacheMinHits,
	})
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	d.results = rc
	return nil
}

// initCoverers builds one coverer per servable grid level: the block
// level (reusing the dataset coverer) plus each pyramid level of the
// shards. Every shard is built with the same Options, so shard 0's
// pyramid describes them all.
func (d *Dataset) initCoverers() error {
	d.coverers = map[int]*cover.Coverer{d.opts.Level: d.coverer}
	for _, lvl := range d.pyramidLevelList() {
		c, err := cover.NewCoverer(d.dom, cover.DefaultOptions(lvl))
		if err != nil {
			return err
		}
		d.coverers[lvl] = c
	}
	return nil
}

// pyramidLevelList returns the pyramid levels every shard serves,
// finest first. Eager datasets read shard 0's materialised pyramid;
// mapped datasets must not fault a shard in just to plan, so they
// derive the same list from the options — mirroring BuildPyramid's
// loop: levels base−1, base−2, …, down to max(0, base−PyramidLevels).
func (d *Dataset) pyramidLevelList() []int {
	if sh := &d.shards[0]; sh.lazy == nil {
		return sh.block.PyramidLevels()
	}
	var lvls []int
	for lvl := d.opts.Level - 1; lvl >= 0 && len(lvls) < d.opts.PyramidLevels; lvl-- {
		lvls = append(lvls, lvl)
	}
	return lvls
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Schema returns the dataset's value-column schema.
func (d *Dataset) Schema() geoblocks.Schema { return d.schema }

// Bound returns the dataset's spatial domain bound.
func (d *Dataset) Bound() geom.Rect { return d.dom.Bound() }

// Level returns the block grid level of the shards.
func (d *Dataset) Level() int { return d.opts.Level }

// ShardLevel returns the cell level of the spatial partition.
func (d *Dataset) ShardLevel() int { return d.opts.ShardLevel }

// NumShards returns the number of shards.
func (d *Dataset) NumShards() int { return len(d.shards) }

// Cover computes the dataset-level cell covering of a polygon — computed
// once per query and split across shards by the router.
func (d *Dataset) Cover(poly *geom.Polygon) []cellid.ID {
	return d.coverer.Cover(poly).Cells
}

// CoverRect computes the covering of a rectangle.
func (d *Dataset) CoverRect(r geom.Rect) []cellid.ID {
	return d.coverer.CoverRect(r).Cells
}

// PlanLevel returns the grid level the dataset's query planner answers at
// for the given error bound: the coarsest shard pyramid level whose cell
// diagonal does not exceed maxError, or the block level. Every shard
// shares one pyramid configuration, so shard 0 decides for the dataset —
// by its materialised pyramid when eager, and by the equivalent
// arithmetic over the options when mapped (planning must never fault a
// shard in; equality with GeoBlock.LevelFor is pinned by test).
func (d *Dataset) PlanLevel(maxError float64) int {
	if sh := &d.shards[0]; sh.lazy == nil {
		return sh.block.LevelFor(maxError)
	}
	if maxError <= 0 || d.opts.PyramidLevels <= 0 {
		return d.opts.Level
	}
	want := d.dom.LevelForMaxDiagonal(maxError)
	if want >= d.opts.Level {
		return d.opts.Level
	}
	lowest := d.opts.Level - d.opts.PyramidLevels
	if lowest < 0 {
		lowest = 0
	}
	return max(want, lowest)
}

// covererAt returns the coverer of a servable level (the dataset coverer
// for the block level).
func (d *Dataset) covererAt(lvl int) *cover.Coverer {
	if c, ok := d.coverers[lvl]; ok {
		return c
	}
	return d.coverer
}

// Query answers a SELECT aggregate query over a polygon: one covering,
// split across shards, merged partials.
func (d *Dataset) Query(poly *geom.Polygon, reqs ...geoblocks.AggRequest) (geoblocks.Result, error) {
	return d.QueryOpts(poly, geoblocks.QueryOptions{}, reqs...)
}

// QueryRect answers a SELECT aggregate query over a rectangle.
func (d *Dataset) QueryRect(r geom.Rect, reqs ...geoblocks.AggRequest) (geoblocks.Result, error) {
	return d.QueryRectOpts(r, geoblocks.QueryOptions{}, reqs...)
}

// QueryOpts answers a SELECT aggregate query over a polygon through the
// query planner: the router resolves the pyramid level admitted by
// opts.MaxError once, computes one covering at that level, splits it
// across the shards and merges the per-shard partials executed against
// each shard's pyramid block. The result reports the level answered at
// and the guaranteed error bound of the covering (paper Sec. 3.4); zero
// options reproduce the exact path bit for bit.
func (d *Dataset) QueryOpts(poly *geom.Polygon, opts geoblocks.QueryOptions, reqs ...geoblocks.AggRequest) (geoblocks.Result, error) {
	if err := opts.Validate(); err != nil {
		return geoblocks.Result{}, err
	}
	d.queries.Add(1)
	d.mu.RLock()
	defer d.mu.RUnlock()
	lvl := d.PlanLevel(opts.MaxError)
	if d.results != nil && !opts.DisableCache {
		key := resultcache.PolygonKey(poly, lvl, opts.MaxError, aggsTag(reqs))
		return d.queryCached(key, lvl, opts, reqs, func(c *cover.Coverer) *cover.Covering {
			return c.Cover(poly)
		})
	}
	c := d.covererAt(lvl)
	cov := c.Cover(poly)
	res, err := d.queryCovering(cov.Cells, lvl, opts, reqs)
	if err != nil {
		return geoblocks.Result{}, err
	}
	res.Level = lvl
	res.ErrorBound = c.GuaranteedErrorDistance(cov)
	return res, nil
}

// QueryRectOpts is QueryOpts over a rectangle.
func (d *Dataset) QueryRectOpts(r geom.Rect, opts geoblocks.QueryOptions, reqs ...geoblocks.AggRequest) (geoblocks.Result, error) {
	if err := opts.Validate(); err != nil {
		return geoblocks.Result{}, err
	}
	d.queries.Add(1)
	d.mu.RLock()
	defer d.mu.RUnlock()
	lvl := d.PlanLevel(opts.MaxError)
	if d.results != nil && !opts.DisableCache {
		key := resultcache.RectKey(r, lvl, opts.MaxError, aggsTag(reqs))
		return d.queryCached(key, lvl, opts, reqs, func(c *cover.Coverer) *cover.Covering {
			return c.CoverRect(r)
		})
	}
	c := d.covererAt(lvl)
	cov := c.CoverRect(r)
	res, err := d.queryCovering(cov.Cells, lvl, opts, reqs)
	if err != nil {
		return geoblocks.Result{}, err
	}
	res.Level = lvl
	res.ErrorBound = c.GuaranteedErrorDistance(cov)
	return res, nil
}

// aggsTag is the canonical aggregate-spec component of a query footprint:
// the requests' canonical spellings joined in request order (order is
// semantic — results are positional).
func aggsTag(reqs []geoblocks.AggRequest) string {
	switch len(reqs) {
	case 0:
		return ""
	case 1:
		return reqs[0].String()
	}
	n := len(reqs) - 1
	for _, r := range reqs {
		n += len(r.String())
	}
	b := make([]byte, 0, n)
	for i, r := range reqs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r.String()...)
	}
	return string(b)
}

// queryCached is the result-cache-fronted query path, called with the
// dataset read lock held. On a hit the cached result is returned without
// touching the router; on a covered miss (the region's covering is
// memoized but the result is missing or from an older generation) only
// the scatter-gather re-runs; on a cold miss the covering is computed
// via coverFn and offered to the cache along with the result. The cached
// ErrorBound and Level are data-independent — both derive from the
// covering alone — so replaying them after an invalidation is exact.
func (d *Dataset) queryCached(key resultcache.Key, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest, coverFn func(*cover.Coverer) *cover.Covering) (geoblocks.Result, error) {
	gen := d.results.Generation()
	res, cells, bound, outcome := d.results.Lookup(key, gen)
	switch outcome {
	case resultcache.Hit:
		return res, nil
	case resultcache.MissCovered:
		res, err := d.queryCovering(cells, lvl, opts, reqs)
		if err != nil {
			return geoblocks.Result{}, err
		}
		res.Level = lvl
		res.ErrorBound = bound
		d.results.Store(key, cells, bound, res, gen)
		return res, nil
	}
	c := d.covererAt(lvl)
	cov := coverFn(c)
	res, err := d.queryCovering(cov.Cells, lvl, opts, reqs)
	if err != nil {
		return geoblocks.Result{}, err
	}
	res.Level = lvl
	res.ErrorBound = c.GuaranteedErrorDistance(cov)
	d.results.Store(key, cov.Cells, res.ErrorBound, res, gen)
	return res, nil
}

// QueryCovering answers a SELECT query over a pre-computed covering
// (ascending, disjoint, no cells finer than the block level). The
// covering fixes the grid level — it executes at full resolution with a
// conservative reported bound (diagonal of its coarsest cell). Shards
// whose range the covering misses are never touched; multi-shard queries
// fan out one goroutine per involved shard and merge the partial
// accumulators in shard order (COUNT/MIN/MAX bit-identical to an
// unsharded block, SUM/AVG up to floating-point reassociation — see the
// package comment).
func (d *Dataset) QueryCovering(cov []cellid.ID, reqs ...geoblocks.AggRequest) (geoblocks.Result, error) {
	d.queries.Add(1)
	d.mu.RLock()
	defer d.mu.RUnlock()
	res, err := d.queryCovering(cov, d.opts.Level, geoblocks.QueryOptions{}, reqs)
	if err != nil {
		return geoblocks.Result{}, err
	}
	res.Level = d.opts.Level
	res.ErrorBound = d.coveringBound(cov)
	return res, nil
}

// coveringBound is the conservative guaranteed bound of a bare cell
// list: the diagonal of its coarsest cell, 0 for an empty covering.
func (d *Dataset) coveringBound(cov []cellid.ID) float64 {
	return d.dom.MaxDiagonal(cov)
}

// queryPart is one routed unit: a shard and the sub-covering it answers.
type queryPart struct {
	shard *shard
	sub   []cellid.ID
}

// route splits the covering across the shards it intersects. Shards are
// sorted by their disjoint cell ranges and the covering spans
// [cov[0].RangeMin(), cov[last].RangeMax()], so a binary search bounds
// the candidate shards and routing costs O(log shards + candidates)
// instead of scanning all shards for every query.
func (d *Dataset) route(cov []cellid.ID) []queryPart {
	if len(cov) == 0 {
		return nil
	}
	lo, hi := cov[0].RangeMin(), cov[len(cov)-1].RangeMax()
	first := sort.Search(len(d.shards), func(i int) bool {
		return d.shards[i].cell.RangeMax() >= lo
	})
	var parts []queryPart
	for i := first; i < len(d.shards) && d.shards[i].cell.RangeMin() <= hi; i++ {
		sh := &d.shards[i]
		if sub := geoblocks.SplitCovering(cov, sh.cell); len(sub) > 0 {
			parts = append(parts, queryPart{shard: sh, sub: sub})
		}
	}
	return parts
}

// levelBlock resolves the block executing a query planned at lvl: the
// acquired shard block's pyramid entry for that level, or the base block
// when the level is not materialised (defensive — the planner only
// emits materialised levels).
func levelBlock(blk *geoblocks.GeoBlock, lvl int) *geoblocks.GeoBlock {
	if lb, ok := blk.AtLevel(lvl); ok {
		return lb
	}
	return blk
}

// shardPartial acquires one shard, runs its sub-covering against the
// planned level's block, and releases the pin. The pin only needs to
// outlive the scan: a returned Accumulator holds pre-combined scalar
// state, so merging and finalising it never touch the (possibly
// evicted) shard arrays again.
//
// When the shard carries pending ingest rows, the delta partial is
// merged AFTER the base partial, always — the fixed base-then-delta
// order keeps COUNT/MIN/MAX bit-identical to a rebuilt dataset and makes
// SUM's reassociation deterministic for a given delta state. The
// leaf-containment test inside QueryRowsPartial is exact at every
// pyramid level, so delta rows answer planned (coarse-level) queries
// with the same spatial semantics as base rows.
func shardPartial(sh *shard, sub []cellid.ID, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (*geoblocks.Accumulator, error) {
	blk, release, err := sh.acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	acc, err := levelBlock(blk, lvl).QueryCoveringPartialOpts(sub, opts, reqs...)
	if err != nil || sh.delta == nil || len(sub) == 0 {
		return acc, err
	}
	leaves, cols := sh.delta.view()
	if len(leaves) == 0 {
		return acc, nil
	}
	dacc, err := blk.QueryRowsPartial(sub, leaves, cols, reqs...)
	if err != nil {
		return nil, err
	}
	if err := acc.MergeFrom(dacc); err != nil {
		return nil, err
	}
	return acc, nil
}

// queryCovering executes one planned query: cov must have been computed
// at grid level lvl, and every involved shard answers its sub-covering
// with its level-lvl pyramid block (hitting that level's own query cache
// unless the options disable it). On a mapped dataset each involved
// shard is pinned for its scan — cold shards fault in here, concurrently
// for multi-shard queries.
func (d *Dataset) queryCovering(cov []cellid.ID, lvl int, opts geoblocks.QueryOptions, reqs []geoblocks.AggRequest) (geoblocks.Result, error) {
	parts := d.route(cov)
	switch len(parts) {
	case 0:
		// Empty covering, or one that misses every shard: an empty
		// partial against any shard resolves the specs and finalises the
		// identity result (zero count, NaN extrema).
		acc, err := shardPartial(&d.shards[0], nil, lvl, opts, reqs)
		if err != nil {
			return geoblocks.Result{}, err
		}
		return acc.Result(), nil
	case 1:
		acc, err := shardPartial(parts[0].shard, parts[0].sub, lvl, opts, reqs)
		if err != nil {
			return geoblocks.Result{}, err
		}
		return acc.Result(), nil
	}

	accs := make([]*geoblocks.Accumulator, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			accs[i], errs[i] = shardPartial(parts[i].shard, parts[i].sub, lvl, opts, reqs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return geoblocks.Result{}, err
		}
	}
	// Merge in shard (ascending cell-range) order: deterministic for a
	// fixed covering and sharding.
	total := accs[0]
	for _, acc := range accs[1:] {
		if err := total.MergeFrom(acc); err != nil {
			return geoblocks.Result{}, err
		}
	}
	return total.Result(), nil
}

// Snapshot writes a durable snapshot of the dataset to dir: a manifest
// plus one framed, checksummed GeoBlock payload per shard, staged and
// renamed atomically (internal/snapshot; docs/FORMAT.md has the bytes).
// Shard payloads are written in parallel. Snapshotting is a read-only
// walk over the immutable aggregate arrays, so it is safe concurrently
// with queries; per-shard cache contents are not persisted — restored
// datasets rebuild their caches empty from the recorded configuration.
func (d *Dataset) Snapshot(dir string) (snapshot.Manifest, error) {
	return d.snapshot(dir, 0)
}

// SnapshotV3 writes the snapshot in the mappable format v3 (docs/
// FORMAT.md Sec. 8): aligned little-endian sections a later restore can
// serve in place via OpenMapped instead of decoding. Daemons running
// with mmap serving enabled snapshot in this format.
func (d *Dataset) SnapshotV3(dir string) (snapshot.Manifest, error) {
	return d.snapshot(dir, snapshot.FormatVersionV3)
}

func (d *Dataset) snapshot(dir string, formatVersion int) (snapshot.Manifest, error) {
	// Fold pending ingest rows into the base first, so the snapshotted
	// blocks cover every batch up to the manifest's IngestSeq and the
	// snapshot+WAL pair is a true recovery point. Rows acknowledged after
	// this fold stay recoverable: they hold sequences above IngestSeq and
	// the WAL keeps them.
	if d.residency == nil && d.deltaRows.Load() > 0 {
		if _, err := d.Compact(); err != nil {
			return snapshot.Manifest{}, err
		}
	}
	d.mu.RLock()
	// A mapped dataset already IS its snapshot: clone the backing
	// directory byte for byte (manifest checksums included) instead of
	// faulting every shard in to re-encode unchanged data. Cloning onto
	// the backing directory itself is a durable no-op.
	if d.srcDir != "" {
		defer d.mu.RUnlock()
		return snapshot.Clone(d.srcDir, dir)
	}
	bound := d.dom.Bound()
	m := snapshot.Manifest{
		FormatVersion:      formatVersion,
		Dataset:            d.name,
		Level:              d.opts.Level,
		ShardLevel:         d.opts.ShardLevel,
		CacheThreshold:     d.opts.CacheThreshold,
		CacheAutoRefresh:   d.opts.CacheAutoRefresh,
		PyramidLevels:      d.opts.PyramidLevels,
		ResultCacheBytes:   d.opts.ResultCacheBytes,
		ResultCacheMinHits: d.opts.ResultCacheMinHits,
		// foldedSeq only advances under the write lock (the fold swap),
		// so reading it under the read lock pins it to exactly the block
		// states serialised below.
		IngestSeq:       d.foldedSeq.Load(),
		AssignmentEpoch: d.assignEpoch.Load(),
		Bound:           [4]float64{bound.Min.X, bound.Min.Y, bound.Max.X, bound.Max.Y},
		Columns:         d.schema.Names,
	}
	shards := make([]snapshot.Shard, len(d.shards))
	for i := range d.shards {
		shards[i] = snapshot.Shard{Cell: d.shards[i].cell, Block: d.shards[i].block}
	}
	wal := d.wal
	m, err := snapshot.Save(dir, m, shards)
	d.mu.RUnlock()
	if err != nil {
		return m, err
	}
	// The batches up to IngestSeq are durable in the base now; drop them
	// from the log so it stays proportional to the un-snapshotted tail.
	if wal != nil {
		if err := wal.TruncateThrough(m.IngestSeq); err != nil {
			return m, fmt.Errorf("store: truncating ingest wal: %w", err)
		}
	}
	return m, nil
}

// Open loads a snapshot directory into a Dataset without registering it:
// every shard is read, checksum-verified and cross-checked against the
// manifest (failures wrap snapshot.ErrCorrupt / snapshot.ErrVersion and
// return no dataset), the coverer is rebuilt, and per-shard query caches
// are re-enabled empty when the manifest records a cache configuration.
// name overrides the dataset's registered name; empty keeps the
// manifest's.
func Open(dir, name string) (*Dataset, error) {
	m, shards, err := snapshot.Load(dir)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = m.Dataset
	}
	opts := Options{
		Level:              m.Level,
		ShardLevel:         m.ShardLevel,
		CacheThreshold:     m.CacheThreshold,
		CacheAutoRefresh:   m.CacheAutoRefresh,
		PyramidLevels:      m.PyramidLevels,
		ResultCacheBytes:   m.ResultCacheBytes,
		ResultCacheMinHits: m.ResultCacheMinHits,
	}
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	bound := geom.Rect{Min: geom.Pt(m.Bound[0], m.Bound[1]), Max: geom.Pt(m.Bound[2], m.Bound[3])}
	dom, err := cellid.NewDomain(bound)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	cov, err := cover.NewCoverer(dom, cover.DefaultOptions(m.Level))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	d := &Dataset{
		name:     name,
		opts:     opts,
		dom:      dom,
		schema:   geoblocks.NewSchema(m.Columns...),
		coverer:  cov,
		shards:   make([]shard, len(shards)),
		restored: true,
	}
	for i, sh := range shards {
		if opts.CacheThreshold > 0 {
			if err := sh.Block.EnableCache(opts.CacheThreshold, opts.CacheAutoRefresh); err != nil {
				return nil, fmt.Errorf("%w: enabling shard cache: %v", snapshot.ErrCorrupt, err)
			}
		}
		// Pyramids are not persisted (the snapshot format carries only the
		// base-level payloads, docs/FORMAT.md); re-derive them from the
		// recorded configuration.
		if err := sh.Block.BuildPyramid(opts.PyramidLevels); err != nil {
			return nil, fmt.Errorf("%w: rebuilding shard pyramid: %v", snapshot.ErrCorrupt, err)
		}
		d.shards[i] = shard{cell: sh.Cell, block: sh.Block, delta: newDelta(len(m.Columns))}
	}
	// The snapshotted base already covers every batch up to the recorded
	// IngestSeq; WAL replay (EnableWAL) applies only what came after.
	d.foldedSeq.Store(m.IngestSeq)
	d.ingestSeq.Store(m.IngestSeq)
	d.assignEpoch.Store(m.AssignmentEpoch)
	if err := d.initCoverers(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	// Result-cache contents are not persisted; restored datasets start a
	// cold cache from the recorded configuration at generation 0.
	if err := d.initResultCache(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	return d, nil
}

// OpenMapped serves the snapshot at dir in place: the manifest and every
// shard's header/table/meta are validated eagerly (snapshot.OpenLazy),
// but no shard data is read — blocks materialise via mmap on their first
// query, budgeted by the residency manager (a nil res gets a private
// unlimited one). Startup cost is metadata-sized, independent of data
// volume. The resulting dataset is read-only (Update returns a
// core.ErrReadOnly-wrapped error) and snapshots by cloning dir.
//
// Version-1 snapshots cannot be served in place; they fall back to the
// eager Open transparently — check Mapped() on the result.
func OpenMapped(dir, name string, res *Residency) (*Dataset, error) {
	m, lazies, err := snapshot.OpenLazy(dir)
	if err != nil {
		if errors.Is(err, snapshot.ErrEagerOnly) {
			return Open(dir, name)
		}
		return nil, err
	}
	if res == nil {
		res = NewResidency(0)
	}
	if name == "" {
		name = m.Dataset
	}
	opts := Options{
		Level:              m.Level,
		ShardLevel:         m.ShardLevel,
		CacheThreshold:     m.CacheThreshold,
		CacheAutoRefresh:   m.CacheAutoRefresh,
		PyramidLevels:      m.PyramidLevels,
		ResultCacheBytes:   m.ResultCacheBytes,
		ResultCacheMinHits: m.ResultCacheMinHits,
	}
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	bound := geom.Rect{Min: geom.Pt(m.Bound[0], m.Bound[1]), Max: geom.Pt(m.Bound[2], m.Bound[3])}
	dom, err := cellid.NewDomain(bound)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	cov, err := cover.NewCoverer(dom, cover.DefaultOptions(m.Level))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		name:      name,
		opts:      opts,
		dom:       dom,
		schema:    geoblocks.NewSchema(m.Columns...),
		coverer:   cov,
		shards:    make([]shard, len(lazies)),
		srcDir:    absDir,
		residency: res,
		restored:  true,
	}
	cfg := materializeCfg{
		cacheThreshold:   opts.CacheThreshold,
		cacheAutoRefresh: opts.CacheAutoRefresh,
		pyramidLevels:    opts.PyramidLevels,
	}
	for i, ls := range lazies {
		lsh := &lazyShard{res: res, src: ls, cfg: cfg}
		res.register(lsh)
		d.shards[i] = shard{cell: ls.Cell, lazy: lsh}
	}
	d.assignEpoch.Store(m.AssignmentEpoch)
	if err := d.initCoverers(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	if err := d.initResultCache(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	return d, nil
}

// Mapped reports whether the dataset serves a mapped snapshot in place
// (lazy shards, read-only) rather than decoded heap blocks.
func (d *Dataset) Mapped() bool { return d.residency != nil }

// RefreshCaches rebuilds every shard's query cache from its accumulated
// statistics. No-op for shards without an enabled cache. It is a
// structural mutation on each shard, serialised against in-flight
// queries by the dataset lock; prefer CacheAutoRefresh for live serving.
func (d *Dataset) RefreshCaches() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.shards {
		sh := &d.shards[i]
		if sh.lazy != nil {
			// Refresh only already-resident shards: a cache refresh must
			// not fault cold shards in (an evicted shard restarts with an
			// empty cache anyway).
			if blk, release, ok := sh.lazy.peek(); ok {
				blk.RefreshCache()
				release()
			}
			continue
		}
		sh.block.RefreshCache()
	}
}

// Update folds a batch of new tuples into the dataset's shards (paper
// Sec. 5): rows are partitioned by shard-level cell prefix and each
// involved shard absorbs its slice in place, rebuilding its query cache
// and re-deriving its pyramid levels. Rows landing outside every
// existing shard (or outside a shard's aggregated cells) return
// core.ErrRebuildRequired — rebuild the dataset in that case. The update
// is serialised against queries by the dataset lock, so concurrent
// readers see either the old or the new aggregates, never a mix; it is
// NOT atomic across shards on error — a failing shard leaves earlier
// shards updated (the same batched-maintenance caveat as a single
// block's Update, per shard).
//
// Update bumps the dataset generation whether or not it succeeds, so the
// result cache never serves an answer computed before a partial
// mutation. The one exception is a batch rejected by upfront validation
// (ragged columns): nothing was touched, so nothing is invalidated.
func (d *Dataset) Update(batch *geoblocks.UpdateBatch) error {
	if batch == nil || batch.Len() == 0 {
		return nil
	}
	// A mapped dataset's aggregate arrays are views of a read-only file
	// mapping; updates require an eager (decoded) restore.
	if d.residency != nil {
		return fmt.Errorf("store: dataset %q serves a mapped snapshot read-only; restore it eagerly to update: %w",
			d.name, core.ErrReadOnly)
	}
	// Reject ragged batches before partitioning rows: indexing a short
	// column below would panic under the dataset write lock instead of
	// surfacing the validation error core's Update would return.
	for c := range batch.Cols {
		if len(batch.Cols[c]) != len(batch.Points) {
			return fmt.Errorf("store: update column %d has %d rows, want %d", c, len(batch.Cols[c]), len(batch.Points))
		}
	}
	// Update mutates base arrays in place. A fold (Compact) that read the
	// base before this mutation would discard it when its replacement
	// block swaps in, so updates serialise against the whole fold window,
	// not just the swap. Lock order: compactMu before d.mu.
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.results != nil {
		defer d.results.Invalidate()
	}

	// Partition rows by the shard cell their point lands in.
	byShard := make(map[int][]int)
	for i, p := range batch.Points {
		cell := d.dom.CellAt(p, d.opts.ShardLevel)
		s, ok := d.shardIndex(cell)
		if !ok {
			return fmt.Errorf("store: update row %d lands in unbuilt shard %v: %w", i, cell, core.ErrRebuildRequired)
		}
		byShard[s] = append(byShard[s], i)
	}

	// Ascending shard order for a deterministic failure point.
	order := make([]int, 0, len(byShard))
	for s := range byShard {
		order = append(order, s)
	}
	sort.Ints(order)
	sub := geoblocks.UpdateBatch{Cols: make([][]float64, len(batch.Cols))}
	for _, s := range order {
		idxs := byShard[s]
		sub.Points = sub.Points[:0]
		for c := range sub.Cols {
			sub.Cols[c] = sub.Cols[c][:0]
		}
		for _, i := range idxs {
			sub.Points = append(sub.Points, batch.Points[i])
			for c := range sub.Cols {
				sub.Cols[c] = append(sub.Cols[c], batch.Cols[c][i])
			}
		}
		if err := d.shards[s].block.Update(&sub); err != nil {
			return fmt.Errorf("store: updating shard %v: %w", d.shards[s].cell, err)
		}
	}
	return nil
}

// shardIndex locates the shard owning a shard-level cell by binary search
// over the sorted shard slice.
func (d *Dataset) shardIndex(cell cellid.ID) (int, bool) {
	i := sort.Search(len(d.shards), func(i int) bool {
		return d.shards[i].cell >= cell
	})
	if i < len(d.shards) && d.shards[i].cell == cell {
		return i, true
	}
	return 0, false
}

// Invalidate bumps the dataset's result-cache generation, making every
// cached result unservable (verified lazily on read — nothing is
// flushed, and memoized coverings stay warm). The store calls it when a
// dataset is dropped from the registry; Update invalidates internally.
// No-op without a result cache.
func (d *Dataset) Invalidate() {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.results != nil {
		d.results.Invalidate()
	}
}

// Generation returns the dataset's result-cache generation (0 without a
// result cache): the counter cached results are verified against.
func (d *Dataset) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.results == nil {
		return 0
	}
	return d.results.Generation()
}

// EnableResultCache attaches (or reconfigures) the dataset-level result
// cache with the given byte budget and admission floor; maxBytes 0
// detaches it. Reconfiguring starts from an empty cache. The recorded
// options change with it, so subsequent snapshots carry the
// configuration and Open re-enables the cache on restore.
func (d *Dataset) EnableResultCache(maxBytes int64, minHits int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	opts := d.opts
	opts.ResultCacheBytes = maxBytes
	opts.ResultCacheMinHits = minHits
	if err := opts.validate(); err != nil {
		return err
	}
	d.opts = opts
	return d.initResultCache()
}

// ResultCacheStats snapshots the result cache's effectiveness counters;
// nil without a result cache.
func (d *Dataset) ResultCacheStats() *resultcache.Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.results == nil {
		return nil
	}
	s := d.results.Stats()
	return &s
}

// HotFootprints returns the k most-served result-cache footprints,
// hottest first; nil without a result cache.
func (d *Dataset) HotFootprints(k int) []resultcache.FootprintStat {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.results == nil {
		return nil
	}
	return d.results.TopFootprints(k)
}

// ShardStats describes one shard for stats reporting.
type ShardStats struct {
	// Cell is the shard's prefix cell (level-tagged hex token).
	Cell string `json:"cell"`
	// Cells is the number of non-empty grid cells in the shard block.
	Cells int `json:"cells"`
	// Tuples is the number of aggregated tuples.
	Tuples uint64 `json:"tuples"`
	// SizeBytes is the shard block's aggregate storage size.
	SizeBytes int `json:"size_bytes"`
	// CacheBytes is the shard's current cache arena size (all levels).
	CacheBytes int `json:"cache_bytes,omitempty"`
	// PyramidBytes is the aggregate storage of the shard's coarser
	// pyramid levels.
	PyramidBytes int `json:"pyramid_bytes,omitempty"`
	// Resident reports whether a mapped dataset's shard is currently
	// materialised (always false-omitted on eager datasets, whose blocks
	// are unconditionally heap-resident).
	Resident bool `json:"resident,omitempty"`
}

// DatasetStats is the stats snapshot of one dataset.
type DatasetStats struct {
	Name       string   `json:"name"`
	Level      int      `json:"level"`
	ShardLevel int      `json:"shard_level"`
	NumShards  int      `json:"num_shards"`
	Columns    []string `json:"columns"`
	// Bound is the dataset's spatial domain as [minX, minY, maxX, maxY] —
	// load generators and clients use it to synthesize in-domain queries.
	Bound [4]float64 `json:"bound"`
	// ErrorBound is the spatial error bound in domain units (one grid
	// cell diagonal).
	ErrorBound float64 `json:"error_bound"`
	Cells      int     `json:"cells"`
	Tuples     uint64  `json:"tuples"`
	SizeBytes  int     `json:"size_bytes"`
	// PyramidLevels is the number of coarser levels each shard serves
	// below the block level; PyramidBytes is their total aggregate
	// storage across shards (the memory cost of the query-time error
	// knob).
	PyramidLevels int    `json:"pyramid_levels"`
	PyramidBytes  int    `json:"pyramid_bytes"`
	Queries       uint64 `json:"queries"`
	// CacheEnabled reports whether the shards carry query caches; Cache
	// sums the per-shard effectiveness counters.
	CacheEnabled bool                   `json:"cache_enabled"`
	CacheBytes   int                    `json:"cache_bytes"`
	Cache        geoblocks.CacheMetrics `json:"cache"`
	// Generation is the dataset's result-cache generation (0 without a
	// result cache): bumped by every Update/Drop, carried by every cached
	// result, verified on every cache read.
	Generation uint64 `json:"generation"`
	// Mapped reports a dataset served in place from a format-v3 snapshot
	// (OpenMapped): MappedBytes is its full on-disk footprint,
	// ResidentBytes/ResidentShards the part currently materialised and
	// charged against the store's residency budget. All zero-omitted for
	// eager datasets.
	Mapped         bool  `json:"mapped,omitempty"`
	MappedBytes    int64 `json:"mapped_bytes,omitempty"`
	ResidentBytes  int64 `json:"resident_bytes,omitempty"`
	ResidentShards int   `json:"resident_shards,omitempty"`
	// Ingest holds the streaming write path's counters (pending delta
	// rows, acknowledged batches, compactions); nil on mapped datasets,
	// which are read-only. Tuples counts base rows only — pending delta
	// rows are reported here until a fold moves them into the base.
	Ingest *IngestStats `json:"ingest,omitempty"`
	// ResultCache holds the dataset-level result cache's effectiveness
	// counters, nil when no result cache is enabled.
	ResultCache *resultcache.Stats `json:"result_cache,omitempty"`
	// HotFootprints lists the hottest cached query footprints (full Stats
	// only, nil in summaries and without a result cache).
	HotFootprints []resultcache.FootprintStat `json:"hot_footprints,omitempty"`
	// Join holds the join operator's cumulative counters, nil until the
	// first Join/JoinRects/PlanJoin call.
	Join   *JoinCounters `json:"join,omitempty"`
	Shards []ShardStats  `json:"shards,omitempty"`
}

// JoinCounters is the cumulative join activity of one dataset.
type JoinCounters struct {
	// Joins counts join calls; Polygons the total polygons across them.
	Joins    uint64 `json:"joins"`
	Polygons uint64 `json:"polygons"`
	// InteriorPairs / BoundaryPairs total the shared-grid classifications
	// (interior pairs were answered with zero geometry tests).
	InteriorPairs uint64 `json:"interior_pairs"`
	BoundaryPairs uint64 `json:"boundary_pairs"`
	// Fallbacks totals polygons answered by the single-region coverer.
	Fallbacks uint64 `json:"fallbacks"`
	// CacheHits / CacheMisses total per-polygon result-cache outcomes
	// inside joins.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// hotFootprintsTopK is how many footprints a full Stats reports.
const hotFootprintsTopK = 10

// Stats snapshots the dataset: totals plus per-shard breakdown. Cache
// counters are summed across shards (each counter is read atomically; the
// snapshot as a whole may be skewed by in-flight queries, as with a single
// block's CacheMetrics).
func (d *Dataset) Stats() DatasetStats { return d.stats(true) }

// StatsSummary is Stats without the per-shard breakdown, for callers
// (dataset listings, metrics scrapes) that only read the totals.
func (d *Dataset) StatsSummary() DatasetStats { return d.stats(false) }

func (d *Dataset) stats(includeShards bool) DatasetStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	st := DatasetStats{
		Name:         d.name,
		Level:        d.opts.Level,
		ShardLevel:   d.opts.ShardLevel,
		NumShards:    len(d.shards),
		Columns:      d.schema.Names,
		Queries:      d.queries.Load(),
		CacheEnabled: d.opts.CacheThreshold > 0,
	}
	b := d.dom.Bound()
	st.Bound = [4]float64{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}
	if d.results != nil {
		st.Generation = d.results.Generation()
		rcs := d.results.Stats()
		st.ResultCache = &rcs
		if includeShards {
			st.HotFootprints = d.results.TopFootprints(hotFootprintsTopK)
		}
	}
	if n := d.joins.Load(); n > 0 {
		st.Join = &JoinCounters{
			Joins:         n,
			Polygons:      d.joinPolygons.Load(),
			InteriorPairs: d.joinInterior.Load(),
			BoundaryPairs: d.joinBoundary.Load(),
			Fallbacks:     d.joinFallbacks.Load(),
			CacheHits:     d.joinCacheHits.Load(),
			CacheMisses:   d.joinCacheMisses.Load(),
		}
	}
	st.PyramidLevels = len(d.pyramidLevelList())
	st.ErrorBound = d.dom.CellDiagonal(d.opts.Level)
	st.Mapped = d.residency != nil
	if d.residency == nil {
		is := d.ingestStatsLocked()
		st.Ingest = &is
	}
	for i := range d.shards {
		sh := &d.shards[i]
		if sh.lazy != nil {
			// Structural counts come from the eagerly-validated v3
			// metadata — stats must not fault cold shards in. Cache and
			// pyramid figures exist only while the shard is resident.
			ls := sh.lazy
			ss := ShardStats{
				Cell:      sh.cell.String(),
				Cells:     int(ls.src.Info.NumCells),
				Tuples:    ls.src.Info.Rows,
				SizeBytes: int(ls.src.Bytes),
			}
			st.Cells += ss.Cells
			st.Tuples += ss.Tuples
			st.SizeBytes += ss.SizeBytes
			st.MappedBytes += ls.src.Bytes
			if blk, release, ok := ls.peek(); ok {
				_, cost := ls.residentCost()
				m := blk.CacheMetrics()
				ss.Resident = true
				ss.CacheBytes = blk.CacheSizeBytes()
				ss.PyramidBytes = blk.PyramidBytes()
				st.ResidentShards++
				st.ResidentBytes += cost
				st.PyramidBytes += ss.PyramidBytes
				st.CacheBytes += ss.CacheBytes
				st.Cache.Probes += m.Probes
				st.Cache.FullHits += m.FullHits
				st.Cache.PartialHits += m.PartialHits
				st.Cache.Misses += m.Misses
				st.Cache.DerivedHits += m.DerivedHits
				release()
			}
			if includeShards {
				st.Shards = append(st.Shards, ss)
			}
			continue
		}
		blk := sh.block
		m := blk.CacheMetrics()
		st.Cells += blk.NumCells()
		st.Tuples += blk.NumTuples()
		st.SizeBytes += blk.SizeBytes()
		st.PyramidBytes += blk.PyramidBytes()
		st.CacheBytes += blk.CacheSizeBytes()
		st.Cache.Probes += m.Probes
		st.Cache.FullHits += m.FullHits
		st.Cache.PartialHits += m.PartialHits
		st.Cache.Misses += m.Misses
		st.Cache.DerivedHits += m.DerivedHits
		if includeShards {
			st.Shards = append(st.Shards, ShardStats{
				Cell:         sh.cell.String(),
				Cells:        blk.NumCells(),
				Tuples:       blk.NumTuples(),
				SizeBytes:    blk.SizeBytes(),
				CacheBytes:   blk.CacheSizeBytes(),
				PyramidBytes: blk.PyramidBytes(),
			})
		}
	}
	return st
}
